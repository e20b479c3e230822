"""CLI behavior: exit codes, eval rendering, report determinism."""

import json
import os
import subprocess
import sys

import pytest

import shufflebv
from shufflebv.algebra_io import builtin, render_document
from shufflebv.cli import main


@pytest.fixture
def fixture_file(tmp_path):
    def write(name, mutate=None):
        doc = render_document(builtin(name))
        if mutate:
            mutate(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def corrupt_mu(doc):
    doc["operations"]["mu2"][0]["output"][0][1] = "2"


# -- validate ---------------------------------------------------------------


def test_validate_fixture_ok(fixture_file, capsys):
    assert main(["validate", fixture_file("dual-numbers")]) == 0
    assert "VALID" in capsys.readouterr().out


def test_validate_morphism_file(fixture_file):
    assert main(["validate", fixture_file("diag-into-upper-triangular")]) == 0


def test_validate_corrupted_is_2(fixture_file, capsys):
    path = fixture_file("upper-triangular-2", mutate=corrupt_mu)
    assert main(["validate", path]) == 2
    out = capsys.readouterr().out
    assert "INVALID" in out and "associativity" in out


def test_validate_missing_file_is_3(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 3


def test_validate_malformed_json_is_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 2


def test_validate_unknown_key_is_2(fixture_file):
    def add_key(doc):
        doc["surprise"] = True

    assert main(["validate", fixture_file("dual-numbers", mutate=add_key)]) == 2


# -- check ------------------------------------------------------------------


def test_check_dga_passes(fixture_file, capsys):
    path = fixture_file("end-two-term-complex")
    code = main(
        ["check", path, "--max-len", "3", "--pair-len", "2", "--triple-len", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_ainf_passes(fixture_file):
    path = fixture_file("ainf-mu3")
    assert main(["check", path, "--max-len", "4", "--max-arity", "3"]) == 0


def test_check_morphism_passes(fixture_file):
    path = fixture_file("diag-into-upper-triangular")
    assert main(["check", path, "--max-len", "3", "--pair-len", "2"]) == 0


def test_check_corrupted_without_assume_valid_is_2(fixture_file):
    path = fixture_file("end-two-term-complex", mutate=corrupt_mu)
    assert main(["check", path, "--max-len", "3"]) == 2


def test_check_corrupted_with_assume_valid_is_1(fixture_file, capsys):
    path = fixture_file("end-two-term-complex", mutate=corrupt_mu)
    code = main(
        [
            "check",
            path,
            "--assume-valid",
            "--max-len",
            "3",
            "--pair-len",
            "2",
            "--triple-len",
            "1",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "defect" in out


def test_check_json_report_deterministic(fixture_file, capsys):
    path = fixture_file("end-two-term-complex")
    args = [
        "check",
        path,
        "--report",
        "json",
        "--max-len",
        "3",
        "--pair-len",
        "1",
        "--triple-len",
        "1",
    ]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    meta1, meta2 = first.pop("meta"), second.pop("meta")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert "elapsed_s" in meta1 and "elapsed_s" in meta2
    assert first["format_version"] == 1
    assert {a["name"] for a in first["axioms"]} >= {"d_squared", "bracket_jacobi"}
    assert all(a["passed"] for a in first["axioms"])


def test_check_json_failure_payload(fixture_file, capsys):
    path = fixture_file("end-two-term-complex", mutate=corrupt_mu)
    code = main(
        [
            "check",
            path,
            "--assume-valid",
            "--report",
            "json",
            "--max-len",
            "3",
            "--pair-len",
            "1",
            "--triple-len",
            "1",
            "--fail-cap",
            "2",
        ]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    failing = [a for a in report["axioms"] if not a["passed"]]
    assert failing
    f = failing[0]["failures"][0]
    assert f["inputs"] and f["defect"]["terms"]
    assert f["defect"]["pretty"]


def test_check_json_report_deterministic_across_processes(fixture_file):
    path = fixture_file("end-two-term-complex")
    args = [
        sys.executable,
        "-m",
        "shufflebv.cli",
        "check",
        path,
        "--report",
        "json",
        "--max-len",
        "2",
        "--pair-len",
        "1",
        "--triple-len",
        "1",
    ]
    # The children import the same shufflebv as this process, from src/ or
    # from an install; the bare environment would otherwise drop PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    outputs = []
    for seed in ("0", "424242"):
        env = dict(PYTHONHASHSEED=seed, PATH="/usr/bin:/bin", PYTHONPATH=package_root)
        if "SHUFFLEBV_PURE" in os.environ:
            env["SHUFFLEBV_PURE"] = os.environ["SHUFFLEBV_PURE"]
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        payload.pop("meta")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_check_jobs_flag(fixture_file, capsys):
    # the pool path must give the same report as the sequential one, on a
    # failing algebra with its failure witnesses and their order too
    for mutate, extra, code in ((None, [], 0), (corrupt_mu, ["--assume-valid"], 1)):
        path = fixture_file("end-two-term-complex", mutate=mutate)
        args = ["check", path, *extra, "--report", "json", "--max-len", "3",
                "--pair-len", "1", "--triple-len", "1"]
        payloads = []
        for jobs in (1, 2):
            assert main(args + ["--jobs", str(jobs)]) == code
            payload = json.loads(capsys.readouterr().out)
            payload.pop("meta")
            assert payload["config"].pop("jobs") == jobs
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert any(a["failures"] for a in payloads[0]["axioms"]) == bool(code)


# -- eval -------------------------------------------------------------------


def test_eval_shuffle(fixture_file, capsys):
    path = fixture_file("upper-triangular-2")
    assert main(["eval", path, "--op", "shuffle", "--x", "e11", "--y", "e12"]) == 0
    assert capsys.readouterr().out.strip() == "e11(x)e12 - e12(x)e11"


def test_eval_bracket(fixture_file, capsys):
    path = fixture_file("full-matrix-2")
    assert main(["eval", path, "--op", "bracket", "--x", "e12", "--y", "e21"]) == 0
    assert capsys.readouterr().out.strip() == "-e11 + e22"


def test_eval_d_of_closed_letter(fixture_file, capsys):
    path = fixture_file("end-two-term-complex")
    assert main(["eval", path, "--op", "d", "--x", "c"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_delta(fixture_file, capsys):
    path = fixture_file("end-two-term-complex")
    assert main(["eval", path, "--op", "delta", "--x", "a,b"]) == 0
    assert capsys.readouterr().out.strip() == "b"


def test_eval_order_defect(fixture_file, capsys):
    path = fixture_file("end-two-term-complex")
    assert (
        main(["eval", path, "--op", "order-defect", "--x", "a", "--y", "b", "--z", "c"])
        == 0
    )
    assert capsys.readouterr().out.strip() == "0"


def test_eval_unknown_letter_is_2(fixture_file, capsys):
    path = fixture_file("dual-numbers")
    assert main(["eval", path, "--op", "shuffle", "--x", "nope", "--y", "one"]) == 2


def test_eval_missing_y_is_2(fixture_file):
    path = fixture_file("dual-numbers")
    assert main(["eval", path, "--op", "shuffle", "--x", "one"]) == 2


# -- fixtures ------------------------------------------------------------------


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "end-two-term-complex" in names and "ainf-mu3" in names


def test_fixtures_dump_roundtrip(capsys):
    assert main(["fixtures", "dump", "end-two-term-complex"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == 1 and data["kind"] == "dga"


def test_fixtures_dump_morphism(capsys):
    assert main(["fixtures", "dump", "diag-into-upper-triangular"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "morphism" and data["source"] == "diagonal-2"


def test_validate_ainf_file(fixture_file):
    assert main(["validate", fixture_file("ainf-mu3"), "--max-arity", "3"]) == 0


def test_fixtures_dump_unknown_is_2(capsys):
    assert main(["fixtures", "dump", "nope"]) == 2
