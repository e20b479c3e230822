"""CLI behavior: exit codes, eval rendering, report determinism."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shufflebv
import shufflebv.bv
from shufflebv.algebra_io import builtin, render_document
from shufflebv.cli import main
from test_bv import InProcessContext


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


def flip_first_mu2_sign(doc):
    entry = doc["operations"]["mu2"][0]["output"][0]
    entry[1] = str(-int(entry[1]))


def test_validate_fail_cap_below_one_is_2(fixture_file, capsys):
    path = fixture_file("end-two-term-complex", mutate=flip_first_mu2_sign)
    assert main(["validate", path, "--fail-cap", "2"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "INVALID: 7 violation(s)" and len(lines) == 3
    for cap in ("0", "-1"):
        assert main(["validate", path, "--fail-cap", cap]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--fail-cap must be >= 1" in err
    assert main(["validate", fixture_file("dual-numbers"), "--fail-cap", "0"]) == 2


def test_validate_missing_file_is_3(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 3


def test_validate_malformed_json_is_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("body, message", [
    (b"\xff\xfe{}", "not UTF-8 text"),  # a UTF-16 byte-order mark
    (b'{"a":' * 100_000, "nested too deeply"),
], ids=["utf16-bom", "nested-100000"])
def test_undecodable_input_is_2(tmp_path, capsys, body, message):
    path = tmp_path / "odd.json"
    path.write_bytes(body)
    for command in ("validate", "check"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid input: ") and message in err


def test_validate_unknown_key_is_2(fixture_file):
    def add_key(doc):
        doc["surprise"] = True

    assert main(["validate", fixture_file("dual-numbers", mutate=add_key)]) == 2


@pytest.mark.parametrize("output", [5, None, {}, "one"])
def test_non_list_output_is_2(fixture_file, capsys, output):
    # an entry's output must be a list of pairs: anything else is invalid
    # input (2) on every command, never a crash read as an axiom failure (1)
    def set_output(doc):
        doc["operations"]["mu2"][0]["output"] = output

    path = fixture_file("dual-numbers", mutate=set_output)
    for args in (["validate", path], ["check", path],
                 ["eval", path, "--op", "shuffle", "--x", "one", "--y", "eps"]):
        assert main(args) == 2, args
        assert "'output' must be a list" in capsys.readouterr().err, args


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
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        payload.pop("meta")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_readme_quick_tour_runs():
    # the README's library block, as written, in a fresh interpreter
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    script = tour.split("```python\n", 1)[1].split("```", 1)[0]
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    env = dict(PATH="/usr/bin:/bin", PYTHONPATH=package_root, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["-a", "-a - e"]


def test_serial_commands_do_not_import_multiprocessing(fixture_file):
    # only a check that starts a fork pool pays for importing multiprocessing
    path = fixture_file("end-two-term-complex")
    script = (
        "import contextlib, io, sys\n"
        "from shufflebv.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['validate', {path!r}]),\n"
        f"             main(['check', {path!r}, '--max-len', '2', '--pair-len', '1', '--triple-len', '1'])]\n"
        "print(codes, 'multiprocessing' in sys.modules)\n"
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    env = dict(PATH="/usr/bin:/bin", PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0]", "False"]


def corrupt_mu3(doc):
    # two products into r: the composition relations of degree -2 and -4 fail
    doc["operations"]["mu2"].append({"inputs": ["p", "q"], "output": [["r", "1"]]})
    doc["operations"]["mu3"].append({"inputs": ["p", "p", "q"], "output": [["r", "1"]]})


def test_check_jobs_flag(fixture_file, capsys, monkeypatch):
    # the pool path must give the same report as the sequential one, on every
    # suite, and on failing algebras with their failure witnesses and their
    # order too; a pool of two workers whatever the host has
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    dbv_bounds = ["--max-len", "3", "--pair-len", "1", "--triple-len", "1"]
    ainf_bounds = ["--max-len", "4", "--order-slack", "1", "--fail-cap", "3"]
    runs = [
        ("end-two-term-complex", None, [], dbv_bounds, 0),
        ("end-two-term-complex", corrupt_mu, ["--assume-valid"], dbv_bounds, 1),
        ("ainf-mu3", None, [], ainf_bounds, 0),
        ("ainf-mu3", corrupt_mu3, ["--assume-valid"], ainf_bounds, 1),
        ("diag-into-upper-triangular", None, [], ["--max-len", "3", "--pair-len", "2"], 0),
    ]
    for name, mutate, extra, bounds, code in runs:
        path = fixture_file(name, mutate=mutate)
        args = ["check", path, *extra, "--report", "json", *bounds]
        payloads = []
        for jobs in (1, 2):
            assert main(args + ["--jobs", str(jobs)]) == code
            payload = json.loads(capsys.readouterr().out)
            payload.pop("meta")
            assert payload["config"].pop("jobs") == jobs
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        assert any(a["failures"] for a in payloads[0]["axioms"]) == bool(code)


def test_check_jobs_clamped_to_usable_cpus(fixture_file, capsys, monkeypatch):
    # --jobs 100000 starts one pool per check, of one worker per usable CPU,
    # and the report still echoes the requested value
    fake = InProcessContext()
    monkeypatch.setattr(multiprocessing, "get_context", fake)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    args = ["check", fixture_file("end-two-term-complex"), "--report", "json",
            "--max-len", "3", "--pair-len", "1", "--triple-len", "1"]
    payloads = []
    for jobs in (1, 100_000):
        assert main(args + ["--jobs", str(jobs)]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("meta")
        assert payload["config"].pop("jobs") == jobs
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert fake.pool_sizes == [3]


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


def test_eval_z_without_y_is_2(fixture_file, capsys):
    # --z never moves into the empty --y slot
    path = fixture_file("end-two-term-complex")
    for op in ("order-defect", "bracket"):
        assert main(["eval", path, "--op", op, "--x", "b", "--z", "c"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--z needs --y" in err


# -- fixtures ------------------------------------------------------------------


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "end-two-term-complex" in names and "ainf-mu3" in names


@pytest.mark.parametrize("letter", ["", "e,ps", " eps", "eps\t"])
def test_letter_id_a_word_cannot_express_is_2(fixture_file, capsys, letter):
    # eval reads a word as ids split at commas and stripped, so no word
    # could name such a letter
    def renamed(new):
        def mutate(doc):
            doc.update(json.loads(json.dumps(doc).replace('"eps"', json.dumps(new))))
        return fixture_file("dual-numbers", mutate=mutate)

    assert main(["validate", renamed(letter)]) == 2
    assert "cannot be written in a word" in capsys.readouterr().err
    assert main(["validate", renamed(letter.strip().replace(",", "") or "e")]) == 0


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
