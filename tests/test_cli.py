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


def test_validate_and_check_report_a_validation_failure_alike(fixture_file, capsys):
    # one handler, in main, reports the failed validation of every command:
    # the count, then the first --fail-cap violations, on stdout, exit 2
    for name, mutate in (("end-two-term-complex", flip_first_mu2_sign), ("ainf-mu3", corrupt_mu3)):
        path = fixture_file(name, mutate=mutate)
        outputs = []
        for command in ("validate", "check"):
            assert main([command, path, "--fail-cap", "2"]) == 2
            out, err = capsys.readouterr()
            assert err == ""
            outputs.append(out)
        lines = outputs[0].splitlines()
        assert outputs[0] == outputs[1] and len(lines) == 3, name
        assert lines[0].startswith("INVALID: ") and lines[0].endswith(" violation(s)")


def only_d(doc):
    doc["kind"] = "ainf"
    doc["operations"] = {"d": doc["operations"]["d"]}


def no_tables(doc):
    doc["kind"] = "ainf"
    doc["operations"] = {}


def test_ainf_default_arity(fixture_file, capsys):
    # the highest arity with a table, or 2 if there is none; a check's is at
    # least 2, while validating d alone checks d^2 = 0 at arity 1
    from shufflebv.algebra_io import ainf_validation_cases, load_document
    from shufflebv.cli import _bounds, _predicted_cases, build_parser

    for mutate, validated in ((only_d, 1), (no_tables, 2)):
        path = fixture_file("end-two-term-complex", mutate=mutate)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == "VALID\n"
        payloads = []
        for arity in ([], ["--max-arity", "2"]):
            assert main(["check", path, "--report", "json", "--max-len", "3", *arity]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("meta")
            payload["config"].pop("max_arity")
            payloads.append(payload)
        assert payloads[0] == payloads[1] and len(payloads[0]["axioms"]) == 8
        args = build_parser().parse_args(["check", path])
        doc = load_document(path)
        predicted = _predicted_cases(doc, args, _bounds(args))
        assert predicted[0] == ("validate", ainf_validation_cases(doc.space(), validated))
        assert len(predicted) == 1 + 8


def test_default_bounds_are_those_of_bounds(fixture_file):
    from shufflebv.bv import Bounds
    from shufflebv.cli import _bounds, build_parser

    path = fixture_file("end-two-term-complex")
    assert _bounds(build_parser().parse_args(["check", path])) == Bounds()
    assert build_parser().parse_args(["validate", path]).fail_cap == Bounds().fail_cap


def test_validate_missing_file_is_3(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert main(["validate", path]) == 3
    assert capsys.readouterr().err == (
        f"cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"
    )


def test_closed_stdout_is_3_without_a_traceback():
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails, whatever the timing
    read, write = os.pipe()
    os.close(read)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(shufflebv.__file__)))
    env = dict(PATH="/usr/bin:/bin", PYTHONPATH=package_root)
    args = [sys.executable, "-m", "shufflebv.cli", "fixtures", "dump", "end-two-term-complex"]
    try:
        proc = subprocess.run(args, stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 3
    assert proc.stderr == "I/O error: [Errno 32] Broken pipe\n"


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


@pytest.mark.parametrize("coeff", ["1_000", "3/1_0", "\u0661\u0662"])
def test_non_ascii_or_separated_coefficient_is_2(fixture_file, capsys, coeff):
    # a coefficient is "p" or "p/q" in ASCII base-10 digits: int() would
    # read these as 1000, 3/10 and 12
    def set_coeff(doc):
        doc["operations"]["mu2"][0]["output"][0][1] = coeff

    assert main(["validate", fixture_file("dual-numbers", mutate=set_coeff)]) == 2
    assert "bad scalar" in capsys.readouterr().err


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


def corrupt_map(doc):
    # d22 -> e12: not multiplicative, so the induced map misses delta
    doc["map"][1]["output"] = [["e12", "1"]]


def qpp_into_r(doc):
    doc["operations"]["mu3"].append({"inputs": ["q", "p", "p"], "output": [["r", "1"]]})


@pytest.mark.parametrize("name, mutate, lines", [
    ("end-two-term-complex", flip_first_mu2_sign,
     ["INVALID: 7 violation(s)", "  leibniz at (a, a): -2 c != 0"]),
    ("ainf-mu3", qpp_into_r,
     ["INVALID: 7 violation(s)", "  sum_relation_n_-4 at (p, p, p, p): r != 0"]),
    ("diag-into-upper-triangular", corrupt_map,
     ["INVALID: 2 violation(s)", "  multiplicative at (d11, d22): -e12 != 0"]),
])
def test_validate_prints_each_violation_as_a_word_and_its_value(fixture_file, capsys, name,
                                                                 mutate, lines):
    # a violation prints its word's letter ids and the relation's nonzero value
    assert main(["validate", fixture_file(name, mutate=mutate), "--fail-cap", "1"]) == 2
    assert capsys.readouterr().out.splitlines() == lines


def test_check_morphism_assume_valid_skips_validation(fixture_file, capsys, monkeypatch):
    path = fixture_file("diag-into-upper-triangular", mutate=corrupt_map)
    args = ["check", path, "--max-len", "2", "--pair-len", "1"]
    assert main(args) == 2
    out = capsys.readouterr().out
    assert out.startswith("INVALID: 2 violation(s)") and "multiplicative" in out
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    for jobs in ("1", "2"):
        assert main(args + ["--assume-valid", "--jobs", jobs]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[1:4] == [
            "FAIL (2 failing)  morphism_commutes_delta: 7 cases [words <= 2]",
            "    inputs: d11(x)d22",
            "    defect: -e12",
        ]
        assert out[0].startswith("PASS") and out[-1].startswith("PASS")
    # the flag skips validation only: endpoints must still be builtin dgas,
    # and map entries must still be degree-consistent
    for source, target, image in (("nope", "upper-triangular-2", "e11"),
                                  ("ainf-mu3", "upper-triangular-2", "e11"),
                                  ("diagonal-2", "end-two-term-complex", "b")):
        def mutate(doc):
            doc.update(source=source, target=target)
            doc["map"] = [{"inputs": ["d11"], "output": [[image, "1"]]}]

        path = fixture_file("diag-into-upper-triangular", mutate=mutate)
        for extra in ([], ["--assume-valid"]):
            assert main(args + extra) == 2
            assert "invalid input" in capsys.readouterr().err


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
    # the peak RSS and the workers' figures are left out where the platform
    # has no ``resource`` module; a serial check has no workers
    workers = ["workers_cpu_s", "workers_peak_rss_mb"] if shufflebv.cli.resource else []
    numbers = ["elapsed_s", "cpu_s"] + (["peak_rss_mb"] if shufflebv.cli.resource else []) + workers
    for meta in (meta1, meta2):
        assert set(meta) == {"version", *numbers}
        assert meta["version"] == shufflebv.__version__
        assert all(type(meta[k]) in (int, float) and meta[k] >= 0 for k in numbers)
        assert meta["cpu_s"] > 0
        assert all(meta[k] == 0 for k in workers)
    assert meta2["cpu_s"] >= meta1["cpu_s"]  # one process: its CPU time so far
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
    # order too; real fork pools of two and three workers whatever the host
    # has.  With --fail-cap 3 the kept failures of a failing sweep come from
    # several shares.  meta counts the workers' CPU time and peak RSS
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 3)
    cap = ["--fail-cap", "3"]
    dbv_bounds = ["--max-len", "3", "--pair-len", "1", "--triple-len", "1", *cap]
    ainf_bounds = ["--max-len", "4", "--order-slack", "1", *cap]
    runs = [
        ("end-two-term-complex", None, [], dbv_bounds, 0),
        ("end-two-term-complex", corrupt_mu, ["--assume-valid"], dbv_bounds, 1),
        ("ainf-mu3", None, [], ainf_bounds, 0),
        ("ainf-mu3", corrupt_mu3, ["--assume-valid"], ainf_bounds, 1),
        ("diag-into-upper-triangular", None, [], ["--max-len", "3", "--pair-len", "2", *cap], 0),
        ("diag-into-upper-triangular", corrupt_map, ["--assume-valid"],
         ["--max-len", "3", "--pair-len", "2", *cap], 1),
    ]
    workers = ["workers_cpu_s", "workers_peak_rss_mb"] if shufflebv.cli.resource else []
    for name, mutate, extra, bounds, code in runs:
        path = fixture_file(name, mutate=mutate)
        args = ["check", path, *extra, "--report", "json", *bounds]
        payloads = []
        for jobs in (1, 2, 3):
            assert main(args + ["--jobs", str(jobs)]) == code
            payload = json.loads(capsys.readouterr().out)
            meta = payload.pop("meta")
            for key in workers:
                assert type(meta[key]) in (int, float)
                assert meta[key] > 0 if jobs > 1 else meta[key] == 0, (name, jobs, key)
            assert payload["config"].pop("jobs") == jobs
            payloads.append(payload)
        assert payloads[0] == payloads[1] == payloads[2]
        failing = [a for a in payloads[0]["axioms"] if a["failures"]]
        assert bool(failing) == bool(code)
        assert all(len(a["failures"]) == min(3, a["failure_count"]) for a in failing)


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
