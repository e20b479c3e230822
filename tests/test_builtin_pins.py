"""Pinned reports and ``eval`` outputs of every builtin fixture.

Each ``check --report json`` runs through ``shufflebv.cli.main`` at small
bounds, and the sha256 of its report without ``meta`` and ``input`` (the
digest of ``perfbench/run.py``) must equal the pinned value, as must its
exit code.  ``--report text`` and ``eval`` outputs are pinned on
``dual-numbers``, whose letter ids sort in another order than its basis
(``eps`` < ``one``), and on ``full-matrix-2``, whose letter ids have several
characters.  Two pinned reports have failure witnesses on multi-character
letters: each fixture with the sign of one ``mu2`` entry flipped, checked
under ``--assume-valid``.  Every pin was taken before words were stored as
strings, so any change in how words are stored, ordered or rendered that
reaches a report fails here.  Two failing morphisms, checked under
``--assume-valid`` at the default bounds, pin the functoriality witnesses at
``--jobs`` 1 and 2; they were taken while the check still evaluated through
element arithmetic.
"""

import hashlib
import json

import pytest

from shufflebv.algebra_io import builtin, builtin_names, render_document
from shufflebv.cli import main

SMALL = ["--max-len", "4", "--pair-len", "2", "--triple-len", "1", "--order-slack", "1"]


def _write(tmp_path, name, mutate=None):
    doc = render_document(builtin(name))
    if mutate:
        mutate(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _negate_mu2(inputs):
    """A mutation that negates the mu2 entry of ``inputs``."""

    def mutate(doc):
        for entry in doc["operations"]["mu2"]:
            if entry["inputs"] == list(inputs):
                entry["output"][0][1] = str(-int(entry["output"][0][1]))
                return
        raise AssertionError(f"no mu2 entry at {inputs}")

    return mutate


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(text: str) -> str:
    report = json.loads(text)
    stable = {k: v for k, v in report.items() if k not in ("meta", "input")}
    return _sha(json.dumps(stable, sort_keys=True, separators=(",", ":")))


# (exit code, digest) of ``check <fixture> SMALL --report json``
CHECK_PINS = {
    "ainf-mu3": (0, "c40862e3d8081bfe9c2ecd5b8866ccca6626c789bc5c45d9ec7cd38e321d2e0f"),
    "diag-into-upper-triangular": (0, "007e04edd938a1e38144bb0849d6a623a127e89d5503a5258b8fb2cec05e07ae"),
    "diagonal-2": (0, "34991a7620d939fcde02f64a9760f7cb45addb4f0654b2a739c354a9210d61e5"),
    "dual-numbers": (0, "34991a7620d939fcde02f64a9760f7cb45addb4f0654b2a739c354a9210d61e5"),
    "dual-numbers-odd": (0, "34991a7620d939fcde02f64a9760f7cb45addb4f0654b2a739c354a9210d61e5"),
    "end-two-term-complex": (0, "ea80f7c02bfa4bdba3a85ab39ac9b52f8b31218c991e7df2ad251551c9e03240"),
    "full-matrix-2": (0, "ea80f7c02bfa4bdba3a85ab39ac9b52f8b31218c991e7df2ad251551c9e03240"),
    "upper-triangular-2": (0, "8638e547dc7bcf034f7409bd87e444b91bdc20fecaa379031fb4210b63d85884"),
}

# (exit code, sha256 of stdout) of ``check <fixture> SMALL --report text``
TEXT_PINS = {
    "dual-numbers": (0, "1ccbc37c14aaf53a72d926afa384a4394343c495766db31260bc8650b33cf65d"),
    "full-matrix-2": (0, "3e33730f17d3fe1887f1dd843eb743caee2e2a680e6fcd80d921eb4d20687c45"),
}

# fixture -> the mu2 entry negated, then the exit code, the digest of the json
# report and the sha256 of the text report of ``check --assume-valid``
FLIPPED_PINS = {
    "dual-numbers": (
        ("one", "eps"),
        1,
        "314a077a8bd2e725c53209d7f54eacc7cf2291232f821283ca03e8f87ce056ed",
        "a9d726d21d559dd2ca611dbfe2109e3fd0268232e1ff5fa3d2da43860b45ea6c",
    ),
    "full-matrix-2": (
        ("e12", "e21"),
        1,
        "b89b6b1ec37c82f8c1509b75fe62c584e2df05b5e33dccaa0681d35d11d4616f",
        "ce3f891681b30aba4b376eec8ed72fc677e3c8789d40aa236669c2bef255c2e7",
    ),
}

# morphism -> its map (letter -> output terms), then the exit code, the
# (name, cases, failure_count) of each sweep and the digest of the json report
# without ``config.jobs`` of ``check --assume-valid`` at the default bounds
FAILING_MORPHISMS = {
    # the a <-> e swap commutes with neither d nor the product (as every
    # degree-0 letterwise map, it commutes with the shuffle product)
    "end-two-term-complex-swap": (
        ("end-two-term-complex", "end-two-term-complex",
         {"a": [["e", "1"]], "b": [["b", "1"]], "c": [["c", "1"]], "e": [["a", "1"]]}),
        1,
        [("morphism_commutes_d", 1365, 1302), ("morphism_commutes_delta", 1365, 1244),
         ("morphism_commutes_shuffle", 7225, 0)],
        "172c09e6deca83ac179d3e1e41d41ac67ae20c68d501c8fc4ea42da6f869516d",
    ),
    # d22 -> e12 is not multiplicative: its witnesses are target words
    "diag-into-upper-triangular-d22-e12": (
        ("diagonal-2", "upper-triangular-2", {"d11": [["e11", "1"]], "d22": [["e12", "1"]]}),
        1,
        [("morphism_commutes_d", 63, 0), ("morphism_commutes_delta", 63, 48),
         ("morphism_commutes_shuffle", 225, 0)],
        "a3fe0aa1b816c4c4c5cd5b2e4fd40a4ecd57c62041705765ac73851634e79e4c",
    ),
}

# ``eval`` arguments -> the line it prints
EVAL_PINS = {
    ("dual-numbers", "shuffle", "one,eps", "eps,one"): (
        "eps(x)one(x)eps(x)one + one(x)eps(x)one(x)eps"
    ),
    ("dual-numbers", "shuffle", "eps", "one,eps,one"): (
        "eps(x)one(x)eps(x)one - one(x)eps(x)one(x)eps"
    ),
    ("dual-numbers", "d", "eps,one,eps"): "0",
    ("dual-numbers", "delta", "one,eps,one"): "eps(x)one - one(x)eps",
    ("dual-numbers", "delta", "eps,eps,one,one"): "0",
    ("dual-numbers", "bracket", "one,eps", "one"): "0",
    ("dual-numbers", "bracket", "eps,one", "one,eps"): "0",
    ("dual-numbers", "order-defect", "one", "eps,one", "one"): "0",
    ("full-matrix-2", "shuffle", "e12,e21", "e11,e22"): (
        "e11(x)e12(x)e21(x)e22 - e11(x)e12(x)e22(x)e21 + "
        "e11(x)e22(x)e12(x)e21 - e12(x)e11(x)e21(x)e22 + "
        "e12(x)e11(x)e22(x)e21 + e12(x)e21(x)e11(x)e22"
    ),
    ("full-matrix-2", "shuffle", "e22", "e21,e12"): (
        "e21(x)e12(x)e22 - e21(x)e22(x)e12 + e22(x)e21(x)e12"
    ),
    ("full-matrix-2", "d", "e12,e21"): "0",
    ("full-matrix-2", "delta", "e12,e21,e11"): "e11(x)e11 - e12(x)e21",
    ("full-matrix-2", "delta", "e21,e12,e22,e21"): "e22(x)e22(x)e21",
    ("full-matrix-2", "bracket", "e12,e21", "e21"): "-e11(x)e21 + e22(x)e21",
    ("full-matrix-2", "bracket", "e11,e12", "e21,e22"): (
        "-e11(x)e11(x)e22 - e11(x)e21(x)e12 + e11(x)e22(x)e22 + "
        "e21(x)e11(x)e12 + e21(x)e12(x)e22 - e21(x)e22(x)e12"
    ),
    ("full-matrix-2", "order-defect", "e12", "e21,e11", "e22"): "0",
}


@pytest.mark.parametrize("name", builtin_names())
def test_check_json_pinned(name, tmp_path, capsys):
    code = main(["check", _write(tmp_path, name), *SMALL, "--report", "json"])
    assert (code, _report_digest(capsys.readouterr().out)) == CHECK_PINS[name]


@pytest.mark.parametrize("name", sorted(TEXT_PINS))
def test_check_text_pinned(name, tmp_path, capsys):
    code = main(["check", _write(tmp_path, name), *SMALL, "--report", "text"])
    assert (code, _sha(capsys.readouterr().out)) == TEXT_PINS[name]


@pytest.mark.parametrize("name", sorted(FLIPPED_PINS))
def test_failure_witnesses_pinned(name, tmp_path, capsys):
    inputs, *pins = FLIPPED_PINS[name]
    path = _write(tmp_path, name, mutate=_negate_mu2(inputs))
    code = main(["check", path, *SMALL, "--assume-valid", "--report", "json"])
    digest = _report_digest(capsys.readouterr().out)
    assert main(["check", path, *SMALL, "--assume-valid", "--report", "text"]) == code
    assert [code, digest, _sha(capsys.readouterr().out)] == pins


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(FAILING_MORPHISMS))
def test_failing_functoriality_pinned(name, jobs, tmp_path, capsys):
    # at --jobs 2 through a real fork pool where two CPUs are usable, so the
    # workers' failures travel back to the parent
    (source, target, images), *pins = FAILING_MORPHISMS[name]
    doc = {"format": 1, "kind": "morphism", "name": name, "source": source, "target": target,
           "map": [{"inputs": [a], "output": out} for a, out in images.items()]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path), "--assume-valid", "--report", "json", "--jobs", str(jobs)])
    report = json.loads(capsys.readouterr().out)
    assert report["config"].pop("jobs") == jobs
    sweeps = [(r["name"], r["cases"], r["failure_count"]) for r in report["axioms"]]
    assert [code, sweeps, _report_digest(json.dumps(report))] == pins


@pytest.mark.parametrize("key", sorted(EVAL_PINS))
def test_eval_pinned(key, tmp_path, capsys):
    name, op, *words = key
    args = ["eval", _write(tmp_path, name), "--op", op]
    for flag, w in zip(("--x", "--y", "--z"), words):
        args += [flag, w]
    assert main(args) == 0
    assert capsys.readouterr().out == EVAL_PINS[key] + "\n"
