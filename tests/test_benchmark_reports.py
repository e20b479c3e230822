"""The benchmark's pinned reports, checked in-process.

The workload table and the report check are imported unchanged from
``perfbench/run.py``.  Each workload's ``check ... --report json`` runs
through ``shufflebv.cli.main`` here, and its report must pass the
benchmark's own check: exit code 0, the pinned per-axiom case counts and the
pinned digest of the report.  So a change that alters a report fails tier-1,
not only the benchmark.  The usable CPUs read 2 whatever the host has, so
``dbv-triples-j2`` takes the fork-pool path everywhere.
"""

import json
import sys
from pathlib import Path

import pytest

import shufflebv.bv
from shufflebv.algebra_io import builtin, render_document
from shufflebv.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, verify_report  # noqa: E402


@pytest.mark.parametrize("name", ["dbv-triples", "dbv-long", "ainf-order", "dbv-triples-j2"])
def test_pinned_report(name, capsys, monkeypatch):
    w = WORKLOADS[name]
    monkeypatch.chdir(ROOT)  # workload paths are relative to the checkout
    monkeypatch.setattr(shufflebv.bv, "_usable_cpus", lambda: 2)
    code = main(["check", w.path, *w.options, "--report", "json"])
    assert verify_report(w, code, capsys.readouterr().out) is None


@pytest.mark.parametrize("name", ["end-two-term-complex", "ainf-mu3"])
def test_benchmark_fixture_is_the_builtin(name):
    # the committed inputs are what ``shufflebv fixtures dump`` writes
    text = (ROOT / "perfbench" / "fixtures" / f"{name}.json").read_text()
    doc = render_document(builtin(name))
    assert json.loads(text) == doc
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
