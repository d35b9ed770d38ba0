"""Checks of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs twice at the tiny scale under the tracer; the counts a
later change may cite must repeat exactly.  The command-line runs check
that every metric named in BENCHMARK.json is printed with its unit, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import colim.matrices as M  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT = (
    "confluence.search.nodes",
    "matrices.solve.calls",
    "diagrams.transition.steps",
    "matrices.snf.max_bits",
    "invariants.factor.calls",
)
# counters each workload must move, so a repeat of zeros cannot pass
EXERCISED = {
    "search": ("confluence.search.nodes", "matrices.solve.calls", "diagrams.transition.steps", "formats.emit.calls"),
    "elim": ("matrices.snf.max_bits", "matrices.rank.calls", "matrices.kernel.calls", "diagrams.validate.calls"),
    "check": ("invariants.factor.calls", "diagrams.transition.steps", "colimit.query.calls", "formats.parse.calls"),
}
TINY_OPS = 40
NO_DEADLINE_S = 600.0  # counts must not depend on where an alarm lands
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_counts(workload: str, workdir: Path) -> dict:
    rec = tracer.Recorder()
    saved = tracer.install(rec)
    try:
        ops = workloads.make_ops(workload, 3, workdir, workloads.TINY)
        tally = run.run_ops(ops, NO_DEADLINE_S, limit=TINY_OPS, rec=rec)
    finally:
        tracer.uninstall(saved)
    assert tally.attempted == TINY_OPS
    assert tally.failed == 0, tally.problems
    return {name: value for name, (value, _) in tracer.layer_metrics(rec, 0.0).items()}


@pytest.mark.parametrize("workload", tuple(run.DEADLINE_S))
def test_counts_repeat_exactly(workload, tmp_path):
    first = traced_counts(workload, tmp_path)
    second = traced_counts(workload, tmp_path)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    for name in EXERCISED[workload]:
        assert first[name] > 0, name


def test_screened_matrices_end_within_the_screen_bound():
    rng = random.Random(5)
    for n in (3, 5, 7):
        for draw in (workloads._full, workloads._deficient):
            m = workloads._screened(rng, n, draw)
            top = workloads.snf_growth(m)
            s, _, _ = M.snf(M.Matrix(m))
            assert max(abs(x).bit_length() for row in s.entries for x in row) <= top <= workloads.GROWTH_CAP_BITS


def test_tracer_restores_every_attribute(tmp_path):
    before = {
        (id(owner), name): vars(owner)[name]
        for entries in tracer.LAYERS.values()
        for name, owners, _ in entries
        for owner in owners
        if name in vars(owner)
    }
    traced_counts("check", tmp_path)
    for entries in tracer.LAYERS.values():
        for name, owners, _ in entries:
            for owner in owners:
                if name in vars(owner):
                    assert vars(owner)[name] is before[(id(owner), name)]


def _run(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1", "--seconds", "1", *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
