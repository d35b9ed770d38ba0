"""Benchmark of the colim toolkit: one command, one closed-loop client.

    python3 perfbench/run.py --workload {search,elim,check} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One process and one thread run ops back to back, each after
the previous one returned.  Every op's answer is checked against an
oracle that shares no code with the layer under test.  An op fails if it
raises, returns a rejected answer, or runs past the workload's deadline
(``signal.setitimer`` in this thread; the run goes on).

``--trace 0`` prints the end-to-end metrics: the run's ops are split into
``BLOCKS`` blocks of consecutive whole cycles, and each op's latency is
corrected for the speed of the host during its block (see
:func:`reference`).
``--trace 1`` runs a fixed
number of ops untraced (at most half the time), replays the same ops
with every layer wrapped by :mod:`tracer`, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"

# Per-op deadlines, far above every op's cost at the seed, so that no op
# reaches one: a hit is a program fault, not part of the workload.
# search: exhausting an x2/x3-like pair takes up to 2.4 s.  elim: the
# screened matrices (see workloads.snf_growth) take at most tens of ms.
# check: the slowest op takes about 0.1 s.
DEADLINE_S = {"search": 20.0, "elim": 5.0, "check": 5.0}
# Ops in a traced run: whole cycles of each workload's op mix, so the
# counts of two traced runs of one seed can be compared exactly.
TRACE_OPS = {"search": 204, "elim": 420, "check": 1400}
SETUP_SAMPLES = 11
BLOCKS = 9
# The host-speed reference runs between ops every REF_EVERY_S of wall
# time.  Op timings are scaled to the host speed at which one reference
# run takes REF_NOMINAL_S, about its median on the machine the seed's
# numbers were measured on (see README.md).
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.0035
WARMUP_S = 1.0


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so that no ``except Exception``
    in the program can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


class Tally:
    def __init__(self):
        self.latencies: list = []
        self.cycle_of: list = []  # cycle index of each op
        self.refs: list = []  # (ops run before it, reference time)
        self.setup_times: list = []
        self.outcomes = Counter()  # ok / deadline / error / wrong
        self.by_kind: dict = {}
        self.problems: list = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_ops(ops, deadline: float, seconds: float = None, limit: int = None, rec=None, setup_samples: int = 0) -> Tally:
    """Run ops until ``limit`` ops ran, or until the first end of a
    cycle (a None from ``ops``) after ``seconds`` of wall time.

    With ``setup_samples``, also time that many fresh-interpreter imports,
    spread evenly over the run between ops: the machine's speed drifts over
    seconds, and samples taken together would all see the same drift.
    """
    signal.signal(signal.SIGALRM, _alarm)
    tally = Tally()
    cycle = 0
    start, last_ref = perf_counter(), float("-inf")
    for op in ops:
        elapsed = perf_counter() - start
        if op is None:
            if seconds is not None and elapsed >= seconds:
                break
            cycle += 1
            continue
        if limit is not None and tally.attempted >= limit:
            break
        if len(tally.setup_times) < setup_samples and elapsed >= len(tally.setup_times) * seconds / setup_samples:
            tally.setup_times.append(time_setup())
        if perf_counter() - last_ref >= REF_EVERY_S:
            tally.refs.append((tally.attempted, reference()))
            last_ref = perf_counter()
        if rec is not None:
            rec.begin_op(tally.attempted)
        outcome, result = "ok", None
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            outcome = "deadline"
        except Exception as exc:  # a program fault on valid input: count it, keep going
            outcome = "error"
            tally.problems.append(f"{op.kind}: raised {exc!r}")
        latency = perf_counter() - t0
        if rec is not None:
            rec.end_op()
        if outcome == "ok":
            problem = op.check(result)
            if problem:
                outcome = "wrong"
                tally.problems.append(f"{op.kind}: {problem}")
        tally.latencies.append(latency)
        tally.cycle_of.append(cycle)
        tally.outcomes[outcome] += 1
        tally.by_kind.setdefault(op.kind, Counter())[outcome] += 1
    while len(tally.setup_times) < setup_samples:
        tally.setup_times.append(time_setup())
    return tally


_REF_RNG = random.Random("reference")
_REF_MATRICES = [[[_REF_RNG.randint(-9, 9) for _ in range(6)] for _ in range(6)] for _ in range(40)]


def reference() -> float:
    """Wall time of a fixed pure-Python integer workload that shares no
    code with colim: exact elimination and products on 6 x 6 matrices,
    the kind of work the program does.

    A shared host's speed can drift by up to 2x for seconds at a time.
    Timed before the first op and then between ops every REF_EVERY_S, the
    reference follows that drift (over a block of about 3 s its time and
    the ops' time correlate at about 0.95), so dividing by it removes most
    of the drift from the op timings.
    """
    t0 = perf_counter()
    for m in _REF_MATRICES:
        oracles.bareiss_det(m)
        oracles.bareiss_rank(m)
        oracles.matmul(m, m)
    return perf_counter() - t0


def time_setup() -> float:
    """Wall time of a fresh interpreter importing ``colim.cli``, as every
    CLI invocation does.  The files are already cached: this process
    imported the same modules."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import colim.cli"], env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def blocks(tally: Tally) -> list:
    """Indices of the ops, in at most ``BLOCKS`` groups of consecutive
    whole cycles with as equal a number of cycles as possible."""
    cycles = tally.cycle_of[-1] + 1
    count = min(BLOCKS, cycles)
    groups = [[] for _ in range(count)]
    for i, c in enumerate(tally.cycle_of):
        groups[c * count // cycles].append(i)
    return groups


def end_to_end(tally: Tally) -> dict:
    """End-to-end metrics.  Each op's latency is scaled by REF_NOMINAL_S
    over the mean reference time taken during the op's block."""
    lat = []
    all_refs = [t for _, t in tally.refs]
    for group in blocks(tally):
        refs = [t for at, t in tally.refs if group[0] <= at <= group[-1]] or all_refs
        slow = statistics.mean(refs) / REF_NOMINAL_S
        lat += [tally.latencies[i] / slow for i in group]
    completed = tally.outcomes["ok"]
    return {
        "ops_per_s": (completed / sum(lat), "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "ok_frac": (completed / tally.attempted, "1"),
        "setup_s": (statistics.median(tally.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def report(tally: Tally, correct: bool, metrics: dict) -> None:
    for kind in sorted(tally.by_kind):
        c = tally.by_kind[kind]
        print(f"# {kind}: " + " ".join(f"{k}={c[k]}" for k in sorted(c)))
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(DEADLINE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "colim" / "cli.py").is_file():
        print(f"error: no colim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    deadline = DEADLINE_S[args.workload]
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm = workloads.make_ops(args.workload, args.seed, workdir, workloads.TINY)
        run_ops(warm, deadline, seconds=WARMUP_S)

        def ops():
            return workloads.make_ops(args.workload, args.seed, workdir)

        if not args.trace:
            workloads.SCREENED.clear()
            tally = run_ops(ops(), deadline, seconds=args.seconds, setup_samples=SETUP_SAMPLES)
            for n, (kept, redrawn) in sorted(workloads.SCREENED.items()):
                print(f"# elim screen n={n}: kept {kept}, redrawn {redrawn}")
            refs = [t for _, t in tally.refs]
            print(f"# host reference: {len(refs)} runs, median {statistics.median(refs) * 1e3:.3f} ms (nominal {REF_NOMINAL_S * 1e3} ms)")
            report(tally, not tally.problems, end_to_end(tally))
            return 0
        plain = run_ops(ops(), deadline, seconds=args.seconds / 2, limit=TRACE_OPS[args.workload])
        rec = tracer.Recorder()
        saved = tracer.install(rec)
        try:
            traced = run_ops(ops(), deadline, limit=plain.attempted, rec=rec)
        finally:
            tracer.uninstall(saved)
        OUTDIR.mkdir(exist_ok=True)
        spans = OUTDIR / f"spans-{args.workload}-{args.seed}.tsv"
        rec.write(spans)
        print(f"# spans: {spans} ({rec.dropped} beyond the cap not stored)")
        overhead = traced.busy_s / plain.busy_s - 1
        report(traced, not (plain.problems or traced.problems), tracer.layer_metrics(rec, overhead))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
