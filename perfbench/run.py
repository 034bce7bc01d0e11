"""Benchmark entry point: one closed-loop client calling the powerdom CLI in-process.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload structured --seed 1 --seconds 20 --trace 0

The run sets up (generates the seeded corpus, times ``import powerdom`` in
a child interpreter, runs one warm-up op) seven times and keeps the
median, then repeats whole cycles of the workload's ops until
``--seconds`` have passed and the tail percentile has ten samples beyond
it. Times are scaled to a nominal host speed by a reference loop timed
next to every op (:mod:`speed`). Every output is checked after the timed
region. The last line of stdout is one JSON object; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead of the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
# times ``import powerdom`` in a fresh interpreter, scaled by the child's own
# reference passes, since it may run on the other CPU
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; import speed; "
                "b = speed.reference(); t = time.perf_counter(); import powerdom; "
                "t = time.perf_counter() - t; print(speed.scaled(t, b, speed.reference()))")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Outcomes:
    """Distinct outputs per op with how often each occurred; identical
    outputs of a deterministic program are checked once."""

    def __init__(self, count: int) -> None:
        self.seen: list[dict[tuple, list]] = [{} for _ in range(count)]

    def add(self, index: int, rc: int, stdout: str, parsed: object, error: str | None) -> None:
        slot = self.seen[index].setdefault((rc, stdout, error), [0, parsed])
        slot[0] += 1

    def attempted(self) -> int:
        return sum(n for per_op in self.seen for n, _ in per_op.values())

    def failures(self, ops: list[workloads.Op]) -> tuple[int, list[str]]:
        failed, notes = 0, []
        for op, per_op in zip(ops, self.seen):
            for (rc, stdout, error), (times, parsed) in per_op.items():
                problems = [error] if error else op.check(rc, stdout, parsed)
                if problems:
                    failed += times
                    notes.append(f"{op.label}: {'; '.join(problems)}")
        return failed, notes


def run_op(cli, op: workloads.Op) -> tuple[float, int, str, object, str | None]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        rc = cli.main(op.argv, stdout=out, stderr=err)
        parsed = op.read_back(out.getvalue()) if op.read_back and rc == 0 else None
        error = None
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        rc, parsed, error = -1, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, rc, out.getvalue(), parsed, error


def beyond(samples: int, percentile: float) -> int:
    """Samples above the nearest-rank ``percentile`` of ``samples``."""
    return samples - math.ceil(percentile / 100 * samples)


class Cycles:
    """What :func:`run_cycles` measured: wall latencies per op, the same
    scaled to the nominal host speed (:mod:`speed`), and the wall duration
    of each cycle."""

    def __init__(self, ops: int) -> None:
        self.wall: list[list[float]] = [[] for _ in range(ops)]
        self.scaled: list[list[float]] = [[] for _ in range(ops)]
        self.durations: list[float] = []


def run_cycles(cli, ops: list[workloads.Op], seconds: float | None, cycles: int | None,
               outcomes: Outcomes, rec: spans.Recorder | None = None,
               tail_cap: float = 0.0) -> Cycles:
    """Whole cycles until ``seconds`` have passed and the ``tail_cap``
    percentile has TAIL_BEYOND samples beyond it, or exactly ``cycles``.
    The reference loop runs before the first op and after each op."""
    got = Cycles(len(ops))
    started = time.perf_counter()
    before = speed.reference()
    while True:
        cycle_started = time.perf_counter()
        for i, op in enumerate(ops):
            if rec is not None:
                index = rec.begin(spans.OP_SPAN, time.perf_counter())
            took, rc, stdout, parsed, error = run_op(cli, op)
            if rec is not None:
                rec.finish(index, time.perf_counter())
            after = speed.reference()
            got.wall[i].append(took)
            got.scaled[i].append(speed.scaled(took, before, after))
            before = after
            outcomes.add(i, rc, stdout, parsed, error)
        now = time.perf_counter()
        got.durations.append(now - cycle_started)
        if cycles is not None:
            if len(got.durations) >= cycles:
                return got
        elif (now - started >= seconds
              and beyond(len(ops) * len(got.durations), tail_cap) >= TAIL_BEYOND):
            return got


def set_up(args: argparse.Namespace, src: str, directory: str,
           table: dict) -> tuple[workloads.Workload, float]:
    """Build and write the corpus, time the import, run the warm-up op.

    Returns the workload and the set-up time at the nominal host speed:
    corpus generation, plus the import as timed inside a child interpreter
    (its start-up excluded), plus the warm-up op, each scaled by the
    reference passes around it.
    """
    from powerdom import cli

    before = speed.reference()
    started = time.perf_counter()
    work = workloads.WORKLOADS[args.workload](args.seed, table)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in work.files.items():
        paths[name] = os.path.join(directory, name)
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    for op in work.ops:
        op.argv = [paths.get(a, a) for a in op.argv]
    generate_s = speed.scaled(time.perf_counter() - started, before, speed.reference())
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE, src], capture_output=True,
                           text=True, timeout=120, check=True)
    import_s = float(probe.stdout)
    before = speed.reference()
    warm_up_s, rc, _, _, error = run_op(cli, work.ops[0])
    if rc != 0:
        raise SystemExit(f"warm-up op {work.ops[0].label} failed: exit {rc} {error or ''}")
    return work, generate_s + import_s + speed.scaled(warm_up_s, before, speed.reference())


def tail(values: list[float], cap: float) -> tuple[float, float, int]:
    """Highest listed percentile up to ``cap`` with at least TAIL_BEYOND
    samples beyond it (nearest rank); returns percentile, value, samples
    beyond. :func:`run_cycles` runs until the cap itself qualifies."""
    ordered = sorted(values)
    chosen = PERCENTILES[0]
    for p in PERCENTILES:
        if p <= cap and beyond(len(ordered), p) >= TAIL_BEYOND:
            chosen = p
    rank = math.ceil(chosen / 100 * len(ordered))
    return chosen, ordered[rank - 1], len(ordered) - rank


def end_to_end(work: workloads.Workload, latencies: list[list[float]],
               setup_s: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """All times are scaled to the nominal host speed. Percentiles and
    slope_4x are taken after each op's latencies are replaced by their
    mean: over a few seconds the host's speed still drifts by more than
    the scaling removes, so the median of an op's latencies can land on
    either side of it, while the mean moves with it smoothly."""
    flat = [t for per_op in latencies for t in per_op]
    smoothed = [statistics.fmean(per_op) for per_op in latencies for _ in per_op]
    percentile, tail_value, after = tail(smoothed, work.tail_cap)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(flat) / sum(flat), "1/s"),
        "latency_p50_ms": (statistics.median(smoothed) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "slope_4x": (slope(work.ops, latencies), "ratio"),
    }
    notes = [f"latency_tail_ms is p{percentile:g} of {len(flat)} samples, {after} beyond it"]
    return metrics, notes


def slope(ops: list[workloads.Op], latencies: list[list[float]]) -> float:
    """Geometric mean over op kinds of mean latency at 4n over mean latency
    at n. One ratio over a mix of kinds would hinge on the mix; the
    geometric mean is the usual average of ratios."""
    by_kind: dict[tuple[str, str], list[float]] = {}
    for op, per_op in zip(ops, latencies):
        if op.slope is not None:
            by_kind.setdefault(op.slope, []).extend(per_op)
    kinds = sorted({kind for kind, _ in by_kind})
    logs = [math.log(statistics.fmean(by_kind[kind, "4n"])
                     / statistics.fmean(by_kind[kind, "n"])) for kind in kinds]
    return math.exp(statistics.fmean(logs))


def traced(cli, work: workloads.Workload, seconds: float, outcomes: Outcomes,
           spans_path: str) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Traced cycles, each followed by the same cycle untraced, so both
    halves see the same drift in machine speed, until ``seconds`` have
    passed in both together; the difference of their times is the tracing
    overhead."""
    rec = spans.Recorder()
    traced_s = plain_s = 0.0
    cycles = 0
    while cycles == 0 or traced_s + plain_s < seconds:
        undo = spans.instrument(rec, time.perf_counter)
        try:
            traced_s += run_cycles(cli, work.ops, None, 1, outcomes, rec).durations[0]
        finally:
            spans.restore(undo)
        plain_s += run_cycles(cli, work.ops, None, 1, outcomes).durations[0]
        cycles += 1
    ops = cycles * len(work.ops)
    rec.write(spans_path)
    values = spans.layer_metrics(rec, ops)
    values["trace.overhead_s"] = (traced_s - plain_s) / ops
    metrics = {}
    for name, value in values.items():
        if name.endswith("_s"):
            unit = "s/op"
        elif name.endswith(("_ratio", "_share")):
            unit = "ratio"
        elif name.endswith("bytes"):
            unit = "bytes/op"
        else:
            unit = "count/op"
        metrics[name] = (value, unit)
    notes = [
        f"traced {cycles} cycles ({ops} ops) in {traced_s:.3f} s, untraced {plain_s:.3f} s: "
        f"tracing overhead {traced_s - plain_s:.3f} s ({(traced_s - plain_s) / plain_s:.1%})",
        f"{len(rec.start)} spans written to {spans_path}",
        f"layer self times account for {values['trace.accounted_share']:.1%} of traced op time",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "powerdom", "__init__.py")):
        print("perfbench: no src/powerdom here; run from the root of a powerdom checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from powerdom import cli

    table = workloads.load_expected()
    out_dir = os.path.join(root, OUT_DIR)
    directory = os.path.join(out_dir, f"corpus-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            work, took = set_up(args, src, directory, table)
            setups.append(took)
        setup_s = statistics.median(setups)
        outcomes = Outcomes(len(work.ops))
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv.gz")
            metrics, notes = traced(cli, work, args.seconds, outcomes, spans_path)
        else:
            got = run_cycles(cli, work.ops, args.seconds, None, outcomes,
                             tail_cap=work.tail_cap)
            metrics, notes = end_to_end(work, got.scaled, setup_s)
            wall = [t for per_op in got.wall for t in per_op]
            notes[:0] = [
                f"{len(got.durations)} cycles of {len(work.ops)} ops in "
                f"{sum(got.durations):.3f} s; scaled set-ups "
                f"{', '.join(f'{s:.4f}' for s in setups)} s",
                f"wall time: {len(wall) / sum(wall):.4g} ops/s, scaled to the nominal speed: "
                f"{metrics['throughput_ops_s'][0]:.4g} ops/s",
            ]
            notes.append("mean latency per op, scaled and wall:")
            for op, scaled, wall_per_op in zip(work.ops, got.scaled, got.wall):
                notes.append(f"  {statistics.fmean(scaled) * 1000:10.3f} ms "
                             f"{statistics.fmean(wall_per_op) * 1000:10.3f} ms  {op.label}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    attempted = outcomes.attempted()
    failed, problems = outcomes.failures(work.ops)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"error_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
