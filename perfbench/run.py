"""syncword benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload bfs-random --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; syncword is imported from its src/.  With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass.  Human-readable lines come first; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Every answer
is checked by the benchmark's own oracle, and any wrong answer fails the run
(exit 1).  See NOTES.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict

import oracle
import spans
import workloads

DEFAULT_SEED = 0  # the seed whose lengths are committed in expected.json
# Set-up repeats: at least 3, more while they fit in 2 s, at most 25.
SETUP_REPEATS = (3, 2.0, 25)
# Timed passes over the whole workload: at least this many, more while they fit.
MIN_PASSES = 3
# Host-speed gauge (NOTES.md, "Steadiness"): the oracle's subset BFS on the
# Cerny automaton C_12, timed after every GAUGE_EVERY_S seconds of work.  A
# reported time is the measured time scaled by GAUGE_REFERENCE_S over the
# run's median gauge time.
GAUGE_TABLE = [[s % 12 + 1, 1 if s == 12 else s] for s in range(1, 13)]
GAUGE_EVERY_S = 0.25
GAUGE_REFERENCE_S = 0.020
OUT = workloads.HERE / "out"
EXPECTED = workloads.HERE / "expected.json"

# Per-layer metric -> (unit, span name, total within that span's records).
LAYER_METRICS = {
    "exact.bfs_s": ("s", "exact.bfs", "s"),
    "exact.bfs_calls": ("count", "exact.bfs", "calls"),
    "exact.pair_check_s": ("s", "exact.pair_check", "s"),
    "exact.pair_check_calls": ("count", "exact.pair_check", "calls"),
    "bench.generate_s": ("s", "bench.generate", "s"),
    "bench.discarded": ("count", "bench.generate", "discarded"),
    "satenc.encode_s": ("s", "satenc.encode", "s"),
    "satenc.encode_calls": ("count", "satenc.encode", "calls"),
    "satenc.vars": ("count", "satenc.encode", "vars"),
    "satenc.clauses": ("count", "satenc.encode", "clauses"),
    "satenc.solve_s": ("s", "satenc.solve", "s"),
    "satenc.decode_s": ("s", "satenc.decode", "s"),
    "automaton.verify_s": ("s", "automaton.verify", "s"),
    "driver.parse_s": ("s", "driver.parse", "s"),
    "satenc.dimacs_s": ("s", "satenc.dimacs", "s"),
    "satenc.dimacs_bytes": ("bytes", "satenc.dimacs", "bytes"),
    "aspenc.emit_s": ("s", "aspenc.emit", "s"),
    "aspenc.program_bytes": ("bytes", "aspenc.emit", "bytes"),
    "aspenc.decode_s": ("s", "aspenc.decode", "s"),
    "driver.probes": ("count", "driver.find_shortest", "probes"),
    "driver.probes_unsat": ("count", "driver.find_shortest", "probes_unsat"),
    "driver.external_s": ("s", "driver.external", "s"),
    "driver.external_calls": ("count", "driver.external", "calls"),
    "driver.child_cpu_s": ("s", "driver.external", "child_cpu_s"),
    "driver.self_s": ("s", "driver.find_shortest", "self_s"),
}


class Gauge:
    """Times of the host-speed gauge, sampled between set-ups and solves."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self) -> None:
        """Take a sample if GAUGE_EVERY_S seconds have passed since the last."""
        if time.perf_counter() - self.last >= GAUGE_EVERY_S:
            t0 = time.perf_counter()
            oracle.shortest_length(GAUGE_TABLE)
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    def scale(self) -> float:
        """Factor from measured seconds to seconds on the reference host."""
        return GAUGE_REFERENCE_S / statistics.median(self.samples)


def timed_setups(name: str, seed: int, gauge: Gauge):
    """Set up repeatedly; return the last set-up and every duration."""
    least, budget, most = SETUP_REPEATS
    durations, digests = [], set()
    while len(durations) < least or (sum(durations) < budget and len(durations) < most):
        gauge.tick()
        t0 = time.perf_counter()
        mods, setup = workloads.setup(name, seed)
        durations.append(time.perf_counter() - t0)
        digests.add(setup.digest())
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic: digests differ between repeats")
    return mods, setup, durations


def run_pass(mods, blocks, seconds: float, recorder=None, min_blocks: int = 1,
             gauge: Gauge | None = None):
    """Solve block after block, cycling, until at least `min_blocks` blocks are
    done and `seconds` have passed; before each solve, let `gauge` take its
    sample.  Returns [(solve, seconds, outcome or exception)] and the wall
    time of each block."""
    results, block_walls = [], []
    start = time.perf_counter()
    i = 0
    while True:
        block_start = time.perf_counter()
        for solve in blocks[i % len(blocks)]:
            if recorder:
                recorder.solve = f"{solve.instance}/{solve.method}"
            if gauge:
                gauge.tick()
            t0 = time.perf_counter()
            try:
                out = mods.driver.find_shortest(solve.automaton, solve.cfg)
            except Exception as exc:  # counted against error_rate
                out = exc
            results.append((solve, time.perf_counter() - t0, out))
        i += 1
        block_walls.append(time.perf_counter() - block_start)
        if i >= min_blocks and time.perf_counter() - start >= seconds:
            return results, block_walls


def check_results(results, committed: dict[str, int]) -> list[str | None]:
    """The oracle's verdict on each result: None when right, else the problem."""
    problems = []
    for solve, _, out in results:
        if isinstance(out, Exception):
            problem = f"raised {out!r}"
        elif out is None:
            problem = "reported not synchronizable"
        else:
            expected = list(solve.expected)
            if solve.instance in committed:
                expected.append(committed[solve.instance])
            problem = oracle.check(solve.automaton.delta, out.length, out.witness, expected)
        problems.append(problem and f"{solve.instance} [{solve.method}]: {problem}")
    return problems


def committed_lengths(name: str, seed: int, setup) -> tuple[dict[str, int], list[str]]:
    """Committed lengths for the default seed, or a digest mismatch error."""
    if seed != DEFAULT_SEED:
        return {}, []
    entry = json.loads(EXPECTED.read_text())[name]
    if entry["digest"] != setup.digest():
        return {}, [f"default-seed set-up digest {setup.digest()} != committed {entry['digest']}"]
    return entry["lengths"], []


def timed_passes(mods, blocks, seconds: float, gauge: Gauge, least: int = MIN_PASSES):
    """Solve every block in order, pass after pass: at least `least` passes,
    then more while another pass of the median length still ends within
    `seconds`.  Returns one list of (solve, seconds, outcome) per pass and the
    wall time of each pass."""
    passes, walls = [], []
    start = time.perf_counter()
    while len(passes) < least or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        t0 = time.perf_counter()
        passes.append(run_pass(mods, blocks, 0, min_blocks=len(blocks), gauge=gauge)[0])
        walls.append(time.perf_counter() - t0)
    return passes, walls


def percentile(values, pct: int) -> float:
    """The pct-th percentile (inclusive method); p100 is the maximum."""
    if pct == 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(name: str, seed: int, seconds: float):
    gauge = Gauge()
    mods, setup, durations = timed_setups(name, seed, gauge)
    committed, errors = committed_lengths(name, seed, setup)
    passes, walls = timed_passes(mods, setup.blocks, seconds, gauge)
    results = [r for res in passes for r in res]
    problems = check_results(results, committed)
    wrong = [p for p in problems if p]
    errors += wrong
    # Each solve's time is its median over the passes, in seconds on the
    # reference host: the shared host's speed drifts by up to half for
    # minutes at a time, and the gauge drifts with it (NOTES.md, "Steadiness").
    scale = gauge.scale()
    size = len(passes[0])
    raw = [statistics.median(res[j][1] for res in passes) for j in range(size)]
    times = [t * scale for t in raw]
    verified = [all(problems[p * size + j] is None for p in range(len(passes)))
                for j in range(size)]
    # Verified solves per second of each block at those times; the median over
    # blocks keeps one rare hard draw from swinging the whole run.
    rates, j = [], 0
    for block in setup.blocks:
        rates.append(sum(verified[j:j + len(block)]) / sum(times[j:j + len(block)]))
        j += len(block)
    pct = workloads.WORKLOADS[name].tail_pct
    tail = percentile(times, pct)
    metrics = {
        "solves_per_s": (statistics.median(rates), "1/s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(durations) * scale, "s"),
    }
    print(f"{name} seed {seed}: {size} solves x {len(passes)} passes, "
          f"{sum(walls):.3f} s (passes {min(walls):.4g}..{max(walls):.4g} s); "
          f"{len(durations)} set-ups, {min(durations):.4g}..{max(durations):.4g} s; "
          f"{len(gauge.samples)} gauge samples, median {statistics.median(gauge.samples):.4g} s")
    print(f"  measured: solve_s.p50 {statistics.median(raw):.6g} s, "
          f"setup_s {statistics.median(durations):.6g} s; reported x {scale:.4g}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<14} {value:.6g} {unit}")
    print(f"  {'error_rate':<14} {len(wrong) / len(results):.6g} ({len(wrong)}/{len(results)})")
    print(f"  solve_s.tail is p{pct} of the solves' times, with "
          f"{sum(t > tail for t in times)} solves beyond it")
    return metrics, len(results), errors


def traced(name: str, seed: int, seconds: float):
    mods = workloads.import_syncword()
    recorder = spans.Recorder(mods)
    recorder.install()
    try:
        setup = workloads.WORKLOADS[name].build(mods, seed)
    finally:
        recorder.uninstall()
    committed, errors = committed_lengths(name, seed, setup)
    blocks = setup.blocks[:workloads.WORKLOADS[name].trace_blocks]
    results, walls, solve_walls = [], {"plain": [], "traced": []}, {"plain": [], "traced": []}
    start = time.perf_counter()
    while not walls["traced"] or time.perf_counter() - start < seconds:
        # One plain and one traced pass over the same solves, back to back.
        for kind in ("plain", "traced"):
            if kind == "traced":
                recorder.pass_no += 1
                recorder.install()
            try:
                res, block_walls = run_pass(mods, blocks, 0,
                                            recorder if kind == "traced" else None,
                                            min_blocks=len(blocks))
            finally:
                recorder.uninstall()
            results += res
            walls[kind].append(sum(block_walls))
            solve_walls[kind].append(sum(dt for _, dt, _ in res))
    errors += [p for p in check_results(results, committed) if p]

    # Totals per pass (-1 is the traced set-up) and span name.
    totals = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for span, self_s in zip(recorder.spans, recorder.self_times()):
        t = totals[span.pass_no][span.name]
        t["s"] += span.end - span.start
        t["self_s"] += self_s
        t["calls"] += 1
        for key, value in span.counts.items():
            t[key] += value
    npasses = recorder.pass_no + 1
    metrics, unsteady = {}, []
    for metric, (unit, span_name, key) in LAYER_METRICS.items():
        if span_name in recorder.missing:
            continue
        per_pass = [totals[p][span_name][key] for p in range(npasses)]
        if unit == "s":
            value = totals[-1][span_name][key] + statistics.median(per_pass)
        else:
            if len(set(per_pass)) > 1:
                unsteady.append(metric)
            value = int(totals[-1][span_name][key] + per_pass[0])
        metrics[metric] = (value, unit)
    if "driver.external" not in recorder.missing:
        metrics["driver.external_wait_s"] = (
            metrics["driver.external_s"][0] - metrics["driver.child_cpu_s"][0], "s")
    overheads = [t - p for t, p in zip(walls["traced"], walls["plain"])]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")

    # Self times of every span under the solves of a traced pass add up to
    # the traced solve wall; compare that with the plain solve wall.
    accounted = statistics.median(sum(t["self_s"] for t in totals[p].values())
                                  for p in range(npasses))
    plain = statistics.median(solve_walls["plain"])
    print(f"{name} seed {seed}: {npasses} plain/traced pass pairs of "
          f"{sum(len(b) for b in blocks)} solves")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<24} {value:.6g} {unit}")
    missing = sorted(set(LAYER_METRICS) - set(metrics))
    if missing:
        print("  missing (call site renamed or result changed): " + ", ".join(missing))
    if unsteady:
        print("  counts that differ between passes: " + ", ".join(unsteady))
    print(f"  accounting: span self times {accounted:.6g} s vs plain solve wall {plain:.6g} s "
          f"(difference {accounted - plain:.6g} s, trace.overhead_s "
          f"{metrics['trace.overhead_s'][0]:.6g} s)")
    OUT.mkdir(exist_ok=True)
    recorder.write_jsonl(OUT / f"trace-{name}-{seed}.jsonl")
    return metrics, len(results), errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads.import_syncword()
    except ImportError as exc:
        print(f"cannot import syncword from this checkout: {exc}", file=sys.stderr)
        return 2
    # External solver inputs are written inside the checkout too.
    tempfile.tempdir = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    measure = traced if args.trace else end_to_end
    metrics, attempted, errors = measure(args.workload, args.seed, args.seconds)
    for line in errors[:20]:
        print(f"  WRONG: {line}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
