"""Benchmark harness: seeded instance sweeps with cross-method agreement.

Emits one CSV row per (instance, method) plus per-cell aggregate rows.  All
non-timing fields are deterministic functions of the master seed, so reruns
reproduce them byte-identically.  Any cross-method length disagreement aborts
the run: the harness doubles as a soundness oracle.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from syncword.automaton import Automaton, generate_cerny, generate_random
from syncword.driver import SearchConfig, SearchOutcome, find_shortest
from syncword.errors import SoundnessError
from syncword.exact import check_synchronizable

CSV_COLUMNS = [
    "row_type",      # instance | aggregate
    "instance",      # e.g. n5-k2-i0 (empty on aggregate rows)
    "n",
    "k",
    "seed",          # per-instance generator seed (master seed on aggregates)
    "method",
    "length",        # aggregate rows: mean length over the cell
    "total_time_ms",
    "probes",        # "c:verdict|c:verdict|..." (deterministic)
    "probe_times_ms",  # "t|t|..." aligned with probes (timing)
    "memory_kb",     # peak RSS of the largest solver process; empty in-process
    "discarded",     # aggregate rows: non-synchronizable draws discarded
]


@dataclass
class BenchCell:
    n: int
    k: int
    count: int
    family: str = "random"  # "random" | "cerny"


def _derive_seed(master: int, draw_index: int) -> int:
    # Fixed affine derivation keeps instance seeds reproducible and disjoint
    # across draws without depending on hash randomization.
    return master * 1_000_003 + draw_index


def generate_instances(cell: BenchCell, master_seed: int, start_draw: int = 0
                       ) -> tuple[list[tuple[int, Automaton]], int, int]:
    """Draw `count` synchronizable automata, discarding the rest.

    Returns (list of (seed, automaton), discarded count, next draw index).
    """
    if cell.family == "cerny":
        # Deterministic worst-case family; no seeds, no discards.
        return [(0, generate_cerny(cell.n))] * cell.count, 0, start_draw
    out: list[tuple[int, Automaton]] = []
    discarded = 0
    draw = start_draw
    while len(out) < cell.count:
        seed = _derive_seed(master_seed, draw)
        draw += 1
        a = generate_random(cell.n, cell.k, seed)
        if check_synchronizable(a):
            out.append((seed, a))
        else:
            discarded += 1
    return out, discarded, draw


def bench_run(cells: list[BenchCell], methods: list[str], seed: int,
              solver_cmd: str | None = None, time_budget: float | None = None,
              encoding: str = "image") -> str:
    """Run every method on every generated instance and render the CSV."""
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"need one or more distinct methods, got {','.join(methods)!r}")
    for cell in cells:
        if cell.count < 1:
            raise ValueError(f"cell ({cell.n},{cell.k}) has count {cell.count}, need >= 1")
    configs = [SearchConfig(method=m, solver_cmd=solver_cmd, time_budget=time_budget,
                            encoding=encoding) for m in methods]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    aggregates: list[list[str]] = []
    draw = 0
    for cell in cells:
        instances, discarded, draw = generate_instances(cell, seed, draw)
        per_method_times: dict[str, list[float]] = {m: [] for m in methods}
        per_method_lengths: dict[str, list[int]] = {m: [] for m in methods}
        for idx, (inst_seed, a) in enumerate(instances):
            inst_id = f"n{cell.n}-k{cell.k}-i{idx}"
            lengths: dict[str, int] = {}
            for method, cfg in zip(methods, configs):
                outcome = find_shortest(a, cfg)
                if outcome is None:
                    raise SoundnessError(
                        f"{inst_id}: instance passed the synchronizability check "
                        f"but method {method} reported not-synchronizable"
                    )
                lengths[method] = outcome.length
                per_method_times[method].append(outcome.total_time * 1000)
                per_method_lengths[method].append(outcome.length)
                writer.writerow(_instance_row(inst_id, cell, inst_seed, method, outcome))
            if len(set(lengths.values())) > 1:
                raise SoundnessError(
                    f"{inst_id}: methods disagree on shortest length: {lengths}"
                )
        for method in methods:
            times = per_method_times[method]
            lens = per_method_lengths[method]
            aggregates.append([
                "aggregate", "", str(cell.n), str(cell.k), str(seed), method,
                f"{sum(lens) / len(lens):.2f}",
                f"{sum(times) / len(times):.3f}",
                "", "", "", str(discarded),
            ])
    for row in aggregates:
        writer.writerow(row)
    return buf.getvalue()


def _instance_row(inst_id: str, cell: BenchCell, inst_seed: int, method: str,
                  outcome: SearchOutcome) -> list[str]:
    probes = "|".join(f"{r.c}:{r.verdict}" for r in outcome.calls)
    probe_times = "|".join(f"{r.wall_time * 1000:.3f}" for r in outcome.calls)
    mem = str(outcome.peak_memory_kb) if outcome.peak_memory_kb else ""
    return [
        "instance", inst_id, str(cell.n), str(cell.k), str(inst_seed), method,
        str(outcome.length), f"{outcome.total_time * 1000:.3f}",
        probes, probe_times, mem, "",
    ]


TIMING_COLUMNS = {"total_time_ms", "probe_times_ms", "memory_kb"}


def strip_timing(csv_text: str) -> str:
    """Blank the timing fields; what remains must be run-to-run identical."""
    reader = csv.reader(io.StringIO(csv_text))
    rows = list(reader)
    header = rows[0]
    timing_idx = [i for i, col in enumerate(header) if col in TIMING_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if i in timing_idx and row is not rows[0] else v
                         for i, v in enumerate(row)])
    return out.getvalue()


def render_table(csv_text: str) -> str:
    """Human-readable aligned view of the aggregate rows."""
    reader = csv.DictReader(io.StringIO(csv_text))
    rows = [r for r in reader if r["row_type"] == "aggregate"]
    methods = sorted({r["method"] for r in rows})
    cells = sorted({(int(r["n"]), int(r["k"])) for r in rows})
    by_key = {(int(r["n"]), int(r["k"]), r["method"]): r for r in rows}
    header = ["n", "k"] + methods + ["discarded"]
    lines = ["  ".join(f"{h:>12}" for h in header)]
    for n, k in cells:
        vals = [str(n), str(k)]
        discarded = ""
        for m in methods:
            r = by_key.get((n, k, m))
            vals.append(r["total_time_ms"] if r else "-")
            if r:
                discarded = r["discarded"]
        vals.append(discarded)
        lines.append("  ".join(f"{v:>12}" for v in vals))
    return "\n".join(lines) + "\n"
