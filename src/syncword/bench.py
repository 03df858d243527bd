"""Benchmark harness: seeded instance sweeps with cross-method agreement.

Emits one CSV row per (instance, method) plus per-cell aggregate rows.  All
non-timing fields are deterministic functions of the master seed, so reruns
reproduce them byte-identically.  Any cross-method length disagreement aborts
the run: the harness doubles as a soundness oracle.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

from syncword.automaton import Automaton, generate_cerny, generate_random
from syncword.driver import SearchConfig, SearchOutcome, find_shortest
from syncword.errors import SoundnessError
from syncword.exact import check_synchronizable

CSV_COLUMNS = [
    "row_type",      # instance | aggregate
    "instance",      # e.g. n5-k2-i0 or cerny-n4-k2-i0, unique in a run; aggregates: n5-k2-i0..i3
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


def bench_run(cells: list[BenchCell], methods: list[str], seed: int, **settings) -> str:
    """Run every method on every generated instance and render the CSV;
    `settings` are the other `SearchConfig` fields, the same for every method."""
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"need one or more distinct methods, got {','.join(methods)!r}")
    for cell in cells:
        if cell.count < 1:
            raise ValueError(f"cell ({cell.n},{cell.k}) has count {cell.count}, need >= 1")
    configs = [SearchConfig(method=m, **settings) for m in methods]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    aggregates: list[dict] = []
    draw, used = 0, Counter()  # ids given per family and (n, k), numbered on across cells
    for cell in cells:
        instances, discarded, draw = generate_instances(cell, seed, draw)
        sums = {m: Counter() for m in methods}  # each method's summed length and time in ms
        tag = f"{'cerny-' if cell.family == 'cerny' else ''}n{cell.n}-k{cell.k}"
        ids = f"{tag}-i{used[tag]}" + (f"..i{used[tag] + cell.count - 1}" if cell.count > 1 else "")
        for inst_seed, a in instances:
            inst_id = f"{tag}-i{used[tag]}"
            used[tag] += 1
            lengths = {}
            for method, cfg in zip(methods, configs):
                outcome = find_shortest(a, cfg)
                if outcome is None:
                    raise SoundnessError(
                        f"{inst_id}: instance passed the synchronizability check "
                        f"but method {method} reported not-synchronizable"
                    )
                lengths[method] = outcome.length
                sums[method].update(length=outcome.length, ms=outcome.total_time * 1000)
                writer.writerow(_instance_row(inst_id, cell, inst_seed, method, outcome))
            if len(set(lengths.values())) > 1:
                raise SoundnessError(
                    f"{inst_id}: methods disagree on shortest length: {lengths}"
                )
        for method, total in sums.items():
            aggregates.append({
                "row_type": "aggregate", "instance": ids, "n": cell.n, "k": cell.k, "seed": seed,
                "method": method, "discarded": discarded,
                "length": f"{total['length'] / cell.count:.2f}",
                "total_time_ms": f"{total['ms'] / cell.count:.3f}",
            })
    writer.writerows(aggregates)
    return buf.getvalue()


def _instance_row(inst_id: str, cell: BenchCell, inst_seed: int, method: str,
                  outcome: SearchOutcome) -> dict:
    return {
        "row_type": "instance", "instance": inst_id, "n": cell.n, "k": cell.k,
        "seed": inst_seed, "method": method, "length": outcome.length,
        "total_time_ms": f"{outcome.total_time * 1000:.3f}",
        "probes": "|".join(f"{r.c}:{r.verdict}" for r in outcome.calls),
        "probe_times_ms": "|".join(f"{r.wall_time * 1000:.3f}" for r in outcome.calls),
        "memory_kb": outcome.peak_memory_kb or "",
    }


TIMING_COLUMNS = {"total_time_ms", "probe_times_ms", "memory_kb"}


def strip_timing(csv_text: str) -> str:
    """Blank the timing fields; what remains must be run-to-run identical."""
    reader = csv.DictReader(io.StringIO(csv_text))
    out = io.StringIO()
    writer = csv.DictWriter(out, reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in reader:
        writer.writerow(row | dict.fromkeys(TIMING_COLUMNS, ""))
    return out.getvalue()


TABLE_COLUMNS = ["instance", "n", "k", "method", "length", "total_time_ms", "discarded"]


def render_table(csv_text: str) -> str:
    """Human-readable aligned view: one line per aggregate row, in CSV order."""
    rows = [r for r in csv.DictReader(io.StringIO(csv_text)) if r["row_type"] == "aggregate"]
    lines = [TABLE_COLUMNS] + [[r[c] for c in TABLE_COLUMNS] for r in rows]
    return "".join("  ".join(f"{v:>13}" for v in line) + "\n" for line in lines)
