"""The benchmark's workloads: importing syncword from the checkout and
building each workload's seeded list of solves.

Set-up time (`setup_s`) is everything in `setup()`: the import plus instance
generation, including the pair-check discards inside
`syncword.bench.generate_instances` and, for the SAT and external workloads,
the BFS lengths used to fill the length quotas and to cross-check answers.
"""

from __future__ import annotations

import hashlib
import importlib
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STUBS = HERE / "stubs"

MODULES = ("automaton", "aspenc", "bench", "driver", "exact", "satenc")
EXTERNAL_METHODS = ("sat-external", "asp1", "asp2", "asp1opt", "asp2opt")
# Seconds per external solver call; the stubs answer in well under one.
EXTERNAL_BUDGET = 60.0
# Draws per n before a length quota is declared unfillable.
MAX_QUOTA_DRAWS = 10_000
# bfs-random blocks, one draw for each n = 18..26 per block.
BFS_RANDOM_BLOCKS = 90


def import_syncword() -> SimpleNamespace:
    """Import syncword afresh from the checkout's src/, never from elsewhere."""
    if not (SRC / "syncword" / "__init__.py").is_file():
        raise ImportError(f"no syncword package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "syncword" or m.startswith("syncword.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"syncword.{m}") for m in MODULES})
    if SRC.resolve() not in Path(mods.driver.__file__).resolve().parents:
        raise ImportError(f"syncword was imported from {mods.driver.__file__}, not {SRC}")
    return mods


@dataclass(frozen=True)
class Solve:
    """One `find_shortest` call the benchmark makes and checks."""

    instance: str  # automaton id, unique within the workload
    method: str
    automaton: object  # syncword.automaton.Automaton
    cfg: object  # syncword.driver.SearchConfig
    expected: tuple[int, ...]  # reference lengths known at set-up


@dataclass
class Setup:
    blocks: list[list[Solve]]  # a run stops only at the end of a block

    def serialize(self) -> bytes:
        lines = []
        for block in self.blocks:
            for s in block:
                a = s.automaton
                rows = ";".join(",".join(map(str, row)) for row in a.delta)
                lines.append(f"{s.instance} {s.method} {a.n} {a.k} {rows} {s.expected}")
            lines.append("--")
        return ("\n".join(lines) + "\n").encode()

    def digest(self) -> str:
        return hashlib.sha256(self.serialize()).hexdigest()


def _draw(mods, n: int, seed: int, draw: int):
    """Next synchronizable random k=2 draw at size n, as bench sweeps draw them."""
    inst, _, draw = mods.bench.generate_instances(mods.bench.BenchCell(n, 2, 1), seed, draw)
    inst_seed, a = inst[0]
    return f"r{n}-{inst_seed}", a, draw


def _cerny(mods, n: int):
    inst, _, _ = mods.bench.generate_instances(mods.bench.BenchCell(n, 2, 1, "cerny"), 0)
    return f"cerny{n}", inst[0][1]


def _length_quotas(mods, seed: int, sizes, lengths):
    """Per size, the first synchronizable draws whose BFS lengths fill the
    quota `lengths` (a length listed twice is taken twice).  Fixing the length
    mix keeps every seed's mix of easy and hard instances the same: solver
    time grows steeply with length."""
    picked, draw = [], 0
    for n in sizes:
        want = list(lengths)
        for _ in range(MAX_QUOTA_DRAWS):
            if not want:
                break
            iid, a, draw = _draw(mods, n, seed, draw)
            length = mods.exact.shortest_sync_bfs(a).length
            if length in want:
                want.remove(length)
                picked.append((iid, a, length))
        else:
            raise RuntimeError(f"n={n}: no draws of length {want} in {MAX_QUOTA_DRAWS}")
    return picked


def build_bfs_random(mods, seed: int) -> Setup:
    cfg = mods.driver.SearchConfig(method="bfs")
    blocks, draw = [], 0
    for _ in range(BFS_RANDOM_BLOCKS):
        block = []
        for n in range(18, 27):
            iid, a, draw = _draw(mods, n, seed, draw)
            block.append(Solve(iid, "bfs", a, cfg, ()))
        blocks.append(block)
    return Setup(blocks)


def build_bfs_cerny(mods, seed: int) -> Setup:
    cfg = mods.driver.SearchConfig(method="bfs")
    block = []
    for n in range(14, 18):
        iid, a = _cerny(mods, n)
        block.append(Solve(iid, "bfs", a, cfg, ((n - 1) ** 2,)))
    return Setup([block])


def build_sat_internal(mods, seed: int) -> Setup:
    cfg = mods.driver.SearchConfig(method="sat-internal")
    iid, a = _cerny(mods, 4)
    block = [Solve(iid, "sat-internal", a, cfg, (9,))]
    picked = _length_quotas(mods, seed, range(8, 13), (5, 6, 7) * 3)
    block += [Solve(iid, "sat-internal", a, cfg, (length,)) for iid, a, length in picked]
    return Setup([block])


def stub_command(method: str) -> str:
    stub = STUBS / ("sat_stub.py" if method == "sat-external" else "asp_stub.py")
    return f"{shlex.quote(sys.executable)} -I -S {shlex.quote(str(stub))} {{file}}"


def build_external_stub(mods, seed: int) -> Setup:
    cfgs = {m: mods.driver.SearchConfig(method=m, solver_cmd=stub_command(m),
                                        time_budget=EXTERNAL_BUDGET)
            for m in EXTERNAL_METHODS}
    picked = _length_quotas(mods, seed, range(6, 9), (3, 4, 5, 6))
    block = [Solve(iid, m, a, cfgs[m], (length,))
             for iid, a, length in picked for m in EXTERNAL_METHODS]
    return Setup([block])


@dataclass(frozen=True)
class Workload:
    build: Callable[[SimpleNamespace, int], Setup]
    tail_pct: int  # the fixed tail percentile of the best times (see NOTES.md)
    trace_blocks: int  # leading blocks that make one traced pass


WORKLOADS = {
    "bfs-random": Workload(build_bfs_random, 90, BFS_RANDOM_BLOCKS),
    "bfs-cerny": Workload(build_bfs_cerny, 100, 1),
    "sat-internal": Workload(build_sat_internal, 75, 1),
    "external-stub": Workload(build_external_stub, 80, 1),
}


def setup(name: str, seed: int) -> tuple[SimpleNamespace, Setup]:
    """Import syncword and build the named workload from the seed."""
    mods = import_syncword()
    return mods, WORKLOADS[name].build(mods, seed)
