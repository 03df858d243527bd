"""Span recorder for the traced run.

The recorder wraps the module attributes through which syncword's driver and
the benchmark's set-up reach each layer, so spans are taken from outside the
code under test.  Each span has a name, start, end, parent span and solve id,
plus counts read from the call's arguments and result.  Spans stay in memory
and are written as JSON lines when the run ends.

A call site that no longer exists, or whose result no longer carries a count,
is recorded in `missing` instead of raising: the per-layer metrics that need
it are then reported as missing, and the run itself carries on.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import asdict, dataclass, field


def children_cpu_s() -> float:
    """User plus system CPU of every child reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    solve: str
    pass_no: int  # traced pass, -1 for set-up
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Site:
    """One wrapped call site: `module.attr`, recorded as span `name`.

    `before()` runs just ahead of the call; `counts(args, result, before)`
    turns the call into named counts."""

    module: str
    attr: str
    name: str
    counts: object = None
    before: object = None


def _cnf_counts(args, cnf, _):
    return {"vars": cnf.var_count, "clauses": len(cnf.clauses)}


def _outcome_counts(args, outcome, _):
    calls = [] if outcome is None else outcome.calls
    return {"probes": len(calls), "probes_unsat": sum(r.verdict == "unsat" for r in calls)}


# The call sites the driver and set-up use, keyed by the span they record.
SITES = (
    Site("driver", "find_shortest", "driver.find_shortest", _outcome_counts),
    Site("driver", "check_synchronizable", "exact.pair_check"),
    Site("driver", "shortest_sync_bfs", "exact.bfs"),
    Site("driver", "is_synchronizing_word", "automaton.verify"),
    Site("driver", "run_external", "driver.external",
         lambda args, result, cpu0: {"child_cpu_s": children_cpu_s() - cpu0},
         children_cpu_s),
    Site("driver", "parse_sat_solver_output", "driver.parse"),
    Site("driver", "parse_asp_solver_output", "driver.parse"),
    Site("satenc", "encode_sat", "satenc.encode", _cnf_counts),
    Site("satenc", "solve_internal", "satenc.solve"),
    Site("satenc", "decode_model", "satenc.decode"),
    Site("satenc", "write_dimacs", "satenc.dimacs",
         lambda args, text, _: {"bytes": len(text.encode())}),
    Site("aspenc", "emit", "aspenc.emit",
         lambda args, program, _: {"bytes": len(program.text.encode())}),
    Site("aspenc", "decode_answer_set", "aspenc.decode"),
    Site("bench", "generate_instances", "bench.generate",
         lambda args, result, _: {"discarded": result[1]}),
    Site("bench", "check_synchronizable", "exact.pair_check"),
    Site("exact", "shortest_sync_bfs", "exact.bfs"),
)


class Recorder:
    def __init__(self, mods, sites=SITES):
        self.spans: list[Span] = []
        self.solve = ""
        self.pass_no = -1
        self.missing: set[str] = set()  # span names with a lost site or count
        self._stack: list[int] = []
        self._patches = []
        for site in sites:
            module = getattr(mods, site.module)
            fn = getattr(module, site.attr, None)
            if not callable(fn):
                self.missing.add(site.name)
                continue
            self._patches.append((module, site.attr, fn, self._wrap(fn, site)))

    def _wrap(self, fn, site: Site):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(site.name, 0.0, 0.0, parent, self.solve, self.pass_no)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            pre = site.before() if site.before else None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if site.counts:
                try:
                    span.counts = site.counts(args, result, pre)
                except Exception:  # a changed result type must not stop the run
                    self.missing.add(site.name)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        for idx, kids in children.items():
            parent = self.spans[idx]
            reach = parent.start
            for kid in sorted(kids, key=lambda s: s.start):
                lo, hi = max(kid.start, reach), min(kid.end, parent.end)
                if hi > lo:
                    covered[idx] += hi - lo
                    reach = hi
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, selfs):
                fh.write(json.dumps({**asdict(span), "self_s": self_s}) + "\n")
