"""Shortest-length discovery: one probe per bound and one search loop over
every method, plus external solver process adaptation.

The decision predicate "a synchronizing word of length c exists" is monotone
in c, so from a start no lower than the pair-merge bound we climb to a SAT
upper bound and binary-search the least SAT c; BFS and the opt programs
return the optimum directly and skip the binary search.  Every witness is
re-verified against the automaton before it is reported; a verification
failure is a soundness error, never silently accepted.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from array import array
from dataclasses import InitVar, dataclass, field

from syncword import aspenc, satenc
from syncword.automaton import (
    Automaton,
    Word,
    cubic_length_bound,
    default_initial_bound,
    is_synchronizing_word,
)
from syncword.errors import DecodeError, ParseError, SolverError, SoundnessError
from syncword.exact import check_synchronizable, merge_bound, shortest_sync_bfs, triple_bound

METHODS = ("bfs", "sat-internal", "sat-external", *aspenc.FORMULATIONS)

SAT_CMD_ENV = "SYNCWORD_SAT_CMD"
ASP_CMD_ENV = "SYNCWORD_ASP_CMD"
# Each external method and the variable that gives its solver command.
CMD_ENV = {"sat-external": SAT_CMD_ENV, **dict.fromkeys(aspenc.FORMULATIONS, ASP_CMD_ENV)}


@dataclass
class SearchConfig:
    """An external method given no `solver_cmd` reads it here from its `CMD_ENV`
    variable (empty is unset); a command from either without {file} is a ValueError."""

    method: str = "bfs"
    solver_cmd: str | None = None  # template containing {file}
    time_budget: float | None = None  # seconds per probe, every method
    legacy_syntax: bool = False
    encoding: str = "image"  # SAT methods: "image" or the paper's six-group "paper"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.encoding not in satenc.ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}; expected {satenc.ENCODINGS}")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError(f"time_budget must be > 0 seconds, got {self.time_budget}")
        if self.solver_cmd is None and self.method in CMD_ENV:
            self.solver_cmd = os.environ.get(CMD_ENV[self.method]) or None
        if self.solver_cmd is not None and "{file}" not in self.solver_cmd:
            raise ValueError(f"solver command {self.solver_cmd!r} lacks a {{file}} placeholder")


@dataclass(slots=True)
class ProbeRecord:
    """One probe at bound c.  `wall_time` covers the whole probe, encode
    through decode, for every method: for an image sat-internal search, whose
    probe is a set of assumptions on the search's growing formula, growth,
    search and decode.  BFS records the length it found as c."""

    c: int
    verdict: str  # "sat" | "unsat"
    wall_time: float
    memory_kb: int | None = None


@dataclass(slots=True)
class SearchOutcome:
    length: int
    word: InitVar[Word]  # read back as `witness`
    probes: InitVar[tuple[ProbeRecord, ...]] = ()  # read back as `calls`
    total_time: float = 0.0
    peak_memory_kb: int | None = None
    # A benchmark run or a sweep may keep thousands of outcomes, so the witness
    # is kept one character a symbol (1 to 4 bytes against a tuple's 8) and each
    # probe as four doubles (32 bytes against a record's and its float's 96).
    _chars: str = field(init=False, repr=False)
    _probes: array = field(init=False, repr=False)

    def __post_init__(self, word: Word, probes: tuple[ProbeRecord, ...]) -> None:
        self.witness = word
        self._probes = array("d", [v for r in probes for v in (
            r.c, r.verdict == "sat", r.wall_time, -1 if r.memory_kb is None else r.memory_kb)])

    @property
    def calls(self) -> tuple[ProbeRecord, ...]:
        return tuple(ProbeRecord(int(c), "sat" if sat else "unsat", t, None if m < 0 else int(m))
                     for c, sat, t, m in zip(*[iter(self._probes)] * 4))

    @property
    def witness(self) -> Word:
        return tuple(map(ord, self._chars))

    @witness.setter
    def witness(self, word: Word) -> None:
        self._chars = "".join(map(chr, word))


@dataclass(slots=True)
class ExternalResult:
    stdout: str
    memory_kb: int  # peak RSS of the solver shell and the processes it reaped


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_external(payload: str, command_template: str, time_budget: float | None = None,
                 suffix: str = ".txt") -> ExternalResult:
    """Write payload to a temp file, run the solver command, capture output.

    The template must contain a "{file}" placeholder.  Nonzero exits are NOT
    errors here (SAT solvers exit 10/20); timeouts and empty output are.
    """
    if "{file}" not in command_template:
        raise SolverError(f"command template {command_template!r} lacks a {{file}} placeholder")
    with tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False) as fh:
        fh.write(payload)
        path = fh.name
    try:
        cmd = command_template.replace("{file}", shlex.quote(path))
        start = time.monotonic()
        with tempfile.TemporaryFile("w+") as err:
            # A session of its own puts the shell and everything it starts in one
            # process group, so a timeout can kill the solver, not just the shell.
            proc = subprocess.Popen(cmd, shell=True, stdout=subprocess.PIPE, stderr=err,
                                    text=True, start_new_session=True)
            timer = threading.Timer(time_budget or 0.0, _kill_group, (proc.pid,))
            if time_budget is not None and time_budget <= threading.TIMEOUT_MAX:
                timer.start()  # a larger budget, inf among them, sets no limit
            try:
                with proc.stdout:
                    stdout = proc.stdout.read()
            except BaseException:  # an interrupted read must not leave the solver running
                _kill_group(proc.pid)
                raise
            finally:
                # wait4, unlike Popen.wait, returns the shell's own rusage, so
                # the peak RSS is this solver's and not an earlier child's.
                _, status, usage = os.wait4(proc.pid, 0)
                timer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
            if time_budget is not None and time.monotonic() - start >= time_budget:
                raise SolverError(f"solver timed out after {time_budget}s: {cmd}")
            if not stdout.strip():
                err.seek(0)
                raise SolverError(
                    f"solver produced no output (exit {proc.returncode}): {cmd}\n"
                    f"stderr: {err.read(500)}"
                )
        return ExternalResult(stdout, usage.ru_maxrss)
    finally:
        os.unlink(path)


def parse_sat_solver_output(text: str) -> dict[int, bool] | None:
    """Parse the standard 's SATISFIABLE/UNSATISFIABLE' + v-line convention."""
    verdict = None
    vpayload: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("s "):
            tag = stripped[2:].strip().upper()
            if tag == "SATISFIABLE":
                verdict = "sat"
            elif tag == "UNSATISFIABLE":
                verdict = "unsat"
        elif stripped.startswith("v ") or stripped == "v":
            vpayload.append(stripped[1:])
    if verdict is None:
        raise SolverError(f"no 's SATISFIABLE/UNSATISFIABLE' line in solver output:\n{text[:500]}")
    if verdict == "unsat":
        return None
    model = satenc.parse_model_literals(" ".join(vpayload))
    if not model:
        raise SolverError("satisfiable verdict but no v-line model in solver output")
    return model


def parse_asp_solver_output(text: str, expect_optimum: bool = False) -> list[str] | None:
    """Parse clingo-style output: the last 'Answer: i' block's atoms, or None
    for UNSATISFIABLE.  For optimization runs an optimality marker is
    required."""
    lines = text.splitlines()
    answer: list[str] | None = None
    saw_unsat = False
    saw_optimum = False
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("Answer:"):
            if i + 1 < len(lines):
                answer = lines[i + 1].split()
        elif "UNSATISFIABLE" in stripped:
            saw_unsat = True
        elif "OPTIMUM FOUND" in stripped:
            saw_optimum = True
    if saw_unsat and answer is None:
        return None
    if answer is None:
        raise SolverError(f"no answer set and no UNSATISFIABLE marker in output:\n{text[:500]}")
    if expect_optimum and not saw_optimum:
        raise SolverError("optimization run finished without an 'OPTIMUM FOUND' marker")
    return answer


def find_shortest(a: Automaton, cfg: SearchConfig) -> SearchOutcome | None:
    """Shortest synchronizing length under the configured method.

    Returns None iff the automaton is not synchronizable.  BFS decides that
    itself; every other method first runs the pair-automaton check, which gives
    None without any solver call or a lower bound L on the length.  With d =
    ceil(2*sqrt(n)), an external method with L >= d - 3, where a solver process
    costs more than the triple BFS, raises that bound to the triple-merge bound
    L3 (`triple_bound`); below, and for sat-internal, the bound stays L.  The
    decision methods probe first at the bound (at d if L < d - 3), then after
    an UNSAT c at max(c + step, d) and after a SAT one bisect, no lower than it
    minus step, step doubling from 1 each probe, until the least SAT c is the
    bound or one above an UNSAT probe.  So an answer has a SAT probe at its
    length, and its optimality rests on an UNSAT probe at length - 1, on length
    == L or on length == L3, as every synchronizing word merges every pair and
    every triple.  The opt programs double c from max(bound, d).  The pair
    check and the triple BFS run outside `cfg.time_budget`.  No setting moves
    the start: it decides how many probes run, not the length, nor a SAT
    method's witness, which is the model of the probe at the length.  The
    witness is re-verified before it is reported.
    An external method whose `cfg.solver_cmd` is None (see `SearchConfig`) raises
    SolverError, but only once the not-synchronizable and one-state answers are out.
    """
    start = time.monotonic()
    if cfg.method != "bfs" and not check_synchronizable(a):
        return None  # else the decision methods would climb c up to the cubic bound
    if a.n == 1:
        # The decision encodings cannot express c = 0; the answer is fixed.
        return SearchOutcome(0, (), (), time.monotonic() - start)
    if cfg.method in CMD_ENV and cfg.solver_cmd is None:
        raise SolverError(f"method {cfg.method!r} needs a solver command ({CMD_ENV[cfg.method]})")
    cap, d, step = cubic_length_bound(a.n), default_initial_bound(a.n), 1
    direct = cfg.method == "bfs" or cfg.method.endswith("opt")  # these return the optimum
    low = 0 if cfg.method == "bfs" else merge_bound(a)  # cached by the check above
    if cfg.method in CMD_ENV and low >= d - 3:  # a solver process costs more than C(n,3) * k
        low = triple_bound(a)
    c = min(max(low, d) if direct or low < d - 3 else low, cap)
    calls: list[ProbeRecord] = []
    # An image sat-internal search grows one formula; it is freed on return.
    grows = cfg.method == "sat-internal" and cfg.encoding == "image"
    formula = satenc.Unrolling(a) if grows else None

    # c climbs up to the first satisfiable probe, then bisects between lo (the
    # greatest bound known unsatisfiable: low - 1, below a merge bound, before
    # any probe) and shortest (the least satisfiable one); the encoding pads
    # shorter words, so |word| == the bound it was found at.
    lo, shortest = low - 1, None
    while shortest is None or shortest - lo > 1:
        try:
            found, optimum, rec = _probe(a, c, cfg, formula)
        except (ParseError, DecodeError) as exc:  # only solver output is parsed here
            raise SolverError(f"unreadable solver output at c={c}: {exc}") from exc
        calls.append(rec)
        if optimum is not None:  # BFS and the opt programs return the optimum
            word, shortest = found, optimum
            break
        if found is not None:
            word, shortest = found, c
        elif cfg.method == "bfs":  # the BFS found the automaton not synchronizable
            return None
        elif c >= cap:
            # Synchronizable automata always have a word within the cubic
            # bound; reaching it UNSAT means the encoder or solver is broken.
            raise SoundnessError(
                f"no synchronizing word found up to the length bound {cap} "
                "for a synchronizable automaton"
            )
        else:
            lo = c
        c = (max((lo + shortest) // 2, shortest - step) if shortest is not None
             else min(2 * c if direct else max(c + step, d), cap))
        step *= 2

    if (len(word) != shortest or not all(1 <= x <= a.k for x in word)
            or not is_synchronizing_word(a, word)):
        kind = "external solver" if cfg.method in CMD_ENV else "internal"
        raise SoundnessError(
            f"decoded witness of length {len(word)} failed re-verification ({kind} path)"
        )
    peak = max((r.memory_kb for r in calls if r.memory_kb), default=None)
    return SearchOutcome(shortest, word, tuple(calls), time.monotonic() - start, peak)


def _probe(a: Automaton, c: int, cfg: SearchConfig,
           formula: satenc.Unrolling | None) -> tuple[Word | None, int | None, ProbeRecord]:
    """One probe at bound c: (witness or None, the optimum when the method
    knows it, probe record).  An image sat-internal search probes its `formula`."""
    t0 = time.monotonic()
    method = cfg.method
    word = shortest = memory_kb = None
    if method == "bfs":
        res = shortest_sync_bfs(a, time_budget=cfg.time_budget)
        if res is not None:
            word, shortest = res.witness, res.length
            c = res.length  # BFS ignores the bound; record what it found
        elif check_synchronizable(a):  # only a non-synchronizable input pays for this
            raise SoundnessError("pair-automaton check and power-set BFS disagree")
    elif method.startswith("sat"):
        if formula is not None:
            model = satenc.solve_internal(formula.at(c), time_budget=cfg.time_budget)
        elif method == "sat-internal":  # the cap first: it may forbid building the formula
            satenc.check_var_cap(satenc.VarMap(a.n, a.k, c, cfg.encoding).var_count)
            model = satenc.solve_internal(satenc.encode_sat(a, c, cfg.encoding), cfg.time_budget)
        else:
            dimacs = satenc.write_dimacs(satenc.encode_sat(a, c, cfg.encoding))
            result = run_external(dimacs, cfg.solver_cmd, cfg.time_budget, suffix=".cnf")
            model = parse_sat_solver_output(result.stdout)
            memory_kb = result.memory_kb
        if model is not None:
            word = satenc.decode_model(a, c, model)
    else:
        program = aspenc.emit(a, method, c, cfg.legacy_syntax)
        result = run_external(program.text, cfg.solver_cmd, cfg.time_budget, suffix=".lp")
        atoms = parse_asp_solver_output(result.stdout, expect_optimum=method.endswith("opt"))
        memory_kb = result.memory_kb
        if atoms is not None:
            word, shortest = aspenc.decode_answer_set(program, atoms)
    verdict = "unsat" if word is None else "sat"
    return word, shortest, ProbeRecord(c, verdict, time.monotonic() - t0, memory_kb)
