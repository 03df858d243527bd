"""SAT encoding of "a synchronizing word of length c exists", DIMACS output,
model decoding, and a small internal DPLL oracle for desk-scale checks.

Two encodings share the symbol variables X(l,x), numbered first, so one
decoder reads both.  The default "image" encoding tracks the image set: T(l,s)
means state s is in the image after l-1 symbols, with units T(1,s),
T(l,s) & X(l,x) -> T(l+1,delta(s,x)), and pair-distance clauses
-T(l,p) | -T(l,q) wherever the shortest word merging p and q, d(p,q), is
longer than the c+1-l symbols left; at l = c+1 they say at most one state is
left.  An exact image always satisfies them, so they prune without changing
which X assignments are models.  The "paper" encoding is the paper's six
groups: exactly one symbol per step, exactly one traced state per (start
state, step), initial-state units, transition propagation, exactly one sink,
and all-states-reach-sink.  Both are satisfiable by exactly the X assignments
that spell a synchronizing word.  The decision predicate is monotone in c
(images only shrink), which the binary search driver relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from syncword.automaton import Automaton, Word, int_token
from syncword.errors import DecodeError, ParseError, ResourceLimitError
from syncword.exact import pair_merges

Clause = list[int]
ENCODINGS = ("image", "paper")


@dataclass(frozen=True)
class VarMap:
    """Fixed variable numbering for one (n, k, c) instance of an encoding.

    X(l,x): symbol x used at step l (both encodings).
    "image": T(l,s): state s is in the image after l-1 symbols (l = 1..c+1).
    "paper": S(i,j,s): starting from state i, the automaton is in state s at
    step j (j = 1 is before any symbol; j = c+1 after the whole word);
    Y(i): state i is the sink.
    The numbering of each encoding is a bijection onto 1..var_count.
    """

    n: int
    k: int
    c: int
    encoding: str = "image"

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"bound c must be >= 1, got {self.c}")
        if self.encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {self.encoding!r}; expected one of {ENCODINGS}")

    def x(self, l: int, sym: int) -> int:
        return (l - 1) * self.k + sym

    def t(self, l: int, state: int) -> int:
        return self.c * self.k + (l - 1) * self.n + state

    def s(self, i: int, j: int, state: int) -> int:
        return self.c * self.k + ((i - 1) * (self.c + 1) + (j - 1)) * self.n + state

    def y(self, i: int) -> int:
        return self.c * self.k + self.n * (self.c + 1) * self.n + i

    @property
    def var_count(self) -> int:
        if self.encoding == "image":
            return self.c * self.k + self.n * (self.c + 1)
        return self.c * self.k + self.n * self.n * (self.c + 1) + self.n


@dataclass
class CnfInstance:
    var_count: int
    clauses: list[Clause]
    varmap: VarMap | None = field(default=None)

    def __post_init__(self):
        if not all(self.clauses):
            raise ValueError("empty clause at construction")
        for lit in set().union(*self.clauses):  # each distinct literal once
            if lit == 0 or abs(lit) > self.var_count:
                raise ValueError(f"literal {lit} out of range for {self.var_count} vars")


def _exactly_one(variables: list[int], out: list[Clause]) -> None:
    # Pairwise mutual exclusion plus one at-least-one clause.
    for a in range(len(variables)):
        for b in range(a + 1, len(variables)):
            out.append([-variables[a], -variables[b]])
    out.append(list(variables))


def encode_sat(a: Automaton, c: int, encoding: str = "image") -> CnfInstance:
    """Build the CNF that is satisfiable iff `a` has a synchronizing word of
    length c (equivalently, of length <= c, by padding monotonicity).

    In the paper encoding the traced-state exactly-one constraints cover steps
    1..c+1; leaving step c+1 unconstrained would let every sink check succeed
    vacuously.  The image encoding needs no at-least-one on T: the image is
    never empty, and an extra true T(l,s) only makes the final check harder.
    Its pair-distance clauses, from one cached pair BFS per automaton, number
    sum over p<q of min(d(p,q), c+1).
    """
    n, k = a.n, a.k
    vm = VarMap(n, k, c, encoding)
    clauses: list[Clause] = []

    # One input symbol per step.
    for l in range(1, c + 1):
        _exactly_one([vm.x(l, x) for x in range(1, k + 1)], clauses)
    if encoding == "image":
        # The image starts as every state, T(l,s) and X(l,x) put delta(s,x) in
        # the next image, and image l holds no pair that the c+1-l symbols
        # left cannot merge (d = infinity for a pair that never merges).
        base = [vm.t(l, 0) for l in range(1, c + 2)]  # T(l,s) = base[l-1] + s
        clauses += [[base[0] + s] for s in range(1, n + 1)]
        for l in range(1, c + 1):
            xs = [vm.x(l, x) for x in range(1, k + 1)]
            for s, row in enumerate(a.delta, start=1):
                for x, t in zip(xs, row):
                    clauses.append([-base[l - 1] - s, -x, base[l] + t])
        merges = pair_merges(a)
        for p in range(1, n + 1):
            for q in range(p + 1, n + 1):
                d = merges.get(1 << p - 1 | 1 << q - 1, (c + 1,))[0]
                clauses += [[-b - p, -b - q] for b in base[max(0, c + 1 - d):]]
        return CnfInstance(vm.var_count, clauses, vm)
    # One current state per start state and step, including the final step.
    for i in range(1, n + 1):
        for j in range(1, c + 2):
            _exactly_one([vm.s(i, j, s) for s in range(1, n + 1)], clauses)
    # Initial configuration.
    for i in range(1, n + 1):
        clauses.append([vm.s(i, 1, i)])
    # Transition propagation: in state j at step l, symbol x used => in
    # state delta(j,x) at step l+1.
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for l in range(1, c + 1):
                for x in range(1, k + 1):
                    clauses.append(
                        [-vm.s(i, l, j), -vm.x(l, x), vm.s(i, l + 1, a.delta[j - 1][x - 1])]
                    )
    # One sink state.
    _exactly_one([vm.y(i) for i in range(1, n + 1)], clauses)
    # Every start state reaches the sink after the last step.
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            clauses.append([-vm.y(i), vm.s(j, c + 1, i)])

    return CnfInstance(vm.var_count, clauses, vm)


def write_dimacs(cnf: CnfInstance) -> str:
    """Standard DIMACS CNF text; comment lines document the variable scheme
    when the instance carries a VarMap, so external models stay decodable."""
    lines: list[str] = []
    if cnf.varmap is not None:
        vm = cnf.varmap
        lines.append(f"c syncword instance n={vm.n} k={vm.k} c={vm.c} encoding={vm.encoding}")
        if vm.encoding == "image":
            lines.append("c vars: X(l,x)=(l-1)*k+x; T(l,s)=c*k+(l-1)*n+s, s in image after l-1;")
            lines.append("c       -T(l,p) -T(l,q) when merging p,q takes more than c+1-l symbols")
        else:
            lines.append("c vars: X(l,x)=(l-1)*k+x; S(i,j,s)=c*k+((i-1)*(c+1)+(j-1))*n+s;")
            lines.append("c       Y(i)=c*k+n*(c+1)*n+i")
    lines.append(f"p cnf {cnf.var_count} {len(cnf.clauses)}")
    for cl in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_model_literals(text: str) -> dict[int, bool]:
    """Parse a signed-literal model listing (the usual solver v-line payload).

    Tolerates 'v' prefixes, line breaks, and a trailing 0.
    """
    assignment: dict[int, bool] = {}
    for tok in text.split():
        if tok in ("v", "V"):
            continue
        try:
            lit = int_token(tok)
        except ValueError:
            raise ParseError(f"bad literal token {tok!r}") from None
        if lit == 0:
            continue
        assignment[abs(lit)] = lit > 0
    return assignment


def decode_model(a: Automaton, c: int, assignment: dict[int, bool]) -> Word:
    """Read the synchronizing word off a satisfying assignment.

    Each step must have exactly one true symbol variable; anything else
    signals a solver/VarMap mismatch.
    """
    vm = VarMap(a.n, a.k, c)
    word: list[int] = []
    for l in range(1, c + 1):
        chosen = [x for x in range(1, a.k + 1) if assignment.get(vm.x(l, x), False)]
        if len(chosen) != 1:
            raise DecodeError(
                f"step {l}: expected exactly one true symbol variable, got {len(chosen)}"
            )
        word.append(chosen[0])
    return tuple(word)


DEFAULT_VAR_CAP = 500_000


def check_var_cap(var_count: int) -> None:
    """Raise ResourceLimitError when `solve_internal` may not take the instance."""
    if var_count > DEFAULT_VAR_CAP:
        raise ResourceLimitError(
            f"{var_count} variables exceeds the internal solver cap {DEFAULT_VAR_CAP}; "
            "use an external solver"
        )


def solve_internal(cnf: CnfInstance, time_budget: float | None = None) -> dict[int, bool] | None:
    """Complete DPLL with unit propagation; a desk-scale verification oracle.

    Branches on the lowest unassigned variable, true first, and returns the
    first total satisfying assignment in that order, or None if there is none.
    More than DEFAULT_VAR_CAP variables or `time_budget` seconds of search raise
    ResourceLimitError: large instances belong to an external solver.
    """
    check_var_cap(cnf.var_count)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    nvars = cnf.var_count
    # value[lit] is 1, -1 or 0 (unknown), a negative lit indexing from the end;
    # watches[lit] holds the clauses watching lit, visited when lit turns false.
    value = [0] * (2 * nvars + 1)
    watches: list[list[Clause]] = [[] for _ in range(2 * nvars + 1)]
    trail: list[int] = []  # assigned literals; those from `head` on are unpropagated
    head = 0

    def enqueue(lit: int) -> bool:
        # Assign lit true; False when it is already false.
        if value[lit]:
            return value[lit] == 1
        value[lit], value[-lit] = 1, -1
        trail.append(lit)
        return True

    def propagate() -> bool:
        # Propagate the trail from `head`; returns False on conflict.
        nonlocal head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            wl = watches[false_lit]
            i = 0
            while i < len(wl):
                cl = wl[i]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], false_lit
                if value[cl[0]] == 1:
                    i += 1
                    continue
                for j in range(2, len(cl)):
                    if value[cl[j]] != -1:  # move the watch from cl[1] to cl[j]
                        cl[1], cl[j] = cl[j], false_lit
                        watches[cl[1]].append(cl)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if not enqueue(cl[0]):
                        return False
                    i += 1
        return True

    # The solver watches its own deduplicated copy of each clause, so watch
    # moves never touch cnf.clauses; unit clauses are assigned up front.
    for cl in cnf.clauses:
        cl = list(dict.fromkeys(cl))
        if len(cl) > 1:
            watches[cl[0]].append(cl)
            watches[cl[1]].append(cl)
        elif not enqueue(cl[0]):
            return None

    # Chronological DPLL.  A conflict pops the latest decision still on its true
    # branch and propagates its negation; the scan then resumes at that variable,
    # since every lower one was assigned before the decision's mark.
    decisions: list[tuple[int, int]] = []  # (var, trail mark)
    var = 1
    while True:
        while not propagate():
            if not decisions:
                return None
            var, mark = decisions.pop()
            for lit in trail[mark:]:
                value[lit] = value[-lit] = 0
            del trail[mark:]
            head = mark
            enqueue(-var)
        while var <= nvars and value[var]:
            var += 1
        if var > nvars:
            return {v: value[v] == 1 for v in range(1, nvars + 1)}
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError(f"time budget {time_budget}s exceeded during DPLL search")
        decisions.append((var, len(trail)))
        enqueue(var)
