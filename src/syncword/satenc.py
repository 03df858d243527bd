"""SAT encoding of "a synchronizing word of length c exists", DIMACS output,
model decoding, and a small internal DPLL for desk-scale length searches.

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

`encode_sat` writes one bound's formula for external solvers.  The internal
solver grows one formula per length search, an `Unrolling`, indexed by the
symbols left, r, so no clause names c: exactly one X(r,.); for the image
U(r,s) & X(r,x) -> U(r-1,delta(s,x)) and -U(r,p) | -U(r,q) when d(p,q) > r;
for the paper its transitions, at-most-one S(i,r,.) groups and sink group at
r = 0 (at-least-one S could fail above c).  A probe at c grows it to c layers
and assumes U(c,s) for every s (paper: S(i,c,i)); all-false U or S satisfies
the layers above, so the probe has the models and first word of encode_sat.
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


def _exactly_one(variables: list[int] | range, out: list[Clause]) -> None:
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


class Dpll:
    """Watched clauses and the DPLL that searches them.  Variables and clauses
    may be added between searches; each search starts from the unit clauses."""

    def __init__(self, var_count: int = 0, clauses=()):
        # value[lit] is 1, -1 or 0 (unknown), a negative lit indexing from the end;
        # watches[lit] holds the clauses watching lit, visited when lit turns false.
        self.var_count, self.value, self.watches, self.units, self.trail = 0, [0], [[]], [], []
        self.add_vars(var_count)
        self.add(clauses)

    def add_vars(self, count: int) -> int:
        # The new slots go between the positive and negative literals, so every
        # old literal keeps its index; returns the first new variable.
        n, self.var_count = self.var_count, self.var_count + count
        self.value[n + 1:n + 1] = [0] * (2 * count)
        self.watches[n + 1:n + 1] = [[] for _ in range(2 * count)]
        return n + 1

    def add(self, clauses: list[Clause]) -> None:
        # The solver moves the watches inside these lists; no literal may repeat.
        for cl in clauses:
            if len(cl) > 1:
                self.watches[cl[0]].append(cl)
                self.watches[cl[1]].append(cl)
            else:
                self.units.append(cl[0])

    def search(self, assumptions, order, time_budget: float | None) -> bool:
        """Whether a model extends `assumptions`, deciding the variables of
        `order` in turn, true first; the first model in that order stays in
        `value` until the next search."""
        deadline = None if time_budget is None else time.monotonic() + time_budget
        value, watches, trail = self.value, self.watches, self.trail
        for lit in trail:
            value[lit] = value[-lit] = 0
        trail.clear()
        head = 0  # trail[head:] is unpropagated

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

        if not all(map(enqueue, (*self.units, *assumptions))):
            return False
        # Chronological DPLL.  A conflict pops the latest decision still on its
        # true branch and propagates its negation; the scan then resumes at that
        # place in `order`, since every earlier one was assigned before its mark.
        decisions: list[tuple[int, int]] = []  # (place in order, trail mark)
        pos, end = 0, len(order)
        while True:
            while not propagate():
                if not decisions:
                    return False
                pos, mark = decisions.pop()
                for lit in trail[mark:]:
                    value[lit] = value[-lit] = 0
                del trail[mark:]
                head = mark
                enqueue(-order[pos])
            while pos < end and value[order[pos]]:
                pos += 1
            if pos == end:
                return True
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceLimitError(f"time budget {time_budget}s exceeded during DPLL search")
            decisions.append((pos, len(trail)))
            enqueue(order[pos])


class Unrolling(Dpll):
    """One length search's growing formula (module docstring).  X(r,x) =
    top[r]-k+x, U(r,s) = top[r]+s, S(i,r,s) = top[r]+(i-1)*n+s, Y(i) = i."""

    def __init__(self, a: Automaton, encoding: str = "image"):
        super().__init__()
        self.a, self.encoding, self.c, self.top = a, encoding, 0, []
        self.width = a.n * a.n if encoding == "paper" else a.n  # U or S variables a layer

    def at(self, c: int) -> Unrolling:
        """Make c the bound of the next solve, growing the formula to c layers
        once the grown size passes the solver cap (and VarMap's checks)."""
        check_var_cap(VarMap(self.a.n, self.a.k, max(c, len(self.top) - 1),
                             self.encoding).var_count)
        while len(self.top) <= c:
            self.add_layer()
        self.c = c
        return self

    def add_layer(self) -> None:
        n, k, r, paper = self.a.n, self.a.k, len(self.top), self.encoding == "paper"
        head = k if r else n if paper else 0  # X, or the paper's Y at r = 0
        top = self.add_vars(head + self.width) - 1 + head
        starts = range(0, self.width, n)  # each start state's offset in S
        clauses: list[Clause] = []
        if r:
            xs, below = range(top - k + 1, top + 1), self.top[-1]
            _exactly_one(xs, clauses)
            for i in starts:
                for s, row in enumerate(self.a.delta, start=1):
                    for x, t in zip(xs, row):
                        clauses.append([-top - i - s, -x, below + i + t])
        elif paper:  # exactly one sink, which every start state reaches
            _exactly_one(range(1, n + 1), clauses)
            clauses += [[-y, top + i + y] for y in range(1, n + 1) for i in starts]
        if paper:
            for i in starts:  # at most one S(i,r,.): drop the at-least-one clause
                _exactly_one(range(top + i + 1, top + i + n + 1), clauses)
                clauses.pop()
        else:
            merges = pair_merges(self.a)
            clauses += [[-top - p, -top - q] for p in range(1, n + 1) for q in range(p + 1, n + 1)
                        if merges.get(1 << p - 1 | 1 << q - 1, (r + 1,))[0] > r]
        self.top.append(top)
        self.add(clauses)


def solve_internal(cnf: CnfInstance | Unrolling,
                   time_budget: float | None = None) -> dict[int, bool] | None:
    """Complete DPLL with unit propagation; a desk-scale verification oracle.

    A CnfInstance is searched branching on the lowest unassigned variable, true
    first, for its first total satisfying assignment in that order.  An
    Unrolling is searched at its bound c under its assumptions, branching on
    X(c,.), ..., X(1,.) first, and yields that first model's symbol variables,
    numbered as in `encode_sat(a, c)`.  Either way a bound's first model spells
    its least word.  None means unsatisfiable.  More than DEFAULT_VAR_CAP
    variables or `time_budget` seconds of search raise ResourceLimitError:
    large instances belong to an external solver.
    """
    check_var_cap(cnf.var_count)
    if isinstance(cnf, CnfInstance):
        # The solver watches its own deduplicated copy of each clause, so watch
        # moves never touch cnf.clauses.
        dpll = Dpll(cnf.var_count, [list(dict.fromkeys(cl)) for cl in cnf.clauses])
        every = range(1, cnf.var_count + 1)
        if not dpll.search((), every, time_budget):
            return None
        return {v: dpll.value[v] == 1 for v in every}
    c, k, top = cnf.c, cnf.a.k, cnf.top
    order = [v for r in range(c, 0, -1) for v in range(top[r] - k + 1, top[r] + 1)]
    order += range(1, cnf.var_count + 1)
    step = cnf.a.n + 1 if cnf.encoding == "paper" else 1  # S(i,c,i), or every U(c,s)
    if not cnf.search(range(top[c] + 1, top[c] + cnf.width + 1, step), order, time_budget):
        return None
    return {(c - r) * k + x: cnf.value[top[r] - k + x] == 1
            for r in range(1, c + 1) for x in range(1, k + 1)}
