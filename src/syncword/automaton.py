"""Automaton data model, word application, serialization, and generators.

States are the integers 1..n and input symbols 1..k throughout; letter names
(a, b, ...) are presentation-only aliases used by the CLI.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from syncword.errors import ParseError

# A word is any sequence of symbols in 1..k; the empty word is allowed.
Word = tuple[int, ...]


@dataclass(frozen=True)
class Automaton:
    """A completely specified deterministic finite automaton.

    `delta[s-1][x-1]` is the successor of state `s` under symbol `x`.
    Instances are immutable and safe to share across concurrent searches.
    """

    n: int
    k: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if len(self.delta) != self.n:
            raise ValueError(f"transition table has {len(self.delta)} rows, expected {self.n}")
        for s, row in enumerate(self.delta, start=1):
            if len(row) != self.k:
                raise ValueError(f"state {s}: row has {len(row)} entries, expected {self.k}")
            for x, t in enumerate(row, start=1):
                if not 1 <= t <= self.n:
                    raise ValueError(f"delta({s},{x}) = {t} is outside 1..{self.n}")


def apply_word(a: Automaton, q: int, w: Sequence[int]) -> int:
    """Extended transition function: state reached from `q` after reading `w`.

    The empty word returns `q` unchanged.
    """
    if not 1 <= q <= a.n:
        raise ValueError(f"state {q} outside 1..{a.n}")
    for x in w:
        if not 1 <= x <= a.k:
            raise ValueError(f"symbol {x} outside 1..{a.k}")
        q = a.delta[q - 1][x - 1]
    return q


def is_synchronizing_word(a: Automaton, w: Sequence[int]) -> bool:
    """True iff every state of `a` reaches one common state under `w`."""
    for x in set(w):
        if not 1 <= x <= a.k:
            raise ValueError(f"symbol {x} outside 1..{a.k}")
    succ = [tuple(row[x] - 1 for row in a.delta) for x in range(a.k)]
    states = (0, *range(a.n))  # 0-based; state 1 twice, so itemgetter returns a tuple
    for x in w:
        states = itemgetter(*states)(succ[x - 1])
    return len(set(states)) == 1


def word_to_letters(w: Sequence[int]) -> str:
    """Render a word as letters when the alphabet fits a..z, else as numbers."""
    if all(1 <= x <= 26 for x in w):
        return "".join(chr(ord("a") + x - 1) for x in w)
    return " ".join(str(x) for x in w)


def int_token(tok: str) -> int:
    """int() of an optional '-' and ASCII digits; '+3', '1_0' or other digits raise ValueError."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer token: {tok!r}")
    return int(tok)


def parse_fa(text: str) -> Automaton:
    """Parse the native FA format.

    First non-comment line is "n k", then n lines of k space-separated
    decimal successor states (row s, column x holds delta(s, x)).  Lines starting
    with '#' are comments.  Partial tables are rejected.
    """
    header: tuple[int, int] | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int_token(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", lineno) from None
        if header is None:
            if len(values) != 2:
                raise ParseError(f"header must be 'n k', got {line!r}", lineno)
            n, k = values
            if n < 1 or k < 1:
                raise ParseError(f"need n >= 1 and k >= 1, got n={n}, k={k}", lineno)
            header = (n, k)
            continue
        n, k = header
        if len(rows) >= n:
            raise ParseError(f"expected {n} transition rows, found extra data", lineno)
        if len(values) != k:
            raise ParseError(f"row has {len(values)} entries, expected {k}", lineno)
        for x, t in enumerate(values, start=1):
            if not 1 <= t <= n:
                raise ParseError(f"delta({len(rows) + 1},{x}) = {t} is outside 1..{n}", lineno)
        rows.append(tuple(values))
    if header is None:
        raise ParseError("empty input, expected 'n k' header")
    if len(rows) != header[0]:
        raise ParseError(f"expected {header[0]} transition rows, found {len(rows)}")
    return Automaton(header[0], header[1], tuple(rows))


def serialize_fa(a: Automaton) -> str:
    """Inverse of parse_fa (round-trips on every valid automaton)."""
    lines = [f"{a.n} {a.k}"]
    lines.extend(" ".join(str(t) for t in row) for row in a.delta)
    return "\n".join(lines) + "\n"


def generate_random(n: int, k: int, seed: int) -> Automaton:
    """Draw each of the n*k successors independently and uniformly from 1..n.

    Uses the Mersenne Twister with the given seed, so identical seeds produce
    bit-identical tables on every platform.  Non-synchronizable draws are NOT
    filtered here; callers that need synchronizable instances discard and
    redraw (see the benchmark harness).
    """
    rng = random.Random(seed)
    delta = tuple(tuple(rng.randint(1, n) for _ in range(k)) for _ in range(n))
    return Automaton(n, k, delta)


def generate_cerny(n: int) -> Automaton:
    """The Cerny automaton C_n over symbols {a=1, b=2}.

    Symbol a cycles i -> (i mod n)+1; symbol b fixes every state except n,
    which it sends to 1.  Its shortest synchronizing sequence has length
    (n-1)^2, the conjectured worst case.
    """
    if n < 2:
        raise ValueError(f"Cerny family needs n >= 2, got {n}")
    delta = tuple(
        ((i % n) + 1, 1 if i == n else i)
        for i in range(1, n + 1)
    )
    return Automaton(n, 2, delta)


def parse_kiss2(text: str) -> Automaton:
    """Import a KISS2 finite state machine, stripping outputs.

    Transition lines have the shape "<input> <state> <next-state> <output>".
    A '-' in a binary input field is a don't-care, expanded into both values.
    A '*' present state stands for every state; a '*' next state is rejected.
    Input vectors (or symbolic inputs) and states are mapped to 1..k and 1..n
    in order of first appearance.  Machines whose transition relation is not a
    total deterministic function over the encountered alphabet are rejected.
    """
    inputs: dict[str, int] = {}
    states: dict[str, int] = {}
    rows: list[tuple[int, str, str, int]] = []  # (line, state or '*', input, next state)

    def state_id(name: str) -> int:
        if name not in states:
            states[name] = len(states) + 1
        return states[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("."):
            # .i/.o/.p/.s/.r headers carry no transition information we need;
            # .r names the reset state but synchronization ignores it.
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 'input state next output', got {line!r}", lineno)
        cube, src, dst, _out = parts
        if dst == "*":
            raise ParseError("a '*' next state leaves the machine partial", lineno)
        if src != "*":
            state_id(src)
        dst_id = state_id(dst)
        vectors = [cube]
        if set(cube) <= set("01-"):  # each '-' bit stands for both values
            bits = (b.replace("-", "01") for b in cube)
            vectors = ["".join(v) for v in itertools.product(*bits)]
        for sym in vectors:
            inputs.setdefault(sym, len(inputs) + 1)
            rows.append((lineno, src, sym, dst_id))

    # Every state is known only now, so '*' rows are expanded after the scan.
    if not rows:
        raise ParseError("no transition lines found")
    table: list[list[int | None]] = [[None] * len(inputs) for _ in states]
    for lineno, src, sym, dst_id in rows:
        for name in states if src == "*" else (src,):
            row, x = table[states[name] - 1], inputs[sym] - 1
            if row[x] not in (None, dst_id):
                raise ParseError(
                    f"nondeterministic: state {name} input {sym} has two successors", lineno
                )
            row[x] = dst_id
    for s, row in enumerate(table, start=1):
        if None in row:
            raise ParseError(
                f"partial machine: state #{s} has no transition on input #{row.index(None) + 1}"
            )
    delta = tuple(tuple(row) for row in table)
    return Automaton(len(states), len(inputs), delta)  # type: ignore[arg-type]


def cubic_length_bound(n: int) -> int:
    """Best known upper bound n(7n^2+6n-16)/48 on shortest synchronizing length."""
    return n * (7 * n * n + 6 * n - 16) // 48


def default_initial_bound(n: int) -> int:
    """ceil(2*sqrt(n)): the empirical average shortest length for random FAs."""
    return max(1, math.isqrt(4 * n) + (0 if math.isqrt(4 * n) ** 2 == 4 * n else 1))
