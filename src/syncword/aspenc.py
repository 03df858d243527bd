"""Answer set program emission for the four formulations, plus decoding.

Four program families are emitted: a sink-state formulation (asp1), an
adjacent-pair merging formulation (asp2), and their optimization variants
(asp1opt, asp2opt) that let the solver pick the shortest length directly.
Grounding and solving are delegated entirely to an external solver; this
module only produces non-ground program text plus instance facts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from syncword.automaton import Automaton, Word
from syncword.errors import DecodeError

FORMULATIONS = ("asp1", "asp2", "asp1opt", "asp2opt")


@dataclass(frozen=True)
class AspProgram:
    formulation: str
    bound_c: int
    text: str


def emit_facts(a: Automaton) -> str:
    """Instance facts: one per state, symbol, and transition."""
    lines = [f"state({s})." for s in range(1, a.n + 1)]
    lines += [f"symbol({x})." for x in range(1, a.k + 1)]
    for s in range(1, a.n + 1):
        for x in range(1, a.k + 1):
            lines.append(f"transition({s},{x},{a.delta[s - 1][x - 1]}).")
    return "\n".join(lines) + "\n"


def emit(a: Automaton, formulation: str, c: int, legacy_syntax: bool = False) -> AspProgram:
    """Program text of one formulation at length bound c.

    asp1 (sink state): an answer set exists iff some word of length c takes
    every state to one sink state.  asp2 (adjacent-pair merging): every pair
    (r, r+1) must land on a common state under some prefix of the word.  The
    opt variants let the solver pick the length l <= c and minimize it;
    `legacy_syntax` writes their #minimize line in the old gringo syntax.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    if c < 1:
        raise ValueError(f"bound c must be >= 1, got {c}")
    opt = formulation.endswith("opt")
    sink = formulation.startswith("asp1")
    parts = [emit_facts(a).rstrip("\n")]
    if opt:
        minimize = ("#minimize [ shortest(L) = L ]." if legacy_syntax
                    else "#minimize { L : shortest(L) }.")
        parts += [f"1 {{ shortest(L) : L = 1..{c} }} 1.", "step(1..I) :- shortest(I).", minimize]
    else:
        parts.append(f"step(1..{c}).")
    parts += [
        "1 { synchro(I,J) : symbol(J) } 1 :- step(I).",
        "path(S,1,S) :- state(S).",
        "path(S,I+1,Q) :- path(S,I,R), synchro(I,X), transition(R,X,Q), "
        "state(S), state(R), state(Q), symbol(X), step(I).",
    ]
    if sink:
        # The opt sink check is parametrized by the chosen length, so paths
        # are only required to reach the sink at step l+1, not at c+1.
        parts += [
            "1 { sink(F) : state(F) } 1.",
            ":- sink(F), shortest(L), state(S), not path(S,L+1,F)." if opt
            else f":- sink(F), not path(S,{c + 1},F), state(S), state(F).",
        ]
    elif a.n >= 2:
        # merged(r): states r and r+1 land on one state after some nonempty
        # prefix of the word.  The path atom for a prefix of length I has step
        # index I+1, hence the I+1 here; once merged, determinism keeps the
        # pair merged for every longer prefix.
        parts += [
            "merged(R) :- path(R,I+1,S), path(R+1,I+1,S), "
            "state(S), state(R), state(R+1), step(I).",
            f":- state(R), R < {a.n}, not merged(R).",
        ]
    parts.append("#show synchro/2.")
    if sink:
        parts.append("#show sink/1.")
    if opt:
        parts.append("#show shortest/1.")
    return AspProgram(formulation, c, "\n".join(parts) + "\n")


_ATOM_RE = re.compile(r"([a-z_]+)\(([0-9,\s]+)\)")


def decode_answer_set(p: AspProgram, atoms: list[str]) -> tuple[Word, int | None]:
    """Assemble the word from synchro atoms of one answer set.

    `atoms` is the shown-atom list of a solver run.  For opt formulations the
    length is read from shortest(l) and the word truncated to l symbols.
    """
    synchro: dict[int, int] = {}
    shortest: int | None = None
    for atom in atoms:
        m = _ATOM_RE.fullmatch(atom.strip().rstrip("."))
        if not m:
            continue
        try:
            name, args = m.group(1), [int(v) for v in m.group(2).split(",")]
        except ValueError:  # an empty argument, as in synchro(1,)
            raise DecodeError(f"bad atom {atom!r}") from None
        if name == "synchro":
            if len(args) != 2:
                raise DecodeError(f"bad synchro atom {atom!r}")
            i, x = args
            if i in synchro:
                raise DecodeError(f"duplicate synchro atom at step {i}")
            synchro[i] = x
        elif name == "shortest":
            if len(args) != 1 or shortest is not None:
                raise DecodeError(f"bad or duplicate shortest atom {atom!r}")
            shortest = args[0]

    is_opt = p.formulation.endswith("opt")
    if is_opt:
        if shortest is None:
            raise DecodeError("optimization answer set carries no shortest(l) atom")
        length = shortest
    else:
        length = p.bound_c
    word = []
    for i in range(1, length + 1):
        if i not in synchro:
            raise DecodeError(f"missing synchro atom for step {i}")
        word.append(synchro[i])
    return tuple(word), shortest
