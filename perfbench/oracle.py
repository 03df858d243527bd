"""Independent correctness oracle for the benchmark.

Everything here works on the raw transition table (`delta[s-1][x-1]`) with
its own word application and subset BFS, and imports nothing from syncword,
so a defect in the code under test cannot hide itself.
"""

from __future__ import annotations


def final_states(delta, word) -> set[int]:
    """States reached from every state of the automaton after `word`."""
    k = len(delta[0])
    states = set(range(1, len(delta) + 1))
    for x in word:
        if not 1 <= x <= k:
            raise ValueError(f"symbol {x} outside 1..{k}")
        states = {delta[s - 1][x - 1] for s in states}
    return states


def shortest_length(delta) -> int:
    """Length of a shortest synchronizing word by plain subset BFS.

    Raises ValueError when the automaton is not synchronizable.  Only used
    offline and in tests: it is as slow as the BFS under test.
    """
    n, k = len(delta), len(delta[0])
    layer = {frozenset(range(1, n + 1))}
    seen = set(layer)
    length = 0
    while layer:
        if any(len(s) == 1 for s in layer):
            return length
        nxt = set()
        for subset in layer:
            for x in range(k):
                image = frozenset(delta[s - 1][x] for s in subset)
                if image not in seen:
                    seen.add(image)
                    nxt.add(image)
        layer = nxt
        length += 1
    raise ValueError("automaton is not synchronizable")


def check(delta, length, witness, expected: list[int]) -> str | None:
    """Problem with one reported (length, witness), or None when it is right.

    `expected` holds every reference length known for the instance (BFS in
    set-up, (n-1)^2 for Cerny, the committed default-seed lengths); all must
    agree with the reported length.
    """
    if len(witness) != length:
        return f"witness has {len(witness)} symbols but length {length} was reported"
    try:
        finals = final_states(delta, witness)
    except ValueError as exc:
        return f"witness is not a word over the alphabet: {exc}"
    if len(finals) != 1:
        return f"witness leaves {len(finals)} states, not one"
    for ref in expected:
        if length != ref:
            return f"reported length {length}, expected {ref}"
    return None
