#!/usr/bin/env python3
"""Stand-in ASP solver for the benchmark, with clingo-style output framing.

Reads the instance facts and the length bound from an emitted program and
answers with a shortest synchronizing word found by its own subset BFS,
padded to the bound for the decision formulations (a synchronizing word
stays synchronizing when extended).  It imports nothing from syncword, so its
cost depends only on the automaton, not on the code under test.

Usage: asp_stub.py FILE.lp   (exit 10/30 with an answer, 20 without)
"""

import re
import sys

FACT_RE = re.compile(r"(state|symbol|transition)\(([0-9,]+)\)\.")
STEP_RE = re.compile(r"step\(1\.\.(\d+)\)\.")
SHORTEST_RE = re.compile(r"1 \{ shortest\(L\) : L = 1\.\.(\d+) \} 1\.")


def shortest_word(n, k, delta):
    """Lexicographically least shortest word merging all of 1..n, and its sink."""
    full = (1 << n) - 1
    parent = {full: None}
    layer = [full]
    while layer:
        nxt = []
        for mask in layer:
            for x in range(1, k + 1):
                image = 0
                for s in range(n):
                    if mask >> s & 1:
                        image |= 1 << (delta[(s + 1, x)] - 1)
                if image in parent:
                    continue
                parent[image] = (mask, x)
                if image & (image - 1) == 0:
                    word = []
                    cur = image
                    while parent[cur] is not None:
                        cur, sym = parent[cur]
                        word.append(sym)
                    return word[::-1], image.bit_length()
                nxt.append(image)
        layer = nxt
    return None, None


def main():
    with open(sys.argv[1]) as fh:
        text = fh.read()
    states, symbols, delta = set(), set(), {}
    for m in FACT_RE.finditer(text):
        args = [int(v) for v in m.group(2).split(",")]
        if m.group(1) == "state":
            states.add(args[0])
        elif m.group(1) == "symbol":
            symbols.add(args[0])
        else:
            delta[(args[0], args[1])] = args[2]
    word, sink = shortest_word(max(states), max(symbols), delta)
    has_sink = "sink(F)" in text
    opt = SHORTEST_RE.search(text)
    bound = int((opt or STEP_RE.search(text)).group(1))
    if word is None or len(word) > bound:
        print("UNSATISFIABLE")
        return 20
    if not opt:
        # Each padding symbol moves the single remaining state along.
        for _ in range(bound - len(word)):
            word.append(1)
            sink = delta[(sink, 1)]
    atoms = [f"synchro({i},{x})" for i, x in enumerate(word, 1)]
    if opt:
        atoms.append(f"shortest({len(word)})")
    if has_sink:
        atoms.append(f"sink({sink})")
    print("Answer: 1")
    print(" ".join(atoms))
    if opt:
        print(f"Optimization: {len(word)}")
        print("OPTIMUM FOUND")
        return 30
    print("SATISFIABLE")
    return 10


if __name__ == "__main__":
    sys.exit(main())
