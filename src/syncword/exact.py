"""Exact analysis: synchronizability check, power-set BFS, greedy heuristic.

A set of states is a bit mask of any width (bit s-1 set means state s is in
the set): a pair is a two-bit mask, a single state a one-bit mask.  Pairs are
imaged state by state (`_image_bits`), larger sets byte by byte (`_image`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from syncword.automaton import Automaton, Word, is_synchronizing_word
from syncword.errors import ResourceLimitError


@dataclass(frozen=True)
class BfsResult:
    """Certified optimum: no synchronizing word shorter than `length` exists."""

    length: int
    witness: Word
    sink: int


def _image_bits(a: Automaton) -> list[list[int]]:
    """bits[x-1][s-1] = 1 << (delta(s, x) - 1): the image of state s as a mask."""
    return [[1 << (a.delta[s][x] - 1) for s in range(a.n)] for x in range(a.k)]


def _byte_tables(bits: list[list[int]]) -> list[list[list[int]]]:
    """tabs[x-1][j][m] = image under x of the states whose bits in byte j are m."""
    tabs = [[[0] for _ in range(0, len(row), 8)] for row in bits]
    for row, chunks in zip(bits, tabs):
        for s, img in enumerate(row):  # state s+1 doubles its byte's table
            chunks[s >> 3] += [m | img for m in chunks[s >> 3]]
    return tabs


def _image(mask: int, tabs: list[list[int]]) -> int:
    """Image of the state set `mask` under one symbol's `_byte_tables` entry."""
    out = 0
    for t in tabs:
        out |= t[mask & 255]
        mask >>= 8
    return out


def _pair_merge_bfs(bits: list[list[int]]) -> dict[int, int]:
    """Backward BFS on the pair automaton from the merged (diagonal) pairs.

    Returns sym, keyed by the two-bit mask of every mergeable pair: the first
    symbol of a shortest word merging the pair.  Runs in O(n^2 * k).
    """
    n = len(bits[0])
    sym: dict[int, int] = {}
    # Backward edges: applying x to {p,q} yields {p',q'}; so from {p',q'} we
    # can reach {p,q} going backward.
    preds: dict[int, list[tuple[int, int]]] = {}
    queue: deque[int] = deque()
    for p in range(n):
        for q in range(p + 1, n):
            pair = 1 << p | 1 << q
            for x, row in enumerate(bits, start=1):
                img = row[p] | row[q]
                if img & (img - 1):
                    preds.setdefault(img, []).append((pair, x))
                elif pair not in sym:
                    sym[pair] = x
                    queue.append(pair)
    while queue:
        for pair, x in preds.get(queue.popleft(), ()):
            if pair not in sym:
                sym[pair] = x
                queue.append(pair)
    return sym


def check_synchronizable(a: Automaton) -> bool:
    """Polynomial-time check: true iff a synchronizing word exists.

    An automaton is synchronizable iff every unordered state pair can be
    merged, which the pair-automaton BFS decides in O(n^2 * k).
    """
    return len(_pair_merge_bfs(_image_bits(a))) == a.n * (a.n - 1) // 2


def shortest_sync_bfs(a: Automaton, max_visited: int | None = None,
                      time_budget: float | None = None) -> BfsResult | None:
    """Breadth-first search over state subsets from the full set Q.

    Returns the certified shortest length with a witness, or None if the
    automaton is not synchronizable.  Symbols are expanded in ascending order,
    so among equal-length witnesses the lexicographically smallest is
    returned.  Exceeding `max_visited` visited sets or `time_budget` seconds
    raises ResourceLimitError instead of thrashing.
    """
    full = (1 << a.n) - 1
    deadline = None if time_budget is None else time.monotonic() + time_budget
    tabs = _byte_tables(_image_bits(a))
    # parent[mask] = the mask it was first reached from; Q maps to itself.
    parent = {full: full}
    frontier = deque([full])
    sink = full
    while sink & (sink - 1):
        if not frontier:
            return None
        cur = frontier.popleft()
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError(f"time budget {time_budget}s exceeded during power-set BFS")
        for x_tabs in tabs:
            nxt, m = 0, cur  # _image(cur, x_tabs), inlined
            for t in x_tabs:
                nxt |= t[m & 255]
                m >>= 8
            if nxt in parent:
                continue
            parent[nxt] = cur
            if max_visited is not None and len(parent) > max_visited:
                raise ResourceLimitError(
                    f"visited-set cap {max_visited} exceeded during power-set BFS"
                )
            if nxt & (nxt - 1) == 0:
                sink = nxt
                break
            frontier.append(nxt)
    # The least symbol mapping parent[mask] to mask is the one that reached it.
    word: list[int] = []
    mask = sink
    while mask != full:
        prev = parent[mask]
        word.append(next(x for x, t in enumerate(tabs, start=1) if _image(prev, t) == mask))
        mask = prev
    return BfsResult(len(word), tuple(reversed(word)), sink.bit_length())


def greedy_sync(a: Automaton) -> Word | None:
    """Classic merge-a-pair greedy heuristic.

    Repeatedly appends a shortest word merging the two lowest states of the
    current image until a single state remains.  Each round shrinks the image
    by at least one state and appends at most C(n,2) symbols, so the result
    length is O(n^3).  Returns None iff the automaton is not synchronizable.
    """
    bits = _image_bits(a)
    sym = _pair_merge_bfs(bits)
    if len(sym) < a.n * (a.n - 1) // 2:
        return None
    tabs = _byte_tables(bits)
    image = (1 << a.n) - 1
    word: list[int] = []
    while image & (image - 1):
        rest = image & (image - 1)
        pair = image ^ (rest & (rest - 1))  # the two lowest states
        while pair & (pair - 1):
            x = sym[pair]
            word.append(x)
            image = _image(image, tabs[x - 1])
            pair = _image(pair, tabs[x - 1])
    assert is_synchronizing_word(a, word)
    return tuple(word)
