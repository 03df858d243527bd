"""Exact analysis: synchronizability check, bidirectional subset BFS, greedy heuristic.

A set of states is a bit mask of any width (bit s-1 set means state s is in
the set).  Pairs are imaged state by state (`_image_bits`), larger sets byte
by byte (`_byte_tables`), which the BFS also builds from preimages.
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


def _columns(level: list[int], n: int) -> list[int]:
    """cols[s] of a level: bit i is set iff state s+1 is in level[i]."""
    rows = [format(p, f"0{n}b") for p in level]
    return [int("".join(col)[::-1], 2) for col in list(zip(*rows))[::-1]]


def _meet(fwd: list[int], level: list[int], cols: list[int] | None) -> int | None:
    """The first set of `fwd` inside a set of `level`, in fewer than n steps a set:
    a level of n sets or more comes with its `_columns`."""
    for s in fwd:
        if cols is None:
            for p in level:
                if s & p == s:
                    return s
        else:
            # The sets holding every state of s seen so far, lowest state first.
            common, m = cols[(s & -s).bit_length() - 1], s & (s - 1)
            while m and common:
                low = m & -m
                common &= cols[low.bit_length() - 1]
                m ^= low
            if common:
                return s
    return None


def shortest_sync_bfs(a: Automaton, max_visited: int | None = None,
                      time_budget: float | None = None) -> BfsResult | None:
    """Bidirectional BFS over state subsets (Kisielewicz, Kowalski & Szykula 2013).

    Forward levels hold the images w(Q), backward levels the nonempty preimages
    w^-1(q), each set at the first depth reaching it: a forward set of depth f
    inside a backward set of depth b is synchronized in f + b symbols.  Returns
    the shortest length with the lexicographically least witness, or None if a
    side runs dry first.  More than `max_visited` sets stored on both sides, or
    `time_budget` seconds, raise ResourceLimitError.
    """
    full = (1 << a.n) - 1
    deadline = None if time_budget is None else time.monotonic() + time_budget
    tabs, pre_tabs = _byte_tables(_image_bits(a)), None  # preimage tables: on first use
    singles = [1 << s for s in range(a.n)]
    parent = {full: full}  # forward: the set each set was first reached from
    seen = dict.fromkeys([0] + singles)  # backward; the empty set 0 is never stored
    fwd, bwd = [full], [(singles, singles)]  # singletons are their own columns
    meet = _meet(fwd, *bwd[0])
    while meet is None:
        back = len(fwd) > len(bwd[-1][0])  # grow the side with the smaller last level
        if back and pre_tabs is None:
            pre = [[0] * a.n for _ in range(a.k)]
            for s, row in enumerate(a.delta):
                for x, t in enumerate(row):
                    pre[x][t - 1] |= 1 << s
            pre_tabs = _byte_tables(pre)
        last, found, side_tabs = (bwd[-1][0], seen, pre_tabs) if back else (fwd, parent, tabs)
        level = []
        for cur in last:
            if deadline is not None and time.monotonic() > deadline:
                raise ResourceLimitError(f"time budget {time_budget}s exceeded in power-set BFS")
            for x_tabs in side_tabs:
                nxt, m = 0, cur  # _image(cur, x_tabs), inlined
                for t in x_tabs:
                    nxt |= t[m & 255]
                    m >>= 8
                if nxt not in found:
                    found[nxt] = cur
                    if max_visited is not None and len(parent) + len(seen) - 1 > max_visited:
                        raise ResourceLimitError(f"visited-set cap {max_visited} exceeded")
                    level.append(nxt)
        if not level:  # a side ran dry before the sides met: nothing synchronizes Q
            return None
        if back:
            bwd.append((level, _columns(level, a.n) if len(level) >= a.n else None))
        else:
            fwd = level
        meet = _meet(fwd, *bwd[-1])
    word, mask = [], meet
    while mask != full:  # the least symbol mapping parent[mask] to mask reached it
        prev = parent[mask]
        word.insert(0, next(x for x, t in enumerate(tabs, start=1) if _image(prev, t) == mask))
        mask = prev
    mask = meet  # then, level by level, the least symbol whose image lies in the next
    for level, cols in reversed(bwd[:-1]):
        x = next(x for x, t in enumerate(tabs, start=1) if _meet([_image(mask, t)], level, cols))
        word.append(x)
        mask = _image(mask, tabs[x - 1])
    return BfsResult(len(word), tuple(word), mask.bit_length())


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
