"""Exact analysis: synchronizability check, power-set BFS, greedy heuristic.

State subsets are bit masks (bit s-1 set means state s is in the set), so the
n <= 64 fast path and the unbounded fallback share one code path via Python's
arbitrary-precision integers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from syncword.automaton import Automaton, Word, apply_word, is_synchronizing_word
from syncword.errors import ResourceLimitError


@dataclass(frozen=True)
class BfsResult:
    """Certified optimum: no synchronizing word shorter than `length` exists."""

    length: int
    witness: Word
    sink: int


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _image_tables(a: Automaton) -> list[list[int]]:
    """succ[x-1][s-1] = delta(s, x) - 1, for bit-level set images."""
    return [[a.delta[s][x] - 1 for s in range(a.n)] for x in range(a.k)]


def _set_image(mask: int, succ: list[int]) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= 1 << succ[low.bit_length() - 1]
        m ^= low
    return out


def _pair_index(p: int, q: int, n: int) -> int:
    # Unordered pair {p, q}, 1 <= p < q <= n, packed into 0..C(n,2)-1.
    if p > q:
        p, q = q, p
    return (p - 1) * n - (p * (p - 1)) // 2 + (q - p - 1)


def _pair_merge_bfs(a: Automaton) -> tuple[list[int], list[int]]:
    """Backward BFS on the pair automaton from the merged (diagonal) pairs.

    Returns (dist, sym) indexed by packed pair: dist is the length of a
    shortest word merging the pair (-1 if none), sym the first symbol of one
    such word.  Runs in O(n^2 * k).
    """
    n, k = a.n, a.k
    npairs = n * (n - 1) // 2
    dist = [-1] * npairs
    sym = [0] * npairs
    # Backward edges: applying x to {p,q} yields {p',q'}; so from {p',q'} we
    # can reach {p,q} going backward.
    preds: list[list[tuple[int, int]]] = [[] for _ in range(npairs)]
    queue: deque[int] = deque()
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            idx = _pair_index(p, q, n)
            for x in range(1, k + 1):
                pp, qq = a.delta[p - 1][x - 1], a.delta[q - 1][x - 1]
                if pp == qq:
                    if dist[idx] == -1:
                        dist[idx] = 1
                        sym[idx] = x
                        queue.append(idx)
                else:
                    preds[_pair_index(pp, qq, n)].append((idx, x))
    while queue:
        cur = queue.popleft()
        for idx, x in preds[cur]:
            if dist[idx] == -1:
                dist[idx] = dist[cur] + 1
                sym[idx] = x
                queue.append(idx)
    return dist, sym


def check_synchronizable(a: Automaton) -> bool:
    """Polynomial-time check: true iff a synchronizing word exists.

    An automaton is synchronizable iff every unordered state pair can be
    merged, which the pair-automaton BFS decides in O(n^2 * k).
    """
    if a.n == 1:
        return True
    dist, _ = _pair_merge_bfs(a)
    return all(d >= 0 for d in dist)


def shortest_sync_bfs(a: Automaton, max_visited: int | None = None,
                      time_budget: float | None = None) -> BfsResult | None:
    """Breadth-first search over state subsets from the full set Q.

    Returns the certified shortest length with a witness, or None if the
    automaton is not synchronizable.  Symbols are expanded in ascending order,
    so among equal-length witnesses the lexicographically smallest is
    returned.  Exceeding `max_visited` visited sets or `time_budget` seconds
    raises ResourceLimitError instead of thrashing.
    """
    n = a.n
    full = _full_mask(n)
    if n == 1:
        return BfsResult(0, (), 1)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    succ = _image_tables(a)
    # parent[mask] = (previous mask, symbol); the start set maps to itself.
    parent: dict[int, tuple[int, int]] = {full: (full, 0)}
    frontier = deque([full])

    def reconstruct(mask: int) -> BfsResult:
        word: list[int] = []
        cur = mask
        while cur != full:
            prev, x = parent[cur]
            word.append(x)
            cur = prev
        word.reverse()
        return BfsResult(len(word), tuple(word), mask.bit_length())

    while frontier:
        cur = frontier.popleft()
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError(f"time budget {time_budget}s exceeded during power-set BFS")
        for x in range(1, a.k + 1):
            nxt = _set_image(cur, succ[x - 1])
            if nxt in parent:
                continue
            parent[nxt] = (cur, x)
            if max_visited is not None and len(parent) > max_visited:
                raise ResourceLimitError(
                    f"visited-set cap {max_visited} exceeded during power-set BFS"
                )
            if nxt & (nxt - 1) == 0:
                return reconstruct(nxt)
            frontier.append(nxt)
    return None


def greedy_sync(a: Automaton) -> Word | None:
    """Classic merge-a-pair greedy heuristic.

    Repeatedly appends a shortest word merging two states of the current
    image until a single state remains.  Each round shrinks the image by at
    least one state and appends at most C(n,2) symbols, so the result length
    is O(n^3).  Returns None iff the automaton is not synchronizable.
    """
    n = a.n
    if n == 1:
        return ()
    dist, sym = _pair_merge_bfs(a)
    if any(d < 0 for d in dist):
        return None
    image = set(range(1, n + 1))
    word: list[int] = []
    while len(image) > 1:
        ordered = sorted(image)
        p, q = ordered[0], ordered[1]
        while p != q:
            x = sym[_pair_index(p, q, n)]
            word.append(x)
            image = {a.delta[s - 1][x - 1] for s in image}
            p, q = a.delta[p - 1][x - 1], a.delta[q - 1][x - 1]
    assert is_synchronizing_word(a, word)
    return tuple(word)
