"""Exact analysis: merge distances, pair check, bidirectional subset BFS, greedy heuristic.

A set of states is a bit mask of any width (bit s-1 set means state s is in
the set).  Pairs and triples are imaged state by state (`_image_bits`) in the
one merge-distance BFS, larger sets byte by byte (`_byte_tables`), which the
subset BFS also builds from preimages.

The subset BFS decides synchronizability itself: most searches end, with a
witness or with a side run dry, before they store n^2 sets, and the
O(k * n^2) pair check runs only in those that grow past that.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

from syncword.automaton import Automaton, Word, is_synchronizing_word
from syncword.errors import ResourceLimitError, SoundnessError


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


def _merge_bfs(bits: list[list[int]], size: int, below: dict[int, int]) -> dict[int, int]:
    """Backward BFS over the sets of `size` states (2 or 3) that some word merges.

    Maps each one's mask to d, the length of a shortest word merging it, in the
    order the BFS reaches them, so d never decreases.  `below` holds d of the
    smaller sets that merge, the singletons (d = 0) implied: x taking a set to
    one of them, S, gives the set d <= 1 + d(S).  Runs in O(C(n, size) * k).
    """
    singles = [1 << s for s in range(len(bits[0]))]
    below, top = dict.fromkeys(singles, 0) | below, max(below.values(), default=0) + 1
    # preds[T]: the sets some symbol takes to T, a set of `size` states;
    # preds[-d]: the sets some symbol takes to a smaller set of d - 1 (d <= top).
    preds: dict[int, list[int]] = {}
    for mask, states in zip(map(sum, itertools.combinations(singles, size)),
                            itertools.combinations(range(len(singles)), size)):
        for row in bits:
            img = 0
            for s in states:
                img |= row[s]
            preds.setdefault(-1 - below[img] if img in below else img, []).append(mask)
    dist: dict[int, int] = {}
    depth, level = 0, []
    while level or depth < top:  # level by level, in the order a FIFO queue would take
        depth, last, level = depth + 1, level, []
        for merged in (-depth, *last):
            for mask in preds.get(merged, ()):
                if mask not in dist:
                    dist[mask] = depth
                    level.append(mask)
    return dist


@lru_cache(maxsize=1)  # the check, the bound and each probe's encoding ask about one automaton
def pair_merges(a: Automaton) -> dict[int, int]:
    """d(p,q), the length of a shortest word merging p and q, keyed by the pair's
    two-bit mask in the BFS's order, d nondecreasing; a missing pair never merges."""
    return _merge_bfs(_image_bits(a), 2, {})


def merge_bound(a: Automaton) -> int | None:
    """Length of the longest shortest pair-merging word, or None iff some pair
    never merges.  Every synchronizing word merges every pair, so this is a
    lower bound on the shortest synchronizing length."""
    if not check_synchronizable(a):
        return None
    return max(pair_merges(a).values(), default=0)


def check_synchronizable(a: Automaton) -> bool:
    """Polynomial-time check: true iff a synchronizing word exists.

    An automaton is synchronizable iff every unordered state pair can be
    merged, which the pair-automaton BFS decides in O(n^2 * k).
    """
    return len(pair_merges(a)) == a.n * (a.n - 1) // 2


def triple_bound(a: Automaton) -> int | None:
    """L3, the longest shortest word merging a triple of states, or None iff
    some pair never merges; `merge_bound` when n <= 2.  Every synchronizing
    word merges every triple, so L3 >= L is a lower bound too.  The merge BFS
    over the triples from `pair_merges`, in O(n^3 * k).  Only `find_shortest`'s
    external searches run it, and, like the pair check, outside `--time-budget`."""
    if a.n <= 2 or not check_synchronizable(a):
        return merge_bound(a)
    return max(_merge_bfs(_image_bits(a), 3, pair_merges(a)).values())


def _columns(level: list[int], n: int) -> list[int]:
    """cols[s] of a level: bit i is set iff state s+1 is in level[i]."""
    rows = "".join([format(p, f"0{n}b") for p in reversed(level)])
    return [int(rows[n - 1 - s::n], 2) for s in range(n)]


def _meet(fwd: list[int], level: list[int], cols: list[int] | None, top: int) -> int | None:
    """The first set of `fwd` inside a set of `level`, whose largest set has `top`
    states, in fewer than n steps a set: a level of n sets or more comes with its
    `_columns`.  A set larger than `top` fits inside none, so it is skipped."""
    for s in fwd:
        if s.bit_count() > top:
            continue
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
    the shortest length with the lexicographically least witness, or None iff
    the automaton is not synchronizable: a side ran dry first, or the pair check
    failed.  That check runs once, at the first level boundary where the two
    sides store more than n^2 sets, or when a budget runs out before then.  More
    than `max_visited` sets stored on both sides, or `time_budget` seconds, raise
    ResourceLimitError on a synchronizable automaton.
    """
    full = (1 << a.n) - 1
    deadline = None if time_budget is None else time.monotonic() + time_budget
    tabs, pre_tabs = _byte_tables(_image_bits(a)), None  # preimage tables: on first use
    singles = [1 << s for s in range(a.n)]
    parent = {full: full}  # forward: the set each set was first reached from
    seen = dict.fromkeys([0] + singles)  # backward; the empty set 0 is never stored
    fwd, low = [full], a.n  # the forward level and its smallest set's size
    bwd = [(singles, singles, 1)]  # (level, columns, largest set's size); see _meet
    decided = False  # whether the pair check has found the automaton synchronizable

    def over(limit: str) -> None:
        """A budget ran out: None if the pair check says nothing synchronizes."""
        if decided or check_synchronizable(a):
            raise ResourceLimitError(limit)

    meet = _meet(fwd, *bwd[0])
    while meet is None:
        if not decided and len(parent) + len(seen) - 1 > a.n * a.n:
            if not check_synchronizable(a):  # cheaper than the levels still to come
                return None
            decided = True
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
                return over(f"time budget {time_budget}s exceeded in power-set BFS")
            for x_tabs in side_tabs:
                nxt, m = 0, cur  # _image(cur, x_tabs), inlined
                for t in x_tabs:
                    nxt |= t[m & 255]
                    m >>= 8
                if nxt not in found:
                    found[nxt] = cur
                    if max_visited is not None and len(parent) + len(seen) - 1 > max_visited:
                        return over(f"visited-set cap {max_visited} exceeded")
                    level.append(nxt)
        if not level:  # a side ran dry before the sides met: nothing synchronizes Q
            return None
        sizes = map(int.bit_count, level)
        if back:
            bwd.append((level, _columns(level, a.n) if len(level) >= a.n else None, max(sizes)))
        else:
            fwd, low = level, min(sizes)
        meet = _meet(fwd, *bwd[-1]) if low <= bwd[-1][2] else None
    word, mask = [], meet
    while mask != full:  # the least symbol mapping parent[mask] to mask reached it
        prev = parent[mask]
        word.insert(0, next(x for x, t in enumerate(tabs, start=1) if _image(prev, t) == mask))
        mask = prev
    mask = meet  # then, level by level, the least symbol whose image lies in the next
    for level, cols, top in reversed(bwd[:-1]):
        for x, x_tabs in enumerate(tabs, start=1):
            img = _image(mask, x_tabs)
            if _meet((img,), level, cols, top):
                break
        word.append(x)
        mask = img
    return BfsResult(len(word), tuple(word), mask.bit_length())


def greedy_sync(a: Automaton) -> Word | None:
    """Classic merge-a-pair greedy heuristic.

    Repeatedly appends a shortest word merging the two lowest states of the
    current image until a single state remains.  Each round shrinks the image
    by at least one state and appends at most C(n,2) symbols, so the result
    length is O(n^3).  A pair's next symbol is the one the pair BFS reached it
    by: the least taking it to one state, else the least into the pair first
    in `pair_merges` one step closer.  None iff the automaton is not synchronizable.
    """
    if not check_synchronizable(a):
        return None
    tabs = _byte_tables(_image_bits(a))
    rank = dict.fromkeys([1 << s for s in range(a.n)], -1)  # single states first,
    rank |= {pair: i for i, pair in enumerate(pair_merges(a))}  # then in BFS order; unmerged last
    image = (1 << a.n) - 1
    word: list[int] = []
    while image & (image - 1):
        rest = image & (image - 1)
        pair = image ^ (rest & (rest - 1))  # the two lowest states
        while pair & (pair - 1):
            x = min(range(1, a.k + 1),
                    key=lambda y: rank.get(_image(pair, tabs[y - 1]), len(rank)))
            word.append(x)
            image = _image(image, tabs[x - 1])
            pair = _image(pair, tabs[x - 1])
    if not is_synchronizing_word(a, word):
        raise SoundnessError(f"greedy word of length {len(word)} does not synchronize")
    return tuple(word)
