"""Test-only reference: the forward-only power-set BFS from the full set Q.

It expands symbols in ascending order and keeps each set's first-discoverer
parent, so it returns the lexicographically smallest shortest synchronizing
word.  `syncword.exact.shortest_sync_bfs` must return the same result.
"""

from collections import deque

from syncword.exact import BfsResult, _byte_tables, _image, _image_bits


def forward_bfs(a):
    full = (1 << a.n) - 1
    tabs = _byte_tables(_image_bits(a))
    parent = {full: full}
    frontier = deque([full])
    sink = full
    while sink & (sink - 1):
        if not frontier:
            return None
        cur = frontier.popleft()
        for t in tabs:
            nxt = _image(cur, t)
            if nxt not in parent:
                parent[nxt] = cur
                frontier.append(nxt)
                if nxt & (nxt - 1) == 0:
                    sink = nxt
                    break
    word = []
    mask = sink
    while mask != full:
        prev = parent[mask]
        word.append(next(x for x, t in enumerate(tabs, start=1) if _image(prev, t) == mask))
        mask = prev
    return BfsResult(len(word), tuple(reversed(word)), sink.bit_length())
