"""Test-only replay of the length search: the driver's bound policy,
`syncword.driver._bounds`, driven by verdicts from a known shortest length
instead of a solver.  The verdict at c is SAT iff c >= length; an opt
program's SAT probe returns the length itself.  So a policy's probe lists can
be counted on any automaton whose length the BFS finds, without solving.
"""

from syncword.automaton import cubic_length_bound, default_initial_bound
from syncword.driver import CMD_ENV, _bounds
from syncword.exact import merge_bound, shortest_sync_bfs, triple_bound


def replay_policy(length, low, d, cap, direct=False):
    """[(c, verdict), ...] that `_bounds(low, d, cap, direct)` probes when the
    shortest word has `length`; it must end at that length."""
    policy, probes, found = _bounds(low, d, cap, direct), [], None
    while True:
        try:
            c = policy.send(found)
        except StopIteration as stop:
            assert stop.value == length, (stop.value, length, probes)
            return probes
        probes.append((c, "sat" if c >= length else "unsat"))
        found = (length if direct else c) if c >= length else None


def search_bounds(a, method):
    """(low, d, cap, direct) as `find_shortest` gives them to `_bounds` for a
    SAT or ASP `method` on a synchronizable automaton with n >= 2: the
    pair-merge bound L, raised to the triple-merge bound for an external
    method when L >= d - 3."""
    d, low = default_initial_bound(a.n), merge_bound(a)
    if method in CMD_ENV and low >= d - 3:
        low = triple_bound(a)
    return low, d, cubic_length_bound(a.n), method.endswith("opt")


def replay_search(a, method, length=None):
    """The probes `find_shortest(a, SearchConfig(method=method))` makes, from
    the BFS length (or `length`) alone."""
    if length is None:
        length = shortest_sync_bfs(a).length
    return replay_policy(length, *search_bounds(a, method))
