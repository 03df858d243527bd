"""Test-only reference: the length of a shortest word merging each state pair
or triple.

Built round by round from the merged pairs {s, s}: a pair first reached in
round r has some symbol taking it to a pair of round r - 1, so d(p,q) = r.
Triples are built the same way, from the merged sets {s}.  It shares no code
with `syncword.exact`, whose pair and triple BFS the driver and encoder read.
"""

import itertools


def pair_distances(a):
    """{(p, q): d(p,q)} for every pair p < q that some word merges (1-based)."""
    known = {(s, s): 0 for s in range(1, a.n + 1)}
    rnd = 0
    while True:
        rnd += 1
        new = {}
        for p in range(1, a.n + 1):
            for q in range(p + 1, a.n + 1):
                if (p, q) in known:
                    continue
                for x in range(a.k):
                    img = tuple(sorted((a.delta[p - 1][x], a.delta[q - 1][x])))
                    if img in known:
                        new[p, q] = rnd
                        break
        if not new:
            return {pq: d for pq, d in known.items() if pq[0] != pq[1]}
        known.update(new)


def triple_distances(a):
    """{(p, q, t): d3(p,q,t)} for every triple p < q < t that some word merges
    into one state (1-based).

    Round r reaches each sorted set of one to three states, not reached
    before, that some symbol takes to a set of round r - 1; the singletons
    {s} are round 0.
    """
    sets = [c for size in (2, 3) for c in itertools.combinations(range(1, a.n + 1), size)]
    known = {(s,): 0 for s in range(1, a.n + 1)}
    rnd = 0
    while True:
        rnd += 1
        new = {}
        for states in sets:
            if states in known:
                continue
            for x in range(a.k):
                if tuple(sorted({a.delta[s - 1][x] for s in states})) in known:
                    new[states] = rnd
                    break
        if not new:
            return {t: d for t, d in known.items() if len(t) == 3}
        known.update(new)


def certifies_length(a, outcome):
    """Whether a decision search's probes prove its length m shortest.

    The probe at m is SAT, every SAT probe is at m or above and every UNSAT one
    below it, and either a probe at m - 1 is UNSAT, or m is the greatest pair
    distance, or (n >= 3) m is the greatest triple distance: lower bounds
    because every synchronizing word merges every pair and every triple.
    """
    m = outcome.length
    verdicts = {r.c: r.verdict for r in outcome.calls}
    return (verdicts.get(m) == "sat"
            and all((v == "sat") == (c >= m) for c, v in verdicts.items())
            and (verdicts.get(m - 1) == "unsat" or m == max(pair_distances(a).values())
                 or (a.n >= 3 and m == max(triple_distances(a).values()))))
