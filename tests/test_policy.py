"""The length search's bound policy, `driver._bounds`: it takes only bounds
and verdicts, so its probe lists follow from the shortest length alone.
Acceptance criterion 4 checks the replay against `find_shortest`."""

import pytest
from hypothesis import example, given, settings, strategies as st

from syncword.automaton import generate_random
from syncword.driver import _bounds
from syncword.errors import SoundnessError
from syncword.exact import check_synchronizable
from helpers.replay import replay_policy, replay_search


@st.composite
def searches(draw):
    """(length, low, d, cap, direct) with low <= length <= cap."""
    low = draw(st.integers(1, 60))
    length = low + draw(st.integers(0, 60))
    return (length, low, draw(st.integers(1, 70)), length + draw(st.integers(0, 500)),
            draw(st.booleans()))


class TestBoundPolicy:
    @settings(max_examples=500, deadline=None)
    @given(searches())
    @example((9, 6, 4, 10, False))  # Cerny 4 from the pair-merge bound
    @example((9, 8, 4, 10, True))  # Cerny 4's opt programs: 8, then 16 capped at 10
    @example((5, 5, 9, 99, False))  # the bound is the length, but far below d
    @example((7, 7, 9, 99, False))  # the bound is the length, d - 3 <= it < d
    @example((1, 1, 1, 1, False))
    def test_policy(self, search):
        length, low, d, cap, direct = search
        probes = replay_policy(length, low, d, cap, direct)  # it ends at the length
        # It starts at low, or at d when it is an opt program's or low < d - 3.
        assert probes[0][0] == min(max(low, d) if direct or low < d - 3 else low, cap)
        assert min(c for c, _ in probes) >= low
        if direct:  # the first SAT probe, at or above the length, returns it
            assert [v for _, v in probes].index("sat") == len(probes) - 1
        else:
            assert (length, "sat") in probes
            assert length == low or (length - 1, "unsat") in probes
        # Bisection stays strictly between the greatest UNSAT and the least SAT
        # bound so far, and no lower than that SAT bound minus the step, which
        # is 2 ** (i - 1) for probe i.
        lo, shortest = low - 1, None
        for i, (c, verdict) in enumerate(probes):
            if shortest is not None:
                assert lo < c < shortest and c >= shortest - 2 ** (i - 1)
            if verdict == "sat":
                shortest = c
            else:
                lo = c
        # With K = ceil(log2(cap - low + 1)): the climb's UNSAT probes are at
        # least low + 2**i - 1 (doubling: low * 2**i) and below cap, so at most
        # K; then one SAT probe.  The bisection halves an interval of at most
        # cap - low + 1 bounds at most K times, and the floor, whose step
        # doubles every probe, cuts it without halving at most K times more.
        k = (cap - low).bit_length()
        assert len(probes) <= 3 * k + 1

    @pytest.mark.parametrize("direct", [False, True])
    def test_unsat_at_the_cap_is_a_soundness_error(self, direct):
        policy = _bounds(3, 4, 10, direct)
        probes = [next(policy)]
        with pytest.raises(SoundnessError, match="up to the length bound 10 "):
            while True:
                probes.append(policy.send(None))
        assert probes[-1] == 10


def _probe_counts(method, ns):
    """Probes per n over the synchronizable random k = 2 automata of seeds 0..39."""
    counts = []
    for n in ns:
        automata = (generate_random(n, 2, seed) for seed in range(40))
        counts.append(sum(len(replay_search(a, method)) for a in automata
                          if check_synchronizable(a)))
    return counts


@pytest.mark.parametrize("method, counts", [
    # Start at L, or at d = ceil(2*sqrt(n)) when L < d - 3.
    ("sat-internal", [62, 65, 96, 125, 141, 165, 161]),
    # Start at the triple-merge bound instead when L >= d - 3.
    ("sat-external", [43, 35, 60, 75, 81, 120, 139]),
])
def test_readme_probe_table(method, counts):
    assert _probe_counts(method, [6, 7, 8, 10, 12, 16, 20]) == counts
