import itertools

import pytest

from syncword.automaton import (
    Automaton,
    cubic_length_bound,
    generate_cerny,
    generate_random,
    is_synchronizing_word,
    parse_fa,
)
from syncword import exact
from syncword.errors import ResourceLimitError, SoundnessError
from syncword.exact import (
    check_synchronizable,
    greedy_sync,
    merge_bound,
    pair_merges,
    shortest_sync_bfs,
    triple_bound,
)

from conftest import A1_TEXT
from helpers.forward_bfs import forward_bfs
from helpers.pair_distances import pair_distances, triple_distances


def synchronizable_sweep(count, max_n=7, max_k=3, base_seed=1000):
    """Deterministic sample of synchronizable random automata."""
    import random

    out = []
    seed = base_seed
    while len(out) < count:
        rng = random.Random(seed)
        a = generate_random(rng.randint(2, max_n), rng.randint(1, max_k), seed)
        seed += 1
        if check_synchronizable(a):
            out.append(a)
    return out


def brute_force_optimum(a, cap=12):
    """Independent oracle: exhaustive enumeration of all words by length."""
    for length in range(0, cap + 1):
        for w in itertools.product(range(1, a.k + 1), repeat=length):
            if is_synchronizing_word(a, w):
                return length
    return None


class TestCheckSynchronizable:
    def test_a1(self, a1):
        assert check_synchronizable(a1)

    def test_swap_automaton(self, swap):
        assert not check_synchronizable(swap)

    def test_cerny5(self):
        assert check_synchronizable(generate_cerny(5))

    def test_one_state(self, one_state):
        assert check_synchronizable(one_state)

    def test_agrees_with_bfs_presence(self):
        for seed in range(60):
            a = generate_random(2 + seed % 5, 1 + seed % 3, seed)
            assert check_synchronizable(a) == (shortest_sync_bfs(a) is not None)


class TestPairMerges:
    """d(p,q) for every pair some word merges, in the order the BFS reaches them."""

    def test_matches_the_reference(self):
        cases = [generate_random(n, k, seed)
                 for n in range(2, 15) for k in range(1, 4) for seed in range(20)]
        for a in cases + [generate_cerny(n) for n in range(2, 13)]:
            merges = pair_merges(a)
            expected = {1 << p - 1 | 1 << q - 1: d for (p, q), d in pair_distances(a).items()}
            assert merges == expected, a
            # greedy_sync reads the BFS order: d never decreases along it.
            assert list(merges.values()) == sorted(merges.values()), a


class TestMergeBound:
    """The longest shortest pair-merging word: a lower bound on the shortest
    synchronizing length, None iff the automaton is not synchronizable."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cerny(self, n):
        assert merge_bound(generate_cerny(n)) == n * (n - 1) // 2

    def test_every_two_state_automaton(self):
        # With two states, merging the one pair is synchronizing.
        maps = list(itertools.product((1, 2), repeat=2))
        for k in (1, 2, 3):
            for cols in itertools.product(maps, repeat=k):
                a = Automaton(2, k, tuple(zip(*cols)))
                res = shortest_sync_bfs(a)
                assert merge_bound(a) == (None if res is None else res.length), a

    def test_lower_bound_on_sweep(self):
        for a in synchronizable_sweep(60):
            assert merge_bound(a) <= shortest_sync_bfs(a).length

    def test_none_iff_not_synchronizable(self):
        cases = [generate_random(2 + seed % 9, 1 + seed % 3, seed) for seed in range(150)]
        cases += [two_class_automaton(2 + seed % 9, 1 + seed % 3, seed) for seed in range(50)]
        kinds = set()
        for a in cases:
            synchronizable = forward_bfs(a) is not None
            assert (merge_bound(a) is not None) == check_synchronizable(a) == synchronizable
            kinds.add(synchronizable)
        assert kinds == {True, False}

    def test_one_state(self, one_state):
        assert merge_bound(one_state) == 0


class TestTripleBound:
    """The longest shortest triple-merging word L3: a lower bound at least L,
    None iff the automaton is not synchronizable."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 10) for k in (2, 3)])
    def test_matches_the_reference(self, n, k):
        for seed in range(30):
            a = generate_random(n, k, seed)
            expected = max(triple_distances(a).values()) if check_synchronizable(a) else None
            assert triple_bound(a) == expected, (n, k, seed)

    def test_cerny(self):
        # The reference `triple_distances` gives the same maxima.
        lengths = [triple_bound(generate_cerny(n)) for n in range(3, 11)]
        assert lengths == [4, 8, 13, 20, 28, 37, 48, 60]

    def test_between_the_pair_bound_and_the_length_on_the_acceptance_sweep(self):
        from test_acceptance import _sweep

        for a in _sweep(200, max_k=3):
            assert merge_bound(a) <= triple_bound(a) <= shortest_sync_bfs(a).length, a

    def test_none_iff_not_synchronizable(self):
        cases = [generate_random(2 + seed % 9, 1 + seed % 3, seed) for seed in range(150)]
        cases += [two_class_automaton(2 + seed % 9, 1 + seed % 3, seed) for seed in range(50)]
        for a in cases:
            assert (triple_bound(a) is None) == (forward_bfs(a) is None), a

    def test_pair_bound_below_three_states(self, one_state):
        maps = list(itertools.product((1, 2), repeat=2))
        for k in (1, 2, 3):
            for cols in itertools.product(maps, repeat=k):
                a = Automaton(2, k, tuple(zip(*cols)))
                assert triple_bound(a) == merge_bound(a), a
        assert triple_bound(one_state) == merge_bound(one_state) == 0


class TestShortestSyncBfs:
    def test_a1_optimum_and_witness(self, a1):
        res = shortest_sync_bfs(a1)
        assert res.length == 4
        assert res.witness == (2, 1, 1, 2)
        assert res.sink == 1

    def test_a1_level_structure(self, a1):
        # BFS levels: d1 reaches {s1,s2}, d2 {s2,s3}, d3 {s1,s3}, d4 {s1};
        # equivalently no word shorter than 4 synchronizes.
        assert brute_force_optimum(a1, cap=4) == 4

    def test_one_state(self, one_state):
        res = shortest_sync_bfs(one_state)
        assert res.length == 0 and res.witness == () and res.sink == 1

    def test_cerny4(self):
        assert shortest_sync_bfs(generate_cerny(4)).length == 9

    def test_not_synchronizable_returns_none(self, swap):
        assert shortest_sync_bfs(swap) is None

    def test_witness_verifies_and_matches_brute_force(self):
        for a in synchronizable_sweep(30):
            res = shortest_sync_bfs(a)
            assert is_synchronizing_word(a, res.witness)
            assert len(res.witness) == res.length
            if a.k ** res.length <= 10**6:
                assert brute_force_optimum(a, cap=res.length) == res.length

    def test_lexicographically_smallest_witness(self):
        for a in synchronizable_sweep(15, max_n=5, max_k=2):
            res = shortest_sync_bfs(a)
            candidates = [
                w
                for w in itertools.product(range(1, a.k + 1), repeat=res.length)
                if is_synchronizing_word(a, w)
            ]
            assert res.witness == min(candidates)

    def test_visited_cap(self):
        with pytest.raises(ResourceLimitError):
            shortest_sync_bfs(generate_cerny(8), max_visited=3)

    @pytest.mark.parametrize("budget", [{"max_visited": 20}, {"time_budget": 1e-9}],
                             ids=["max-visited", "time-budget"])
    def test_budget_runs_the_pair_check_first(self, budget):
        # Either budget trips before the search stores n^2 = 100 sets; the pair
        # check then tells a non-synchronizable automaton from a budget overrun.
        assert shortest_sync_bfs(generate_random(10, 2, 6), **budget) is None
        with pytest.raises(ResourceLimitError):
            shortest_sync_bfs(generate_cerny(10), **budget)

    def test_visited_cap_boundary(self):
        # Černý 8 is solved with exactly 77 stored subsets on the two sides
        # together: the full set, the eight singletons and the sets reached
        # from them.
        assert shortest_sync_bfs(generate_cerny(8), max_visited=77).length == 49
        with pytest.raises(ResourceLimitError):
            shortest_sync_bfs(generate_cerny(8), max_visited=76)

    @pytest.mark.parametrize("a, length, witness, sink", [
        (generate_cerny(9), 64, ((2,) + (1,) * 8) * 7 + (2,), 1),
        (generate_cerny(17), 256, ((2,) + (1,) * 16) * 15 + (2,), 1),
        (generate_cerny(40), 1521, ((2,) + (1,) * 39) * 38 + (2,), 1),
        (generate_random(9, 2, 0), 5, (2, 2, 2, 2, 2), 9),
        (generate_random(9, 3, 1), 6, (3, 1, 3, 3, 2, 1), 2),
        (generate_random(17, 2, 0), 9, (1, 1, 2, 1, 1, 1, 2, 2, 1), 16),
        (generate_random(17, 3, 1), 7, (2, 1, 3, 3, 2, 1, 3), 1),
        (generate_random(25, 2, 0), 13, (2, 2, 1, 2, 1, 1, 1, 1, 2, 1, 1, 2, 2), 24),
        (generate_random(25, 2, 1), 14, (1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1), 1),
    ], ids=["cerny9", "cerny17", "cerny40", "random-9-2-0", "random-9-3-1", "random-17-2-0",
            "random-17-3-1", "random-25-2-0", "random-25-2-1"])
    def test_frozen_results(self, a, length, witness, sink):
        # Pins (length, witness, sink) on masks wider than one byte.
        res = shortest_sync_bfs(a)
        assert (res.length, res.witness, res.sink) == (length, witness, sink)


def two_class_automaton(n, k, seed):
    """Random automaton whose every symbol keeps or swaps the odd and the even
    states, so every image of Q meets both: it is not synchronizable."""
    import random

    rng = random.Random(seed)
    classes = (range(2, n + 1, 2), range(1, n + 1, 2))  # indexed by s % 2
    rows = [[] for _ in range(n)]
    for _ in range(k):
        swap = rng.random() < 0.5
        for s in range(1, n + 1):
            rows[s - 1].append(rng.choice(classes[(s + swap) % 2]))
    return Automaton(n, k, tuple(map(tuple, rows)))


class TestAgainstForwardBfs:
    """The two-way search gives what the forward-only BFS gives: the same
    length, witness and sink, or None."""

    @staticmethod
    def key(res):
        return None if res is None else (res.length, res.witness, res.sink)

    def test_random_and_two_class_automata(self, monkeypatch):
        import random

        from syncword import exact

        # Sizes of the last levels tested: the search grows the smaller side
        # next, so when it returns None without a pair check that side is the
        # one that ran dry.  The pair check runs once the sides store more
        # than n^2 sets.
        sizes, checks = [], []
        meet, check = exact._meet, exact.check_synchronizable
        monkeypatch.setattr(exact, "_meet", lambda fwd, level, cols, top:
                            sizes.append((len(fwd), len(level))) or meet(fwd, level, cols, top))
        monkeypatch.setattr(exact, "check_synchronizable",
                            lambda a: checks.append(a) or check(a))
        rngs = [random.Random(seed) for seed in range(3000)]
        cases = [generate_random(r.randint(1, 14), r.randint(1, 3), seed)
                 for seed, r in enumerate(rngs[:2000])]
        cases += [two_class_automaton(r.randint(2, 14), r.randint(1, 3), seed)
                  for seed, r in enumerate(rngs[2000:], start=2000)]
        kinds = {"synchronizable": 0, "forward ran dry": 0, "backward ran dry": 0,
                 "pair check": 0}
        for a in cases:
            sizes.clear()
            checks.clear()
            expected = self.key(forward_bfs(a))
            assert self.key(shortest_sync_bfs(a)) == expected, a
            f, b = sizes[-1]
            kinds["synchronizable" if expected else "pair check" if checks else
                  "backward ran dry" if f > b else "forward ran dry"] += 1
        assert kinds.pop("pair check") >= 20, kinds
        assert min(kinds.values()) > 200, kinds

    def test_cerny(self):
        for n in range(2, 19):
            a = generate_cerny(n)
            assert self.key(shortest_sync_bfs(a)) == self.key(forward_bfs(a)), n


class TestSizeGate:
    def test_cerny30_hands_few_forward_sets_to_the_subset_test(self, monkeypatch):
        # A set fits only inside one at least as large, so a backward level
        # whose largest set is smaller than every forward set is not scanned.
        # Without that gate, Černý 30's search hands 34,975 forward sets to
        # `_meet`; with it, 5,327.
        handed = []
        meet = exact._meet
        monkeypatch.setattr(exact, "_meet", lambda fwd, *rest:
                            handed.append(len(fwd)) or meet(fwd, *rest))
        res = shortest_sync_bfs(generate_cerny(30))
        assert (res.length, res.witness, res.sink) == (841, ((2,) + (1,) * 29) * 28 + (2,), 1)
        assert sum(handed) <= 6000, sum(handed)


class TestImageKernel:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 33])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_set_image(self, n, k):
        import random

        from syncword.exact import _byte_tables, _image, _image_bits

        a = generate_random(n, k, 100 * n + k)
        tabs = _byte_tables(_image_bits(a))
        rng = random.Random(n * k)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]
        for mask in masks:
            states = [s for s in range(1, n + 1) if mask >> (s - 1) & 1]
            for x in range(1, k + 1):
                expected = sum(1 << (t - 1) for t in {a.delta[s - 1][x - 1] for s in states})
                assert _image(mask, tabs[x - 1]) == expected


class TestGreedySync:
    def test_a1(self, a1):
        w = greedy_sync(a1)
        assert is_synchronizing_word(a1, w)
        assert len(w) >= 4  # never beats the certified optimum

    def test_one_state(self, one_state):
        assert greedy_sync(one_state) == ()

    def test_not_synchronizable(self, swap):
        assert greedy_sync(swap) is None

    @pytest.mark.parametrize("a, word", [
        (parse_fa(A1_TEXT), (1, 1, 2, 1, 1, 2)),
        (generate_cerny(5), (1, 1, 1, 1, 2) * 4),
        (generate_random(8, 3, 5), (3, 3, 3, 3, 3, 1, 2)),
        (generate_random(7, 2, 3), (1, 1, 2, 1, 2, 1, 1)),
    ], ids=["a1", "cerny5", "random-8-3-5", "random-7-2-3"])
    def test_frozen_words(self, a, word):
        # Pins the pair order (the two lowest states first) and the symbol
        # each pair is merged by.
        assert greedy_sync(a) == word

    def test_unverified_word_raises_soundness_error(self, a1, monkeypatch):
        # A check, not an assert: it runs under python -O too.
        monkeypatch.setattr(exact, "is_synchronizing_word", lambda a, w: False)
        with pytest.raises(SoundnessError):
            greedy_sync(a1)

    def test_cerny6_bounds(self):
        a = generate_cerny(6)
        w = greedy_sync(a)
        assert is_synchronizing_word(a, w)
        assert 25 <= len(w) <= cubic_length_bound(6)

    def test_unchanged_on_the_acceptance_sweep(self):
        # The 200 words of acceptance criterion 6, pinned by digest: the
        # pair BFS's symbol choice and the pair order decide every one.
        import hashlib

        from test_acceptance import _sweep

        words = [greedy_sync(a) for a in _sweep(200, max_k=3)]
        assert sum(map(len, words)) == 744
        assert hashlib.sha256(repr(words).encode()).hexdigest() == (
            "936309af74ecda80baabaf87eb65a2c3183143fcc9a4f21d644165d882223e5c")

    def test_dominates_optimum_on_sweep(self):
        for a in synchronizable_sweep(40):
            w = greedy_sync(a)
            assert w is not None and is_synchronizing_word(a, w)
            assert len(w) >= shortest_sync_bfs(a).length


class TestUpperBoundInvariant:
    def test_optimum_below_cubic_bound(self):
        for a in synchronizable_sweep(40):
            assert shortest_sync_bfs(a).length <= cubic_length_bound(a.n)
        for n in range(2, 9):
            assert shortest_sync_bfs(generate_cerny(n)).length <= cubic_length_bound(n)


class TestPermutationAutomata:
    def test_permutations_never_synchronize(self):
        # any permutation alphabet preserves set cardinality
        a = parse_fa("3 2\n2 3\n3 1\n1 2\n")
        assert not check_synchronizable(a)
        assert shortest_sync_bfs(a) is None
        assert greedy_sync(a) is None
