import copy
import hashlib
import math
import random

import pytest

from syncword.automaton import (
    apply_word,
    generate_cerny,
    generate_random,
    is_synchronizing_word,
    parse_fa,
)
from syncword.errors import DecodeError, ParseError, ResourceLimitError
from syncword.exact import shortest_sync_bfs
from syncword.satenc import (
    DEFAULT_VAR_CAP,
    CnfInstance,
    Unrolling,
    VarMap,
    decode_model,
    encode_sat,
    parse_model_literals,
    solve_internal,
    write_dimacs,
)
from helpers.pair_distances import pair_distances
from test_exact import synchronizable_sweep


def first_model_brute_force(nvars, clauses):
    """The first satisfying assignment when variable 1 varies slowest and true
    comes before false, found by scanning every assignment in that order."""
    for m in range((1 << nvars) - 1, -1, -1):
        bits = [None] + [bool(m >> (nvars - v) & 1) for v in range(1, nvars + 1)]
        if all(any(bits[abs(lit)] == (lit > 0) for lit in cl) for cl in clauses):
            return {v: bits[v] for v in range(1, nvars + 1)}
    return None


def expected_clause_count(n, k, c):
    c2 = lambda m: math.comb(m, 2)
    return (
        c * (c2(k) + 1)
        + n * (c + 1) * (c2(n) + 1)
        + n
        + n * n * c * k
        + (c2(n) + 1)
        + n * n
    )


def expected_image_clause_count(a, c):
    # One pair-distance clause a step for the last min(d(p,q), c+1) steps.
    d = pair_distances(a)
    pairs = sum(min(d.get((p, q), c + 1), c + 1)
                for p in range(1, a.n + 1) for q in range(p + 1, a.n + 1))
    return c * (math.comb(a.k, 2) + 1) + a.n + a.n * c * a.k + pairs


class TestVarMap:
    def test_numbering_is_a_bijection(self):
        for n, k, c in [(3, 2, 4), (4, 3, 2), (1, 1, 1), (5, 2, 7)]:
            vm = VarMap(n, k, c, "paper")
            seen = set()
            for l in range(1, c + 1):
                for x in range(1, k + 1):
                    seen.add(vm.x(l, x))
            for i in range(1, n + 1):
                for j in range(1, c + 2):
                    for s in range(1, n + 1):
                        seen.add(vm.s(i, j, s))
            for i in range(1, n + 1):
                seen.add(vm.y(i))
            assert seen == set(range(1, vm.var_count + 1))

    def test_image_numbering_is_a_bijection(self):
        for n, k, c in [(3, 2, 4), (4, 3, 2), (1, 1, 1), (5, 2, 7)]:
            vm = VarMap(n, k, c)
            seen = {vm.x(l, x) for l in range(1, c + 1) for x in range(1, k + 1)}
            seen |= {vm.t(l, s) for l in range(1, c + 2) for s in range(1, n + 1)}
            assert seen == set(range(1, vm.var_count + 1))

    def test_a1_c4_var_count(self):
        assert VarMap(3, 2, 4, "paper").var_count == 56  # 4*2 + 9*5 + 3


class TestEncodeSat:
    def test_var_and_clause_counts(self, a1):
        cnf = encode_sat(a1, 4, "paper")
        assert cnf.var_count == 56
        assert len(cnf.clauses) == expected_clause_count(3, 2, 4)

    def test_image_var_and_clause_counts(self, a1):
        cerny5 = generate_cerny(5)
        for a, c, size in [(a1, 4, (23, 41)), (cerny5, 15, (110, 240)), (cerny5, 16, (117, 252))]:
            cnf = encode_sat(a, c)
            assert (cnf.var_count, len(cnf.clauses)) == size

    def test_clause_count_closed_form_on_sweep(self):
        for a in synchronizable_sweep(10, max_n=5):
            for c in (1, 3):
                cnf = encode_sat(a, c, "paper")
                assert len(cnf.clauses) == expected_clause_count(a.n, a.k, c)
                assert len(encode_sat(a, c).clauses) == expected_image_clause_count(a, c)

    def test_pair_clauses_match_an_independent_pair_bfs(self):
        # The two-literal T clauses are exactly -T(l,p) | -T(l,q) for the pairs
        # that the c+1-l symbols left cannot merge; a pair that never merges
        # has no distance and is excluded at every step.
        rng = random.Random(16)
        for _ in range(120):
            a = generate_random(rng.randint(2, 8), rng.randint(1, 3), rng.randrange(10**6))
            d = pair_distances(a)
            for c in range(1, 7):
                vm = VarMap(a.n, a.k, c)
                want = sorted([-vm.t(l, p), -vm.t(l, q)]
                              for p in range(1, a.n + 1) for q in range(p + 1, a.n + 1)
                              for l in range(1, c + 2) if d.get((p, q), c + 2) > c + 1 - l)
                got = sorted(sorted(cl, reverse=True) for cl in encode_sat(a, c).clauses
                             if len(cl) == 2 and min(map(abs, cl)) > c * a.k)
                assert got == want, (a.delta, c)

    def test_image_and_paper_give_the_same_word(self):
        # The X variables come first and the DPLL branches true-first on the
        # lowest unassigned one, so both encodings yield the same first word.
        rng = random.Random(11)
        found = 0
        for _ in range(150):
            a = generate_random(rng.randint(2, 6), rng.randint(1, 3), rng.randrange(10**6))
            c = rng.randint(1, 6)
            words = [None if m is None else decode_model(a, c, m)
                     for m in (solve_internal(encode_sat(a, c, e)) for e in ("image", "paper"))]
            assert words[0] == words[1], (a.delta, c)
            found += words[0] is not None
        assert 30 < found < 120, found

    def test_rejects_unknown_encoding(self, a1):
        with pytest.raises(ValueError, match="unknown encoding"):
            encode_sat(a1, 4, "compact")

    def test_a1_sat_at_4_unsat_at_3(self, a1):
        model = solve_internal(encode_sat(a1, 4))
        assert model is not None
        w = decode_model(a1, 4, model)
        assert len(w) == 4 and is_synchronizing_word(a1, w)
        assert solve_internal(encode_sat(a1, 3)) is None

    def test_swap_unsat_at_any_c(self, swap):
        for c in (1, 2, 5):
            assert solve_internal(encode_sat(swap, c)) is None

    def test_rejects_c_zero(self, a1):
        with pytest.raises(ValueError):
            encode_sat(a1, 0)

    def test_no_empty_clauses_and_literals_in_range(self, a1):
        cnf = encode_sat(a1, 5)
        for cl in cnf.clauses:
            assert cl
            assert all(0 < abs(lit) <= cnf.var_count for lit in cl)


class TestSoundnessCompleteness:
    def test_verdict_matches_bfs_and_models_decode(self):
        # Smaller sibling of the acceptance sweep; the acceptance suite runs
        # the full 200-instance version.
        for a in synchronizable_sweep(25, max_n=6, max_k=3):
            opt = shortest_sync_bfs(a).length
            for c in range(1, min(8, max(1, (a.n - 1) ** 2)) + 1):
                model = solve_internal(encode_sat(a, c))
                assert (model is not None) == (opt <= c)
                if model is not None:
                    w = decode_model(a, c, model)
                    assert len(w) == c and is_synchronizing_word(a, w)

    def test_state_trace_matches_word(self, a1):
        # Under the trace constraints, the unique true S(i,l,.) per (i,l)
        # equals the state reached from i by the first l-1 decoded symbols.
        from syncword.automaton import apply_word

        c = 5
        model = solve_internal(encode_sat(a1, c, "paper"))
        w = decode_model(a1, c, model)
        vm = VarMap(a1.n, a1.k, c, "paper")
        for i in range(1, a1.n + 1):
            for l in range(1, c + 2):
                true_states = [
                    s for s in range(1, a1.n + 1) if model[vm.s(i, l, s)]
                ]
                assert true_states == [apply_word(a1, i, w[: l - 1])]


class TestCnfInstance:
    @pytest.mark.parametrize("var_count, clauses, message", [
        (2, [[3]], "literal 3 out of range for 2 vars"),
        (2, [[1, 0]], "literal 0 out of range for 2 vars"),
        (1, [[]], "empty clause at construction"),
    ], ids=["above-range", "zero", "empty-clause"])
    def test_rejected(self, var_count, clauses, message):
        with pytest.raises(ValueError) as exc:
            CnfInstance(var_count, clauses)
        assert str(exc.value) == message


class TestDimacs:
    def test_trivial_format(self):
        cnf = CnfInstance(2, [[1, -2]])
        assert write_dimacs(cnf) == "p cnf 2 1\n1 -2 0\n"

    def test_header_matches_clause_count(self, a1):
        cnf = encode_sat(a1, 4, "paper")
        text = write_dimacs(cnf)
        header = next(l for l in text.splitlines() if l.startswith("p "))
        assert header == f"p cnf 56 {len(cnf.clauses)}"

    def test_comments_record_instance(self, a1):
        text = write_dimacs(encode_sat(a1, 4))
        assert "n=3 k=2 c=4" in text

    @pytest.mark.parametrize("name, c, encoding, digest", [
        ("a1", 4, "image", "b9322fa106ca37ca9f73cf291db86631f902c82682ab4ade701d200f024503e0"),
        ("a1", 4, "paper", "ee7b2bae58a4fd4771b6d7ec8fa549c787e621c3e77c5f1e5071f0fde719e1a1"),
        ("cerny5", 16, "image", "52a84ef4b1e1b455eeda8d67b7e1817f5ea7c7875a6d20b7e502aafcc58e1f34"),
        ("cerny5", 16, "paper", "5c6e7f58704bb29df48f24166332364eb41fb1e80c04d569a1d77860256633c2"),
    ])
    def test_bytes_are_pinned(self, a1, name, c, encoding, digest):
        # sat-external and the benchmark's stub solver read these exact files.
        a = a1 if name == "a1" else generate_cerny(5)
        text = write_dimacs(encode_sat(a, c, encoding))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestUnrolling:
    def test_answers_bounds_up_and_down_like_a_fresh_formula(self):
        # One formula per automaton takes bounds in a random order, so a probe
        # may sit below layers built for a larger bound; k = 1 makes each
        # exactly-one X group a unit clause.
        rng = random.Random(17)
        seen = {"sat": 0, "unsat": 0, "sat below the top": 0, "k = 1": 0}
        for _ in range(60):
            a = generate_random(rng.randint(2, 8), rng.randint(1, 3), rng.randrange(10**6))
            formula = Unrolling(a)
            for c in [rng.randint(1, 9) for _ in range(6)]:
                model = solve_internal(formula.at(c))
                fresh = solve_internal(encode_sat(a, c))
                assert (model is None) == (fresh is None), (a.delta, c)
                if model is not None:
                    assert decode_model(a, c, model) == decode_model(a, c, fresh), (a.delta, c)
                    seen["sat below the top"] += c < len(formula.top) - 1
                seen["unsat" if model is None else "sat"] += 1
                seen["k = 1"] += a.k == 1
        assert min(seen.values()) > 20, seen

    def test_a_probe_decides_only_the_word(self):
        # After a SAT probe at c, propagation alone has fixed each layer r <= c
        # to the image of the word's first c-r symbols, and nothing above c is
        # assigned, not even the unit X(r,1) of a one-letter alphabet.
        rng = random.Random(18)
        seen = {"sat": 0, "k = 1": 0}
        for _ in range(80):
            a = generate_random(rng.randint(2, 8), rng.randint(1, 3), rng.randrange(10**6))
            n = a.n
            formula = Unrolling(a)
            formula.at(10)  # every probe below sits under built layers
            for c in [rng.randint(1, 9) for _ in range(4)]:
                model = solve_internal(formula.at(c))
                if model is None:
                    continue
                word, top, value = decode_model(a, c, model), formula.top, formula.value
                above = range(top[c] + n + 1, formula.var_count + 1)
                assert not any(value[v] for v in above), (a.delta, c)
                for r in range(c + 1):
                    image = {apply_word(a, q, word[:c - r]) for q in range(1, n + 1)}
                    true = {s for s in range(1, n + 1) if value[top[r] + s] == 1}
                    assert true == image, (a.delta, c, r)
                seen["sat"] += 1
                seen["k = 1"] += a.k == 1
        assert min(seen.values()) > 20, seen

    def test_grown_size_is_the_encoding_size(self, a1):
        formula = Unrolling(a1)
        for c in (3, 1, 6):
            formula.at(c)
            assert formula.var_count == VarMap(3, 2, len(formula.top) - 1).var_count


class TestDecodeModel:
    def test_exactly_one_violation(self, a1):
        vm = VarMap(a1.n, a1.k, 2)
        assignment = {v: False for v in range(1, vm.var_count + 1)}
        assignment[vm.x(1, 1)] = True
        assignment[vm.x(1, 2)] = True
        with pytest.raises(DecodeError):
            decode_model(a1, 2, assignment)

    def test_single_symbol_forced(self):
        a = parse_fa("2 1\n1\n1\n")
        model = solve_internal(encode_sat(a, 3))
        assert decode_model(a, 3, model) == (1, 1, 1)

    def test_parse_model_literals(self):
        m = parse_model_literals("v 1 -2\nv 3 0")
        assert m == {1: True, 2: False, 3: True}
        for text in ("1 x 2", "1_2 0", "+3 0", "-٣ 0", "- 0", "--1 0", "1.0"):
            with pytest.raises(ParseError, match="bad literal token"):
                parse_model_literals(text)


class TestSolveInternal:
    def test_contradictory_units(self):
        assert solve_internal(CnfInstance(1, [[1], [-1]])) is None

    def test_deterministic_branching(self):
        cnf = CnfInstance(3, [[1, 2], [-1, 3]])
        m = solve_internal(cnf)
        # lowest variable first, true first
        assert m == {1: True, 2: True, 3: True}

    def test_first_model_in_true_first_order(self):
        # Literals are drawn with replacement, so clauses with repeated and
        # with complementary literals both occur.
        rng = random.Random(7)
        kinds = {"sat": 0, "unsat": 0, "repeated": 0, "complementary": 0}
        for _ in range(2000):
            nvars = rng.randint(1, 10)
            clauses = [[rng.choice((1, -1)) * rng.randint(1, nvars)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(1, 3 * nvars))]
            expected = first_model_brute_force(nvars, clauses)
            assert solve_internal(CnfInstance(nvars, clauses)) == expected, clauses
            kinds["unsat" if expected is None else "sat"] += 1
            kinds["repeated"] += any(len(set(cl)) < len(cl) for cl in clauses)
            kinds["complementary"] += any(-lit in cl for cl in clauses for lit in cl)
        assert min(kinds.values()) > 500, kinds
        # Clauses of 4-8 literals move watches past the third slot.
        rng = random.Random(8)
        verdicts = {"sat": 0, "unsat": 0}
        for _ in range(1000):
            nvars = rng.randint(4, 8)
            clauses = [[rng.choice((1, -1)) * rng.randint(1, nvars)
                        for _ in range(rng.randint(4, 8))]
                       for _ in range(rng.randint(1, 40 * nvars))]
            expected = first_model_brute_force(nvars, clauses)
            assert solve_internal(CnfInstance(nvars, clauses)) == expected, clauses
            verdicts["unsat" if expected is None else "sat"] += 1
        assert min(verdicts.values()) > 200, verdicts

    def test_leaves_clauses_unchanged(self, a1):
        # The solver moves watches inside its own copies of the clauses.
        for c, satisfiable in ((3, False), (4, True)):
            cnf = encode_sat(a1, c)
            before = copy.deepcopy(cnf.clauses)
            assert (solve_internal(cnf) is not None) == satisfiable
            assert cnf.clauses == before

    def test_var_cap(self):
        with pytest.raises(ResourceLimitError):
            solve_internal(CnfInstance(DEFAULT_VAR_CAP + 1, [[1]]))

    def test_total_assignment(self, a1):
        cnf = encode_sat(a1, 4)
        model = solve_internal(cnf)
        assert set(model) == set(range(1, cnf.var_count + 1))

    def test_monotone_in_c(self, a1):
        # once satisfiable, stays satisfiable for larger bounds
        opt = 4
        for c in range(1, 8):
            sat = solve_internal(encode_sat(a1, c)) is not None
            assert sat == (c >= opt)
