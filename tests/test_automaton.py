import pytest
from hypothesis import given, strategies as st

from syncword.automaton import (
    Automaton,
    apply_word,
    cubic_length_bound,
    default_initial_bound,
    generate_cerny,
    generate_random,
    is_synchronizing_word,
    parse_fa,
    parse_kiss2,
    serialize_fa,
    word_to_letters,
)
from syncword.errors import ParseError
from syncword.exact import check_synchronizable, shortest_sync_bfs

from conftest import A1_TEXT


def random_automata(max_n=6, max_k=3):
    return st.builds(
        generate_random,
        n=st.integers(1, max_n),
        k=st.integers(1, max_k),
        seed=st.integers(0, 2**32),
    )


class TestApplyWord:
    def test_empty_word_is_identity(self, a1):
        assert apply_word(a1, 1, ()) == 1

    def test_baab_from_every_state_lands_on_s1(self, a1):
        w = (2, 1, 1, 2)
        for q in (1, 2, 3):
            assert apply_word(a1, q, w) == 1

    def test_single_edge(self, a1):
        assert apply_word(a1, 2, (1,)) == 3

    def test_rejects_bad_state(self, a1):
        with pytest.raises(ValueError):
            apply_word(a1, 4, (1,))

    def test_rejects_bad_symbol(self, a1):
        with pytest.raises(ValueError):
            apply_word(a1, 1, (3,))

    @given(a=random_automata(), data=st.data())
    def test_extension_law(self, a, data):
        q = data.draw(st.integers(1, a.n))
        u = data.draw(st.lists(st.integers(1, a.k), max_size=6))
        v = data.draw(st.lists(st.integers(1, a.k), max_size=6))
        assert apply_word(a, q, u + v) == apply_word(a, apply_word(a, q, u), v)


class TestIsSynchronizing:
    def test_baab(self, a1):
        assert is_synchronizing_word(a1, (2, 1, 1, 2))

    def test_b_alone_is_not(self, a1):
        # image of {1,2,3} under b is {1,2}
        assert not is_synchronizing_word(a1, (2,))

    def test_single_state_empty_word(self, one_state):
        assert is_synchronizing_word(one_state, ())

    @given(a=random_automata(), data=st.data())
    def test_matches_apply_word(self, a, data):
        # Words of up to 6 symbols on up to 6 states: some synchronize, many
        # do not, and the empty word comes up on n = 1 and on n > 1.
        w = data.draw(st.lists(st.integers(1, a.k), max_size=6))
        expected = len({apply_word(a, q, w) for q in range(1, a.n + 1)}) == 1
        assert is_synchronizing_word(a, w) == expected

    def test_empty_word_on_many_states(self, a1):
        assert not is_synchronizing_word(a1, ())

    @pytest.mark.parametrize("symbol", [0, 3], ids=["zero", "k-plus-one"])
    def test_rejects_bad_symbol(self, a1, symbol):
        with pytest.raises(ValueError):
            is_synchronizing_word(a1, (2, 1, symbol, 1, 2))

    def test_rejects_bad_symbol_on_one_state(self, one_state):
        with pytest.raises(ValueError):
            is_synchronizing_word(one_state, (2,))

    @given(a=random_automata(max_n=5), data=st.data())
    def test_suffix_preserves_synchronization(self, a, data):
        w = data.draw(st.lists(st.integers(1, a.k), max_size=8))
        u = data.draw(st.lists(st.integers(1, a.k), max_size=4))
        if is_synchronizing_word(a, w):
            assert is_synchronizing_word(a, w + u)


class TestParseFa:
    def test_a1(self, a1):
        assert a1.n == 3 and a1.k == 2
        assert a1.delta == ((2, 1), (3, 2), (1, 1))

    def test_one_state_self_loop(self):
        a = parse_fa("1 1\n1\n")
        assert a.n == 1 and a.delta == ((1,),)

    def test_entry_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_fa("2 1\n3\n1\n")

    def test_partial_table_rejected(self):
        with pytest.raises(ParseError):
            parse_fa("3 2\n2 1\n3 2\n")

    def test_extra_rows_rejected(self):
        with pytest.raises(ParseError):
            parse_fa("1 1\n1\n1\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_fa("2 2\n1\n2 2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_fa("3\n")

    @pytest.mark.parametrize("text, message, line", [
        ("2 1\n2\nx\n", "line 3: non-integer token in 'x'", 3),
        ("0 2\n", "line 1: need n >= 1 and k >= 1, got n=0, k=2", 1),
        ("# no header\n\n", "empty input, expected 'n k' header", None),
        ("10 1\n1_0\n" + "1\n" * 9, "line 2: non-integer token in '1_0'", 2),
        ("3 1\n\u0663\n1\n1\n", "line 2: non-integer token in '\u0663'", 2),
        ("3 1\n+3\n1\n1\n", "line 2: non-integer token in '+3'", 2),
    ], ids=["non-integer", "n-below-1", "empty", "underscore", "non-ascii-digit", "plus-sign"])
    def test_rejected_input_message(self, text, message, line):
        with pytest.raises(ParseError) as exc:
            parse_fa(text)
        assert (str(exc.value), exc.value.line) == (message, line)

    def test_short_row_rejected_by_automaton(self):
        with pytest.raises(ValueError, match="^state 2: row has 1 entries, expected 2$"):
            Automaton(2, 2, ((1, 2), (1,)))

    def test_comments_and_blank_lines(self):
        a = parse_fa("# comment\n\n3 2\n2 1\n3 2\n1 1\n")
        assert serialize_fa(a) == A1_TEXT

    @given(a=random_automata())
    def test_round_trip(self, a):
        assert parse_fa(serialize_fa(a)) == a


class TestGenerateRandom:
    def test_same_seed_identical(self):
        assert generate_random(5, 2, 42) == generate_random(5, 2, 42)

    def test_different_seed_usually_differs(self):
        assert generate_random(6, 2, 1) != generate_random(6, 2, 2)

    def test_n1_forced(self):
        for seed in range(5):
            assert generate_random(1, 3, seed).delta == ((1, 1, 1),)

    def test_seed_sweep_has_synchronizable_fraction(self):
        hits = sum(
            check_synchronizable(generate_random(8, 2, seed)) for seed in range(100)
        )
        assert hits > 0  # callers filter; the raw draw must be exposed

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_random(0, 1, 0)


class TestGenerateCerny:
    def test_structure(self):
        a = generate_cerny(4)
        assert a.delta == ((2, 1), (3, 2), (4, 3), (1, 1))

    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 9)])
    def test_shortest_length(self, n, expected):
        assert shortest_sync_bfs(generate_cerny(n)).length == expected

    def test_n3_level_structure(self):
        a = generate_cerny(3)
        res = shortest_sync_bfs(a)
        assert res.length == 4
        # no length-3 word synchronizes
        import itertools

        assert not any(
            is_synchronizing_word(a, w) for w in itertools.product((1, 2), repeat=3)
        )

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            generate_cerny(1)


class TestKiss2:
    KISS = """\
.i 1
.o 1
.s 2
.p 4
0 st0 st1 0
1 st0 st0 0
0 st1 st0 1
1 st1 st1 1
"""

    def test_import(self):
        a = parse_kiss2(self.KISS)
        assert a.n == 2 and a.k == 2
        # first-appearance order: input 0 -> 1, 1 -> 2; st0 -> 1, st1 -> 2
        assert a.delta == ((2, 1), (1, 2))

    def test_comment_between_transitions(self):
        text = self.KISS.replace("0 st1 st0 1\n", "# st1 returns to st0 on 0\n0 st1 st0 1\n")
        assert parse_kiss2(text) == parse_kiss2(self.KISS)

    def test_rejects_partial(self):
        with pytest.raises(ParseError, match="partial"):
            parse_kiss2(".i 1\n0 st0 st1 0\n0 st1 st0 0\n1 st0 st0 0\n")

    def test_rejects_nondeterministic(self):
        with pytest.raises(ParseError, match="nondeterministic"):
            parse_kiss2("0 s0 s1 0\n0 s0 s0 0\n")

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            parse_kiss2(".i 1\n.o 1\n")

    def test_dont_care_input_expands(self):
        a = parse_kiss2(".i 1\n- s1 s2 0\n0 s2 s1 0\n1 s2 s2 1\n")
        assert a == Automaton(2, 2, ((2, 2), (1, 2)))

    def test_star_state_covers_states_named_later(self):
        a = parse_kiss2(".i 1\n.o 1\n0 * s1 0\n1 s1 s2 0\n1 s2 s2 1\n")
        assert a == Automaton(2, 2, ((1, 2), (1, 2)))

    def test_star_state_conflicting_row(self):
        with pytest.raises(ParseError, match="nondeterministic") as exc:
            parse_kiss2(".i 1\n0 * s1 0\n1 s1 s2 0\n0 s2 s2 0\n1 s2 s1 0\n")
        assert exc.value.line == 4

    def test_star_next_state_rejected(self):
        with pytest.raises(ParseError, match="'\\*' next state") as exc:
            parse_kiss2(".i 1\n0 s1 s2 0\n1 s1 * 0\n")
        assert exc.value.line == 3

    def test_line_without_four_fields(self):
        with pytest.raises(ParseError) as exc:
            parse_kiss2(".i 1\n0 a b\n")
        assert str(exc.value) == "line 2: expected 'input state next output', got '0 a b'"
        assert exc.value.line == 2

    def test_overlapping_cubes_with_two_targets(self):
        with pytest.raises(ParseError, match="nondeterministic") as exc:
            parse_kiss2(".i 2\n0- s1 s1 0\n00 s1 s2 0\n")
        assert exc.value.line == 3


class TestHelpers:
    def test_word_letters_round_trip(self):
        assert word_to_letters((2, 1, 1, 2)) == "baab"

    def test_cubic_bound_values(self):
        # n(7n^2 + 6n - 16)/48, floored
        assert cubic_length_bound(6) == 6 * (7 * 36 + 6 * 6 - 16) // 48
        assert cubic_length_bound(4) == 10

    def test_initial_bound_is_ceil_two_sqrt_n(self):
        assert default_initial_bound(3) == 4  # ceil(2*sqrt(3)) = 4
        assert default_initial_bound(4) == 4
        assert default_initial_bound(27) == 11  # 2*sqrt(27) = 10.39...


class TestAutomatonInvariants:
    def test_rejects_bad_entry(self):
        with pytest.raises(ValueError):
            Automaton(2, 1, ((3,), (1,)))

    def test_rejects_row_count(self):
        with pytest.raises(ValueError):
            Automaton(2, 1, ((1,),))

    @given(a=random_automata(max_n=5), data=st.data())
    def test_image_never_grows(self, a, data):
        w = data.draw(st.lists(st.integers(1, a.k), max_size=6))
        image = {apply_word(a, q, w) for q in range(1, a.n + 1)}
        assert len(image) <= a.n
