import itertools

import pytest

from syncword import aspenc
from syncword.aspenc import (
    AspProgram,
    decode_answer_set,
    emit,
    emit_facts,
)
from syncword.automaton import generate_random, is_synchronizing_word
from syncword.errors import DecodeError
from syncword.exact import shortest_sync_bfs
from test_exact import synchronizable_sweep


class TestEmitFacts:
    def test_a1_contains_edges(self, a1):
        text = emit_facts(a1)
        assert "transition(1,1,2)." in text
        assert "transition(3,2,1)." in text

    def test_one_state(self, one_state):
        assert emit_facts(one_state).split() == [
            "state(1).",
            "symbol(1).",
            "transition(1,1,1).",
        ]

    def test_fact_count(self):
        a = generate_random(5, 2, 7)
        facts = [l for l in emit_facts(a).splitlines() if l]
        assert len(facts) == 5 + 2 + 10


class TestProgramText:
    def test_asp1_rule_set(self, a1):
        text = emit(a1, "asp1", 4).text
        assert "step(1..4)." in text
        assert "1 { synchro(I,J) : symbol(J) } 1 :- step(I)." in text
        assert "path(S,1,S) :- state(S)." in text
        assert "1 { sink(F) : state(F) } 1." in text
        assert ":- sink(F), not path(S,5,F), state(S), state(F)." in text
        assert "merged" not in text

    def test_asp2_rule_set(self, a1):
        text = emit(a1, "asp2", 4).text
        assert "merged(R) :- path(R,I+1,S), path(R+1,I+1,S)" in text
        assert ":- state(R), R < 3, not merged(R)." in text
        assert "sink" not in text

    def test_opt_rules(self, a1):
        text = emit(a1, "asp1opt", 6).text
        assert "1 { shortest(L) : L = 1..6 } 1." in text
        assert "step(1..I) :- shortest(I)." in text
        assert "#minimize { L : shortest(L) }." in text
        assert ":- sink(F), shortest(L), state(S), not path(S,L+1,F)." in text
        assert "step(1..6)." not in text  # fixed step facts replaced

    def test_legacy_minimize(self, a1):
        text = emit(a1, "asp2opt", 6, legacy_syntax=True).text
        assert "#minimize [ shortest(L) = L ]." in text

    def test_emission_is_stable(self, a1):
        for form in aspenc.FORMULATIONS:
            assert emit(a1, form, 4).text == emit(a1, form, 4).text

    def test_unknown_formulation(self, a1):
        with pytest.raises(ValueError):
            emit(a1, "asp3", 4)

    def test_rejects_c_zero(self, a1):
        with pytest.raises(ValueError):
            emit(a1, "asp1", 0)

    def test_facts_embedded(self, a1):
        for form in aspenc.FORMULATIONS:
            assert emit_facts(a1).rstrip("\n") in emit(a1, form, 4).text


A1_FACTS = """\
state(1).
state(2).
state(3).
symbol(1).
symbol(2).
transition(1,1,2).
transition(1,2,1).
transition(2,1,3).
transition(2,2,2).
transition(3,1,1).
transition(3,2,1).
"""

GUESS_AND_PATH = """\
1 { synchro(I,J) : symbol(J) } 1 :- step(I).
path(S,1,S) :- state(S).
path(S,I+1,Q) :- path(S,I,R), synchro(I,X), transition(R,X,Q), \
state(S), state(R), state(Q), symbol(X), step(I).
"""

MERGED = """\
merged(R) :- path(R,I+1,S), path(R+1,I+1,S), state(S), state(R), state(R+1), step(I).
:- state(R), R < 3, not merged(R).
"""


def opt_header(minimize):
    return f"1 {{ shortest(L) : L = 1..4 }} 1.\nstep(1..I) :- shortest(I).\n{minimize}\n"


# The complete program text for a1 at c = 4, frozen from the emitter.
FROZEN_A1_C4 = {
    ("asp1", False): A1_FACTS + "step(1..4).\n" + GUESS_AND_PATH + """\
1 { sink(F) : state(F) } 1.
:- sink(F), not path(S,5,F), state(S), state(F).
#show synchro/2.
#show sink/1.
""",
    ("asp2", False): A1_FACTS + "step(1..4).\n" + GUESS_AND_PATH + MERGED
    + "#show synchro/2.\n",
    ("asp1opt", False): A1_FACTS + opt_header("#minimize { L : shortest(L) }.")
    + GUESS_AND_PATH + """\
1 { sink(F) : state(F) } 1.
:- sink(F), shortest(L), state(S), not path(S,L+1,F).
#show synchro/2.
#show sink/1.
#show shortest/1.
""",
    ("asp2opt", False): A1_FACTS + opt_header("#minimize { L : shortest(L) }.")
    + GUESS_AND_PATH + MERGED + "#show synchro/2.\n#show shortest/1.\n",
    ("asp2opt", True): A1_FACTS + opt_header("#minimize [ shortest(L) = L ].")
    + GUESS_AND_PATH + MERGED + "#show synchro/2.\n#show shortest/1.\n",
}


class TestFrozenProgramText:
    @pytest.mark.parametrize("form,legacy", sorted(FROZEN_A1_C4))
    def test_full_text(self, a1, form, legacy):
        assert emit(a1, form, 4, legacy_syntax=legacy).text == FROZEN_A1_C4[form, legacy]


def intended_answer_words(a, c):
    """Semantic oracle for the decision programs: the answer sets of both
    formulations project onto exactly the synchronizing words of length c."""
    return [
        w
        for w in itertools.product(range(1, a.k + 1), repeat=c)
        if is_synchronizing_word(a, w)
    ]


class TestIntendedSemantics:
    # These tests pin the *intended* answer sets (the spec of the emitted
    # programs); a genuine ASP solver exercises the text itself in the
    # conditional acceptance criterion.

    def test_satisfiability_matches_bfs_predicate(self):
        for a in synchronizable_sweep(10, max_n=5, max_k=2):
            opt = shortest_sync_bfs(a).length
            for c in range(1, min(opt + 2, 9)):
                assert bool(intended_answer_words(a, c)) == (opt <= c)

    def test_asp1_asp2_projected_counts_agree(self, a1):
        # asp1 additionally fixes a unique sink per word, so the projection
        # onto synchro atoms has the same count under both formulations.
        words = intended_answer_words(a1, 4)
        assert len(words) >= 1
        # every word determines exactly one sink
        from syncword.automaton import apply_word

        sinks = {w: {apply_word(a1, q, w) for q in (1, 2, 3)} for w in words}
        assert all(len(s) == 1 for s in sinks.values())


class TestDecodeAnswerSet:
    def test_baab(self, a1):
        p = emit(a1, "asp1", 4)
        word, shortest = decode_answer_set(
            p, ["synchro(1,2)", "synchro(2,1)", "synchro(3,1)", "synchro(4,2)", "sink(1)"]
        )
        assert word == (2, 1, 1, 2)
        assert shortest is None
        assert is_synchronizing_word(a1, word)

    def test_accepts_single_line_string(self, a1):
        p = emit(a1, "asp2", 4)
        line = "synchro(1,2) synchro(2,1) synchro(3,1) synchro(4,2)"
        word, _ = decode_answer_set(p, line.split())
        assert word == (2, 1, 1, 2)

    def test_missing_step_atom(self, a1):
        p = emit(a1, "asp1", 4)
        with pytest.raises(DecodeError, match="step 2"):
            decode_answer_set(p, ["synchro(1,2)", "synchro(3,1)", "synchro(4,2)"])

    def test_duplicate_step_atom(self, a1):
        p = emit(a1, "asp1", 2)
        with pytest.raises(DecodeError, match="duplicate"):
            decode_answer_set(p, ["synchro(1,2)", "synchro(1,1)", "synchro(2,1)"])

    def test_bad_synchro_arity(self, a1):
        p = emit(a1, "asp1", 2)
        with pytest.raises(DecodeError) as exc:
            decode_answer_set(p, ["synchro(1)", "synchro(2,1)"])
        assert str(exc.value) == "bad synchro atom 'synchro(1)'"

    @pytest.mark.parametrize("atom", ["synchro(1,)", "synchro(1,,2)"])
    def test_empty_argument(self, a1, atom):
        p = emit(a1, "asp1", 2)
        with pytest.raises(DecodeError) as exc:
            decode_answer_set(p, [atom, "synchro(2,1)"])
        assert str(exc.value) == f"bad atom {atom!r}"

    def test_duplicate_shortest_atom(self, a1):
        p = emit(a1, "asp1opt", 2)
        with pytest.raises(DecodeError) as exc:
            decode_answer_set(p, ["shortest(1)", "shortest(2)", "synchro(1,1)"])
        assert str(exc.value) == "bad or duplicate shortest atom 'shortest(2)'"

    def test_foreign_atoms_ignored(self, a1):
        p = emit(a1, "asp1", 2)
        atoms = ["sink(1)", "path(1,2,3)", "noise", "synchro(1,2)", "synchro(2,1)",
                 "shortest(2)"]
        assert decode_answer_set(p, atoms) == ((2, 1), None)

    def test_opt_requires_shortest(self, a1):
        p = emit(a1, "asp1opt", 6)
        with pytest.raises(DecodeError, match="shortest"):
            decode_answer_set(p, ["synchro(1,2)"])

    def test_opt_truncates_to_shortest(self, a1):
        p = emit(a1, "asp1opt", 6)
        atoms = ["shortest(4)", "synchro(1,2)", "synchro(2,1)", "synchro(3,1)",
                 "synchro(4,2)"]
        word, shortest = decode_answer_set(p, atoms)
        assert word == (2, 1, 1, 2) and shortest == 4

    @pytest.mark.parametrize("length", [0, 7])
    def test_opt_rejects_shortest_outside_bound(self, a1, length):
        p = emit(a1, "asp1opt", 6)
        atoms = [f"shortest({length})"] + [f"synchro({i},1)" for i in range(1, 8)]
        with pytest.raises(DecodeError) as exc:
            decode_answer_set(p, atoms)
        assert str(exc.value) == f"shortest({length}) lies outside 1..6"

    def test_single_step_reset(self):
        p = AspProgram("asp1opt", 3, "")
        word, shortest = decode_answer_set(p, ["shortest(1)", "synchro(1,1)"])
        assert word == (1,) and shortest == 1
