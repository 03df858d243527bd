import shlex
import sys
import tempfile
import threading
import time

import pytest

from syncword.automaton import generate_cerny, is_synchronizing_word
from syncword.driver import (
    SearchConfig,
    SearchOutcome,
    find_shortest,
    parse_asp_solver_output,
    parse_sat_solver_output,
    run_external,
)
from syncword.errors import ResourceLimitError, SolverError, SoundnessError
from syncword.exact import shortest_sync_bfs
from test_exact import synchronizable_sweep


class TestSearchConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SearchConfig(method="magic")

    def test_rejects_bad_initial_c(self):
        with pytest.raises(ValueError):
            SearchConfig(initial_c=0)

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            SearchConfig(method="sat-internal", encoding="compact")

    def test_rejects_solver_cmd_without_placeholder(self):
        with pytest.raises(ValueError, match="lacks a {file} placeholder"):
            SearchConfig(method="sat-external", solver_cmd="echo hi")

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_time_budget(self, budget):
        with pytest.raises(ValueError, match="time_budget must be > 0"):
            SearchConfig(time_budget=budget)


class TestFindShortestInternal:
    def test_a1_bfs(self, a1):
        outcome = find_shortest(a1, SearchConfig(method="bfs"))
        assert outcome.length == 4
        assert outcome.witness == (2, 1, 1, 2)

    @pytest.mark.parametrize("word", [(), (2, 1, 1, 2), (1, 255, 256, 70000, 1_114_111)])
    def test_outcome_witness_round_trip(self, word):
        # The witness is stored one character a symbol and read back as a tuple.
        outcome = SearchOutcome(len(word), word)
        assert outcome.witness == word
        outcome.witness = word + (3,)
        assert outcome.witness == word + (3,)

    def test_a1_sat_internal_probe_trace(self, a1):
        # initial c = ceil(2*sqrt(3)) = 4 is already SAT; binary search over
        # (0,4] probes 2 and 3, both UNSAT.
        outcome = find_shortest(a1, SearchConfig(method="sat-internal"))
        assert outcome.length == 4
        assert [(r.c, r.verdict) for r in outcome.calls] == [
            (4, "sat"),
            (2, "unsat"),
            (3, "unsat"),
        ]

    def test_unsat_up_to_the_cubic_bound_is_a_soundness_error(self, a1, monkeypatch):
        # cubic_length_bound(3) = 4, so the first probe at c = 4 is already the last.
        monkeypatch.setattr("syncword.satenc.solve_internal", lambda cnf, time_budget: None)
        with pytest.raises(SoundnessError) as exc:
            find_shortest(a1, SearchConfig(method="sat-internal"))
        assert str(exc.value) == ("no synchronizing word found up to the length bound 4 "
                                  "for a synchronizable automaton")

    def test_bfs_disagreeing_with_the_pair_check(self, a1, monkeypatch):
        monkeypatch.setattr("syncword.driver.shortest_sync_bfs", lambda a, time_budget: None)
        with pytest.raises(SoundnessError) as exc:
            find_shortest(a1, SearchConfig(method="bfs"))
        assert str(exc.value) == "pair-automaton check and power-set BFS disagree"

    def test_not_synchronizable_short_circuits(self, swap):
        outcome = find_shortest(swap, SearchConfig(method="sat-internal"))
        assert outcome is None  # and no solver calls were made

    def test_total_time_covers_the_pair_check(self, a1, monkeypatch):
        import syncword.driver as driver_mod

        real = driver_mod.check_synchronizable

        def slow_check(a):
            time.sleep(0.05)
            return real(a)

        monkeypatch.setattr(driver_mod, "check_synchronizable", slow_check)
        assert find_shortest(a1, SearchConfig()).total_time >= 0.05

    def test_one_state(self, one_state):
        outcome = find_shortest(one_state, SearchConfig(method="sat-internal"))
        assert outcome.length == 0 and outcome.witness == ()

    def test_doubling_reaches_large_optimum(self):
        outcome = find_shortest(generate_cerny(5), SearchConfig(method="sat-internal"))
        assert outcome.length == 16

    def test_methods_agree_and_brackets_verify(self):
        for a in synchronizable_sweep(15, max_n=6, max_k=2):
            expected = shortest_sync_bfs(a).length
            outcome = find_shortest(a, SearchConfig(method="sat-internal"))
            assert outcome.length == expected
            assert is_synchronizing_word(a, outcome.witness)
            verdicts = {r.c: r.verdict for r in outcome.calls}
            if expected >= 1:
                assert verdicts[expected] == "sat"
                if expected > 1:
                    assert verdicts[expected - 1] == "unsat"

    def test_initial_c_override(self, a1):
        outcome = find_shortest(a1, SearchConfig(method="sat-internal", initial_c=1))
        assert outcome.length == 4
        assert outcome.calls[0].c == 1 and outcome.calls[0].verdict == "unsat"

    def test_var_cap_checked_before_encoding(self, monkeypatch):
        # Cerny 160 at the default bound c = 26 needs 691,412 paper variables.
        def no_encoding(a, c, encoding):
            raise AssertionError("the formula was built before the var cap was checked")

        monkeypatch.setattr("syncword.satenc.encode_sat", no_encoding)
        with pytest.raises(ResourceLimitError, match="solver cap"):
            find_shortest(generate_cerny(160),
                          SearchConfig(method="sat-internal", encoding="paper"))

    def test_var_cap_checked_before_image_encoding(self, monkeypatch):
        # Cerny 160 at c = 3200 needs 6,400 + 160 * 3,201 = 518,560 image variables.
        def no_encoding(a, c, encoding):
            raise AssertionError("the formula was built before the var cap was checked")

        monkeypatch.setattr("syncword.satenc.encode_sat", no_encoding)
        with pytest.raises(ResourceLimitError, match="518560 variables"):
            find_shortest(generate_cerny(160), SearchConfig(method="sat-internal", initial_c=3200))

    @pytest.mark.parametrize("method, n, budget", [("bfs", 200, 0.01), ("sat-internal", 5, 0.2)])
    def test_time_budget_per_probe(self, method, n, budget):
        # Unbudgeted, BFS on Cerny 200 takes about 3 s and the DPLL search on
        # the paper encoding of Cerny 5 about 15 s; the c = 20 probe alone takes
        # seconds.  BFS ignores the encoding.
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="time budget"):
            find_shortest(generate_cerny(n), SearchConfig(method=method, time_budget=budget,
                                                          encoding="paper"))
        assert time.monotonic() - start < 1.0

    def test_time_budget_per_probe_image_encoding(self):
        # Under the image encoding the DPLL's c = 20 probe on Cerny 6 alone
        # takes about 18 s.
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="time budget"):
            find_shortest(generate_cerny(6), SearchConfig(method="sat-internal", time_budget=0.2))
        assert time.monotonic() - start < 1.0


class TestRunExternal:
    def test_unsat_echo(self):
        result = run_external("payload", "echo 's UNSATISFIABLE' # {file}")
        assert parse_sat_solver_output(result.stdout) is None

    def test_sat_echo_with_vline(self):
        result = run_external("payload", "echo 's SATISFIABLE'; echo 'v 1 -2 0' # {file}")
        assert parse_sat_solver_output(result.stdout) == {1: True, 2: False}

    def test_timeout(self):
        with pytest.raises(SolverError, match="timed out"):
            run_external("x", "sleep 5 # {file}", time_budget=0.2)

    def test_timeout_kills_the_solver_process_group(self, tmp_path):
        marker = tmp_path / "MARKER"
        cmd = f"sh -c 'sleep 1; echo late > {marker}'; cat {{file}}"
        with pytest.raises(SolverError, match="timed out"):
            run_external("x", cmd, time_budget=0.3)
        time.sleep(1.5)
        assert not marker.exists()

    def test_file_path_is_quoted(self, tmp_path, monkeypatch):
        spaced = tmp_path / "dir with space"
        spaced.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spaced))
        result = run_external("quoted-payload", "cat {file}")
        assert result.stdout.strip() == "quoted-payload"

    def test_empty_output(self):
        with pytest.raises(SolverError, match="no output"):
            run_external("x", "true # {file}")

    def test_budget_beyond_the_timer_sets_no_limit(self, monkeypatch):
        # A timer cannot wait longer than threading.TIMEOUT_MAX; one started with
        # such a budget raises OverflowError in its own thread.
        timers, failures = [], []

        class RecordingTimer(threading.Timer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                timers.append(self)

        monkeypatch.setattr(threading, "Timer", RecordingTimer)
        monkeypatch.setattr(threading, "excepthook", failures.append)
        for budget in (float("inf"), 1e300):
            assert run_external("x", "cat {file}", budget).stdout == "x"
        for timer in timers:
            if timer.ident is not None:
                timer.join()
        assert len(timers) == 2 and failures == []

    def test_missing_placeholder(self):
        with pytest.raises(SolverError, match="placeholder"):
            run_external("x", "echo hi")

    def test_memory_is_each_solvers_own_peak(self):
        # A 200 MB solver must not leave its peak on the next, small one.
        big = shlex.quote(sys.executable) + """ -c 'print(len(b"x" * 200_000_000))' # {file}"""
        assert run_external("x", big).memory_kb > 150_000
        assert run_external("small", "cat {file}").memory_kb < 100_000

    def test_payload_reaches_file(self):
        result = run_external("hello-payload", "cat {file}")
        assert result.stdout.strip() == "hello-payload"


class TestOutputParsers:
    def test_sat_parser_requires_status(self):
        with pytest.raises(SolverError):
            parse_sat_solver_output("nothing here")

    def test_sat_parser_requires_model_when_sat(self):
        with pytest.raises(SolverError):
            parse_sat_solver_output("s SATISFIABLE\n")

    def test_asp_parser_answer_block(self):
        atoms = parse_asp_solver_output("Answer: 1\nsynchro(1,2) sink(1)\nSATISFIABLE\n")
        assert atoms == ["synchro(1,2)", "sink(1)"]

    def test_asp_parser_unsat(self):
        assert parse_asp_solver_output("Solving...\nUNSATISFIABLE\n") is None

    def test_asp_parser_needs_optimum_marker(self):
        with pytest.raises(SolverError, match="OPTIMUM"):
            parse_asp_solver_output(
                "Answer: 1\nsynchro(1,1) shortest(1)\nSATISFIABLE\n", expect_optimum=True
            )

    def test_asp_parser_garbage(self):
        with pytest.raises(SolverError):
            parse_asp_solver_output("Solving...\n")


class TestExternalMethods:
    def test_sat_external_via_stub(self, a1, fake_sat_cmd):
        outcome = find_shortest(a1, SearchConfig(method="sat-external", solver_cmd=fake_sat_cmd))
        assert outcome.length == 4
        assert is_synchronizing_word(a1, outcome.witness)

    @pytest.mark.parametrize("method", ["asp1", "asp2"])
    def test_asp_decision_via_stub(self, a1, fake_asp_cmd, method):
        outcome = find_shortest(a1, SearchConfig(method=method, solver_cmd=fake_asp_cmd))
        assert outcome.length == 4
        assert is_synchronizing_word(a1, outcome.witness)

    @pytest.mark.parametrize("method", ["asp1opt", "asp2opt"])
    def test_asp_opt_via_stub(self, a1, fake_asp_cmd, method):
        # initial c = 4 >= optimum, single emission suffices
        outcome = find_shortest(a1, SearchConfig(method=method, solver_cmd=fake_asp_cmd))
        assert outcome.length == 4
        assert is_synchronizing_word(a1, outcome.witness)
        assert [(r.c, r.verdict) for r in outcome.calls] == [(4, "sat")]

    def test_asp_opt_doubles_on_unsat(self, a1, fake_asp_cmd):
        outcome = find_shortest(
            a1, SearchConfig(method="asp1opt", solver_cmd=fake_asp_cmd, initial_c=2)
        )
        assert outcome.length == 4
        assert [(r.c, r.verdict) for r in outcome.calls] == [(2, "unsat"), (4, "sat")]

    def test_external_methods_agree_with_bfs(self, fake_sat_cmd, fake_asp_cmd):
        for a in synchronizable_sweep(5, max_n=5, max_k=2):
            expected = shortest_sync_bfs(a).length
            for method, cmd in [
                ("sat-external", fake_sat_cmd),
                ("asp1", fake_asp_cmd),
                ("asp2", fake_asp_cmd),
                ("asp1opt", fake_asp_cmd),
                ("asp2opt", fake_asp_cmd),
            ]:
                outcome = find_shortest(a, SearchConfig(method=method, solver_cmd=cmd))
                assert outcome.length == expected, (method, a)

    def test_missing_solver_cmd(self, a1, monkeypatch):
        monkeypatch.delenv("SYNCWORD_ASP_CMD", raising=False)
        with pytest.raises(SolverError, match="solver command"):
            find_shortest(a1, SearchConfig(method="asp1"))

    def test_env_var_fallback(self, a1, fake_asp_cmd, monkeypatch):
        monkeypatch.setenv("SYNCWORD_ASP_CMD", fake_asp_cmd)
        outcome = find_shortest(a1, SearchConfig(method="asp1"))
        assert outcome.length == 4

    def test_sat_env_var_fallback(self, a1, fake_sat_cmd, monkeypatch):
        monkeypatch.setenv("SYNCWORD_SAT_CMD", fake_sat_cmd)
        outcome = find_shortest(a1, SearchConfig(method="sat-external"))
        assert outcome.length == 4
