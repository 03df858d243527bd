import shlex
import sys
import tempfile
import threading
import time
import weakref

import pytest

from syncword.automaton import generate_cerny, generate_random, is_synchronizing_word
from syncword.driver import (
    ProbeRecord,
    SearchConfig,
    SearchOutcome,
    find_shortest,
    parse_asp_solver_output,
    parse_sat_solver_output,
    run_external,
)
from syncword.errors import ResourceLimitError, SolverError, SoundnessError
from syncword.satenc import ENCODINGS, decode_model, encode_sat, solve_internal
from syncword import exact, satenc
from syncword.exact import check_synchronizable, shortest_sync_bfs
from test_exact import synchronizable_sweep


class TestSearchConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SearchConfig(method="magic")

    def test_rejects_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            SearchConfig(method="sat-internal", encoding="compact")

    def test_rejects_solver_cmd_without_placeholder(self):
        with pytest.raises(ValueError, match="lacks a {file} placeholder"):
            SearchConfig(method="sat-external", solver_cmd="echo hi")

    @pytest.mark.parametrize("method, env", [("sat-external", "SYNCWORD_SAT_CMD"),
                                             ("asp2opt", "SYNCWORD_ASP_CMD")])
    def test_rejects_env_solver_cmd_without_placeholder(self, method, env, monkeypatch):
        monkeypatch.setenv(env, "echo hi")
        with pytest.raises(ValueError, match="lacks a {file} placeholder"):
            SearchConfig(method=method)

    def test_reads_the_env_solver_cmd_when_built(self, fake_asp_cmd, monkeypatch):
        monkeypatch.setenv("SYNCWORD_ASP_CMD", fake_asp_cmd)
        monkeypatch.setenv("SYNCWORD_SAT_CMD", "echo hi")  # another method's variable
        assert SearchConfig(method="asp1").solver_cmd == fake_asp_cmd
        assert SearchConfig(method="asp1", solver_cmd="x {file}").solver_cmd == "x {file}"
        assert SearchConfig(method="sat-internal").solver_cmd is None

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

    def test_outcome_calls_round_trip(self):
        # The probes are stored as four doubles each and read back as records.
        probes = (ProbeRecord(3, "unsat", 0.25, None), ProbeRecord(40, "sat", 1e-7, 123_456),
                  ProbeRecord(41, "sat", 2.5, 0))
        assert SearchOutcome(41, (1,) * 41, probes).calls == probes
        assert SearchOutcome(0, ()).calls == ()

    def test_a1_sat_internal_probe_trace(self, a1):
        # The first probe is at the pair-merge bound: the pair {1,2} needs aab.
        # It is UNSAT, the next is max(3 + 1, ceil(2*sqrt(3)) = 4), SAT.
        outcome = find_shortest(a1, SearchConfig(method="sat-internal"))
        assert outcome.length == 4
        assert [(r.c, r.verdict) for r in outcome.calls] == [(3, "unsat"), (4, "sat")]

    def test_cerny4_sat_internal_probe_trace(self):
        # From the pair-merge bound 6 the UNSAT steps are 1 and 2, the SAT
        # probe at 9 bisects to max((7 + 9) // 2, 9 - 4) = 8.
        outcome = find_shortest(generate_cerny(4), SearchConfig(method="sat-internal"))
        assert outcome.length == 9
        assert [(r.c, r.verdict) for r in outcome.calls] == [
            (6, "unsat"), (7, "unsat"), (9, "sat"), (8, "unsat")]

    @pytest.mark.parametrize("n, seed, trace", [
        # L = 5 is the length: bisecting alone would go on at 2, 3 and 4.
        (6, 21, [(5, "sat"), (4, "unsat")]),
        # L = 5 < ceil(2*sqrt(20)) - 3 = 6, so the search starts at 9, the
        # length, where bisecting alone would go on at 4, 6, 7 and 8.
        (20, 23, [(9, "sat"), (8, "unsat")]),
    ])
    def test_bisection_starts_one_step_below_the_first_sat_probe(self, n, seed, trace):
        outcome = find_shortest(generate_random(n, 2, seed), SearchConfig(method="sat-internal"))
        assert [(r.c, r.verdict) for r in outcome.calls] == trace

    def test_sat_methods_run_the_pair_bfs_once(self, monkeypatch):
        # find_shortest asks for the check and then the bound, and each probe
        # encodes the pair distances; pair_merges's cache keeps that to one pair BFS.
        exact.pair_merges.cache_clear()
        runs = []
        pair_bfs = exact._pair_merge_bfs
        monkeypatch.setattr(exact, "_pair_merge_bfs", lambda bits: runs.append(bits)
                            or pair_bfs(bits))
        assert find_shortest(generate_cerny(4), SearchConfig(method="sat-internal")).length == 9
        assert len(runs) == 1

    def test_search_formula_is_freed_on_return(self, monkeypatch):
        # A benchmark run keeps every outcome; none may keep its search's formula.
        refs = []

        class Recorded(satenc.Unrolling):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(satenc, "Unrolling", Recorded)
        outcome = find_shortest(generate_cerny(4), SearchConfig(method="sat-internal"))
        assert outcome.length == 9 and len(refs) == 1 and refs[0]() is None

    def test_unsat_up_to_the_cubic_bound_is_a_soundness_error(self, a1, monkeypatch):
        # cubic_length_bound(3) = 4, so the second probe, at c = 4, is the last.
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

    @staticmethod
    def slowed_checks(monkeypatch, module):
        """Slow `module.check_synchronizable` by 0.05 s; return its call list."""
        checks = []

        def slow_check(a):
            checks.append(a)
            time.sleep(0.05)
            return check_synchronizable(a)

        monkeypatch.setattr(f"{module}.check_synchronizable", slow_check)
        return checks

    def test_total_time_covers_the_pair_check(self, a1, monkeypatch):
        checks = self.slowed_checks(monkeypatch, "syncword.driver")  # checked up front
        assert find_shortest(a1, SearchConfig(method="sat-internal")).total_time >= 0.05
        assert len(checks) == 1

    def test_total_time_covers_the_in_search_pair_check(self, monkeypatch):
        # BFS checks once its two sides store more than n^2 sets: Cerny 14
        # stores 233 > 196.
        checks = self.slowed_checks(monkeypatch, "syncword.exact")
        assert find_shortest(generate_cerny(14), SearchConfig()).total_time >= 0.05
        assert len(checks) == 1

    def test_bfs_runs_no_pair_check_on_a_small_search(self, a1, monkeypatch):
        def no_check(a):
            raise AssertionError("check_synchronizable was called")

        monkeypatch.setattr("syncword.driver.check_synchronizable", no_check)
        monkeypatch.setattr("syncword.exact.check_synchronizable", no_check)
        assert find_shortest(a1, SearchConfig()).length == 4

    def test_bfs_not_synchronizable_after_one_in_search_check(self, monkeypatch):
        a = generate_random(10, 2, 6)  # not synchronizable; stores over 100 sets
        checks = []
        for module in ("exact", "driver"):
            monkeypatch.setattr(f"syncword.{module}.check_synchronizable",
                                lambda a, module=module: checks.append(module)
                                or check_synchronizable(a))
        assert find_shortest(a, SearchConfig()) is None
        # The in-search check, then the driver's disagreement check.
        assert checks == ["exact", "driver"]

    def test_one_state(self, one_state):
        outcome = find_shortest(one_state, SearchConfig(method="sat-internal"))
        assert outcome.length == 0 and outcome.witness == ()

    def test_search_reaches_large_optimum(self):
        outcome = find_shortest(generate_cerny(5), SearchConfig(method="sat-internal"))
        assert outcome.length == 16

    def test_cerny_witness_is_the_bfs_witness(self):
        # Without the pair-distance clauses one Cerny 6 (length 25) probe takes over 30 s.
        for n in range(2, 7):
            a = generate_cerny(n)
            outcome = find_shortest(a, SearchConfig(method="sat-internal", time_budget=10))
            assert outcome.witness == shortest_sync_bfs(a).witness

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

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_witness_is_the_model_at_the_length(self, encoding):
        # The start decides only how many probes run: the witness is the
        # solver's first model of the formula at the length itself.
        for a in synchronizable_sweep(15, max_n=6, max_k=2):
            cfg = SearchConfig(method="sat-internal", encoding=encoding)
            outcome = find_shortest(a, cfg)
            m = outcome.length
            model = solve_internal(encode_sat(a, m, encoding))
            assert outcome.witness == decode_model(a, m, model)

    @staticmethod
    def no_growth(self):
        raise AssertionError("the formula grew before the var cap was checked")

    def test_var_cap_checked_before_encoding(self, monkeypatch):
        # Cerny 160 starts at its pair-merge bound c = 12,720, far past the
        # solver cap in paper variables.
        monkeypatch.setattr("syncword.satenc.Unrolling.add_layer", self.no_growth)
        with pytest.raises(ResourceLimitError, match="solver cap"):
            find_shortest(generate_cerny(160),
                          SearchConfig(method="sat-internal", encoding="paper"))

    def test_var_cap_checked_before_image_encoding(self, monkeypatch):
        # Cerny 100 starts at its pair-merge bound c = 4,950, which needs
        # 9,900 + 100 * 4,951 = 505,000 image variables.
        monkeypatch.setattr("syncword.satenc.Unrolling.add_layer", self.no_growth)
        with pytest.raises(ResourceLimitError, match="505000 variables"):
            find_shortest(generate_cerny(100), SearchConfig(method="sat-internal"))

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
        # With its pair-distance clauses the image encoding takes Cerny 6 in
        # well under a second, but the DPLL's c = 43 probe on Cerny 8 alone
        # takes about 5 s.
        start = time.monotonic()
        with pytest.raises(ResourceLimitError, match="time budget"):
            find_shortest(generate_cerny(8), SearchConfig(method="sat-internal", time_budget=0.2))
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
        # initial c = max(3, ceil(2*sqrt(3))) = 4 >= optimum, single emission suffices
        outcome = find_shortest(a1, SearchConfig(method=method, solver_cmd=fake_asp_cmd))
        assert outcome.length == 4
        assert is_synchronizing_word(a1, outcome.witness)
        assert [(r.c, r.verdict) for r in outcome.calls] == [(4, "sat")]

    def test_asp_opt_starts_at_the_pair_merge_bound(self, fake_asp_cmd):
        # max(10, ceil(2*sqrt(5))) = 10 is UNSAT, 20 is capped at the cubic
        # bound 19.
        outcome = find_shortest(
            generate_cerny(5), SearchConfig(method="asp1opt", solver_cmd=fake_asp_cmd)
        )
        assert outcome.length == 16
        assert [(r.c, r.verdict) for r in outcome.calls] == [(10, "unsat"), (19, "sat")]

    def test_asp_opt_doubles_on_unsat(self, fake_asp_cmd):
        # L = ceil(2*sqrt(4)) = 4 lies below the length 5.
        outcome = find_shortest(
            generate_random(4, 2, 5), SearchConfig(method="asp1opt", solver_cmd=fake_asp_cmd)
        )
        assert outcome.length == 5
        assert [(r.c, r.verdict) for r in outcome.calls] == [(4, "unsat"), (8, "sat")]

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

    def test_empty_env_var_is_unset(self, a1, monkeypatch):
        monkeypatch.setenv("SYNCWORD_ASP_CMD", "")
        with pytest.raises(SolverError, match="needs a solver command"):
            find_shortest(a1, SearchConfig(method="asp1"))

    def test_env_var_fallback(self, a1, fake_asp_cmd, monkeypatch):
        monkeypatch.setenv("SYNCWORD_ASP_CMD", fake_asp_cmd)
        outcome = find_shortest(a1, SearchConfig(method="asp1"))
        assert outcome.length == 4

    def test_sat_env_var_fallback(self, a1, fake_sat_cmd, monkeypatch):
        monkeypatch.setenv("SYNCWORD_SAT_CMD", fake_sat_cmd)
        outcome = find_shortest(a1, SearchConfig(method="sat-external"))
        assert outcome.length == 4
