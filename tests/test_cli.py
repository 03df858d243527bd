import dataclasses

import pytest

from syncword.cli import build_parser, cli_main
from syncword.driver import SearchConfig
from syncword.satenc import VarMap

from conftest import A1_TEXT


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.fa"
    path.write_text(A1_TEXT)
    return str(path)


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "swap.fa"
    path.write_text("2 1\n2\n1\n")
    return str(path)


class TestCheck:
    def test_synchronizable(self, a1_file, capsys):
        assert cli_main(["check", a1_file]) == 0
        assert capsys.readouterr().out.strip() == "synchronizable"

    def test_not_synchronizable(self, swap_file, capsys):
        assert cli_main(["check", swap_file]) == 1
        assert capsys.readouterr().out.strip() == "not synchronizable"

    def test_missing_file(self, tmp_path):
        assert cli_main(["check", str(tmp_path / "nope.fa")]) == 2

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.fa"
        bad.write_text("2 1\n9\n1\n")
        assert cli_main(["check", str(bad)]) == 2


class TestShortest:
    def test_bfs(self, a1_file, capsys):
        assert cli_main(["shortest", a1_file, "--method", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "length 4" in out
        assert "witness baab" in out

    def test_sat_internal(self, a1_file, capsys):
        assert cli_main(["shortest", a1_file, "--method", "sat-internal"]) == 0
        assert "length 4" in capsys.readouterr().out

    @pytest.mark.parametrize("encoding", ["image", "paper"])
    def test_sat_encoding_flag(self, a1_file, capsys, encoding):
        rc = cli_main(["shortest", a1_file, "--method", "sat-internal", "--encoding", encoding])
        assert rc == 0
        assert capsys.readouterr().out == "length 4\nwitness baab\n"

    def test_witness_beyond_z_prints_numbers(self, tmp_path, capsys):
        # 27 symbols: only the last merges the two states, and it has no letter.
        path = tmp_path / "k27.fa"
        path.write_text("2 27\n" + "1 " * 27 + "\n" + "2 " * 26 + "1\n")
        assert cli_main(["shortest", str(path)]) == 0
        assert capsys.readouterr().out == "length 1\nwitness 27\n"

    def test_unknown_encoding_usage_error(self, a1_file):
        assert cli_main(["shortest", a1_file, "--method", "sat-internal",
                         "--encoding", "compact"]) == 2

    def test_not_synchronizable_exit_1(self, swap_file):
        assert cli_main(["shortest", swap_file]) == 1

    @pytest.mark.parametrize("seed", [None, 6], ids=["swap", "random-10-2-6"])
    def test_not_synchronizable_exit_1_under_any_time_budget(self, swap_file, tmp_path,
                                                              capsys, seed):
        # The budget runs out before BFS has decided; the pair check then
        # decides.  Random 10:2 seed 6 does not synchronize either.
        path = swap_file
        if seed is not None:
            cli_main(["gen", "random", "-n", "10", "-k", "2", "--seed", str(seed)])
            path = tmp_path / "random.fa"
            path.write_text(capsys.readouterr().out)
        assert cli_main(["shortest", str(path), "--time-budget", "1e-9"]) == 1

    def test_unknown_method_usage_error(self, a1_file):
        assert cli_main(["shortest", a1_file, "--method", "quantum"]) == 2

    def test_missing_solver_infra_error(self, a1_file, monkeypatch):
        monkeypatch.delenv("SYNCWORD_ASP_CMD", raising=False)
        assert cli_main(["shortest", a1_file, "--method", "asp1"]) == 3

    def test_resource_cap_infra_error(self, a1_file, monkeypatch, capsys):
        import syncword.cli as cli_mod
        from syncword.errors import ResourceLimitError

        def capped(a, cfg):
            raise ResourceLimitError("visited-set cap of 10 subsets exceeded")

        monkeypatch.setattr(cli_mod, "find_shortest", capped)
        assert cli_main(["shortest", a1_file]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_solver_cmd_without_placeholder_usage_error(self, a1_file, monkeypatch, capsys):
        import syncword.cli as cli_mod

        def no_solve(a, cfg):
            raise AssertionError("solved with a solver command that names no file")

        monkeypatch.setattr(cli_mod, "find_shortest", no_solve)
        rc = cli_main(["shortest", a1_file, "--method", "sat-external", "--solver-cmd", "echo hi"])
        assert rc == 2
        assert "lacks a {file} placeholder" in capsys.readouterr().err

    def test_env_solver_cmd_without_placeholder_usage_error(self, a1_file, monkeypatch, capsys):
        monkeypatch.setenv("SYNCWORD_SAT_CMD", "echo hi")
        assert cli_main(["shortest", a1_file, "--method", "sat-external"]) == 2
        assert "lacks a {file} placeholder" in capsys.readouterr().err

    def test_empty_env_solver_cmd_infra_error(self, a1_file, monkeypatch, capsys):
        monkeypatch.setenv("SYNCWORD_ASP_CMD", "")
        assert cli_main(["shortest", a1_file, "--method", "asp1"]) == 3
        assert "needs a solver command" in capsys.readouterr().err

    def test_zero_time_budget_usage_error(self, a1_file, capsys):
        assert cli_main(["shortest", a1_file, "--time-budget", "0"]) == 2
        assert "time_budget must be > 0" in capsys.readouterr().err

    def test_time_budget_infra_error(self, tmp_path, capsys):
        from syncword.automaton import generate_cerny, serialize_fa

        # Unbudgeted, BFS on Cerny 200 takes about 3 s.
        path = tmp_path / "cerny200.fa"
        path.write_text(serialize_fa(generate_cerny(200)))
        assert cli_main(["shortest", str(path), "--time-budget", "0.01"]) == 3
        assert "time budget" in capsys.readouterr().err

    @pytest.mark.parametrize("method, output", [
        # A symbol outside 1..k fails re-verification.
        ("asp1opt", "Answer: 1\\nsynchro(1,7) shortest(1)\\nOPTIMUM FOUND\\n"),
        # Two true symbol variables at step 1 do not decode.
        ("sat-external", "s SATISFIABLE\\nv 1 2 0\\n"),
        # A non-integer literal does not parse.
        ("sat-external", "s SATISFIABLE\\nv 1 x 0\\n"),
        # An atom with an empty argument does not decode.
        ("asp1", "Answer: 1\\nsynchro(1,) synchro(2,1)\\n"),
        # A synchronizing word longer than the bound c = 4 is no optimum.
        ("asp1opt", "Answer: 1\\nsynchro(1,2) synchro(2,1) synchro(3,1) synchro(4,2) "
                    "synchro(5,1) synchro(6,1) synchro(7,1) shortest(7)\\nOPTIMUM FOUND\\n"),
    ], ids=["asp-symbol-out-of-range", "sat-two-symbols", "sat-bad-literal", "asp-empty-argument",
            "asp-shortest-beyond-bound"])
    def test_unreadable_solver_output_infra_error(self, a1_file, capsys, method, output):
        cmd = f"cat {{file}} >/dev/null; printf '{output}'"
        rc = cli_main(["shortest", a1_file, "--method", method, "--solver-cmd", cmd])
        assert rc == 3
        captured = capsys.readouterr()
        assert "witness" not in captured.out
        assert captured.err.startswith("error: ")

    def test_asp_with_stub(self, a1_file, fake_asp_cmd, capsys):
        rc = cli_main(["shortest", a1_file, "--method", "asp1opt",
                       "--solver-cmd", fake_asp_cmd])
        assert rc == 0
        assert "length 4" in capsys.readouterr().out


class TestGreedy:
    def test_a1(self, a1_file, capsys):
        assert cli_main(["greedy", a1_file]) == 0
        assert "length" in capsys.readouterr().out

    def test_swap(self, swap_file):
        assert cli_main(["greedy", swap_file]) == 1

    def test_unverified_word_infra_error(self, a1_file, monkeypatch, capsys):
        # A word that fails re-verification is a bug, exit 3, not "not synchronizable".
        from syncword import exact

        monkeypatch.setattr(exact, "is_synchronizing_word", lambda a, w: False)
        assert cli_main(["greedy", a1_file]) == 3
        assert "does not synchronize" in capsys.readouterr().err


class TestEncode:
    def test_sat_to_file(self, a1_file, tmp_path, capsys):
        out = tmp_path / "a1.cnf"
        assert cli_main(["encode", "sat", a1_file, "-c", "4", "-o", str(out),
                         "--encoding", "paper"]) == 0
        text = out.read_text()
        assert f"p cnf {VarMap(3, 2, 4, 'paper').var_count} " in text

    def test_sat_image_encoding_is_the_default(self, a1_file, capsys):
        assert cli_main(["encode", "sat", a1_file, "-c", "4"]) == 0
        out = capsys.readouterr().out
        assert "encoding=image" in out and "\np cnf 23 41\n" in out

    def test_asp_to_stdout(self, a1_file, capsys):
        rc = cli_main(["encode", "asp", a1_file, "--formulation", "asp2", "-c", "3"])
        assert rc == 0
        assert "merged(R)" in capsys.readouterr().out

    def test_asp_legacy(self, a1_file, capsys):
        rc = cli_main(["encode", "asp", a1_file, "--formulation", "asp1opt",
                       "-c", "4", "--legacy-syntax"])
        assert rc == 0
        assert "#minimize [ shortest(L) = L ]." in capsys.readouterr().out

    def test_determinism(self, a1_file, capsys):
        cli_main(["encode", "sat", a1_file, "-c", "4"])
        first = capsys.readouterr().out
        cli_main(["encode", "sat", a1_file, "-c", "4"])
        assert capsys.readouterr().out == first


class TestDecode:
    def test_round_trip_via_stub_model(self, a1_file, tmp_path, capsys):
        from syncword.automaton import parse_fa
        from syncword.satenc import encode_sat, solve_internal

        model = solve_internal(encode_sat(parse_fa(A1_TEXT), 4))
        lits = " ".join(str(v if val else -v) for v, val in sorted(model.items()))
        model_file = tmp_path / "model.txt"
        model_file.write_text(lits + " 0\n")
        rc = cli_main(["decode", "sat", a1_file, "-c", "4", "--model", str(model_file)])
        assert rc == 0
        assert "witness baab" in capsys.readouterr().out

    def test_zero_bound_usage_error(self, a1_file, tmp_path, capsys):
        model_file = tmp_path / "model.txt"
        model_file.write_text("v 1 0\n")
        rc = cli_main(["decode", "sat", a1_file, "-c", "0", "--model", str(model_file)])
        assert rc == 2
        assert "bound c must be >= 1" in capsys.readouterr().err

    def test_non_synchronizing_model_infra_error(self, a1_file, tmp_path, capsys):
        # A well-formed model that decodes to bbbb, which does not
        # synchronize a1: it must not be printed as a witness.
        model_file = tmp_path / "model.txt"
        model_file.write_text("v -1 2 -3 4 -5 6 -7 8 0\n")
        rc = cli_main(["decode", "sat", a1_file, "-c", "4", "--model", str(model_file)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "witness" not in captured.out
        assert captured.err.startswith("error: ")


class TestGen:
    def test_random_deterministic(self, capsys):
        cli_main(["gen", "random", "-n", "5", "-k", "2", "--seed", "42"])
        first = capsys.readouterr().out
        cli_main(["gen", "random", "-n", "5", "-k", "2", "--seed", "42"])
        assert capsys.readouterr().out == first
        assert first.startswith("5 2\n")

    def test_require_sync(self, capsys):
        from syncword.automaton import parse_fa
        from syncword.exact import check_synchronizable

        cli_main(["gen", "random", "-n", "6", "-k", "2", "--seed", "0", "--require-sync"])
        out = capsys.readouterr().out
        assert check_synchronizable(parse_fa(out))

    def test_require_sync_redraws_with_the_next_seed(self, capsys):
        from syncword.automaton import generate_random, serialize_fa
        from syncword.exact import check_synchronizable

        assert not check_synchronizable(generate_random(5, 2, 9))
        rc = cli_main(["gen", "random", "-n", "5", "-k", "2", "--seed", "9", "--require-sync"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == serialize_fa(generate_random(5, 2, 10))
        assert "# drew seed 10" in captured.err

    def test_cerny(self, capsys):
        assert cli_main(["gen", "cerny", "-n", "4"]) == 0
        assert capsys.readouterr().out == "4 2\n2 1\n3 2\n4 3\n1 1\n"

    def test_cerny_n1_usage_error(self):
        assert cli_main(["gen", "cerny", "-n", "1"]) == 2


class TestImport:
    def test_kiss(self, tmp_path, capsys):
        kiss = tmp_path / "m.kiss"
        kiss.write_text(".i 1\n.o 1\n0 a b 0\n1 a a 0\n0 b a 0\n1 b b 0\n")
        assert cli_main(["import", "kiss", str(kiss)]) == 0
        assert capsys.readouterr().out.startswith("2 2\n")

    def test_kiss_partial_rejected(self, tmp_path):
        kiss = tmp_path / "m.kiss"
        kiss.write_text("0 a b 0\n1 a a 0\n0 b a 0\n")
        assert cli_main(["import", "kiss", str(kiss)]) == 2


class TestBench:
    def test_basic(self, capsys):
        rc = cli_main(["bench", "--spec", "5:2:2", "--methods", "bfs,sat-internal",
                       "--seed", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("row_type,")
        assert out.count("\ninstance,") == 4

    def test_encoding_flag(self, capsys):
        from syncword.bench import strip_timing

        outputs = []
        for encoding in ("image", "paper"):
            rc = cli_main(["bench", "--spec", "5:2:2", "--methods", "sat-internal",
                           "--seed", "9", "--encoding", encoding])
            assert rc == 0
            outputs.append(strip_timing(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_cerny_spec(self, capsys):
        rc = cli_main(["bench", "--spec", "cerny:4", "--methods", "bfs", "--seed", "0"])
        assert rc == 0
        assert ",9," in capsys.readouterr().out

    def test_unknown_method_fails_before_any_solve(self, monkeypatch, capsys):
        import syncword.bench as bench_mod

        def no_solve(a, cfg):
            raise AssertionError("solved before every method was checked")

        monkeypatch.setattr(bench_mod, "find_shortest", no_solve)
        rc = cli_main(["bench", "--spec", "4:2:1", "--methods", "bfs,bogus", "--seed", "0"])
        assert rc == 2
        assert "unknown method 'bogus'" in capsys.readouterr().err

    def test_repeated_method_fails_before_any_solve(self, monkeypatch, capsys):
        import syncword.bench as bench_mod

        def no_solve(a, cfg):
            raise AssertionError("solved a bench with a repeated method")

        monkeypatch.setattr(bench_mod, "find_shortest", no_solve)
        rc = cli_main(["bench", "--spec", "4:2:1", "--methods", "bfs,bfs", "--seed", "0"])
        assert rc == 2
        assert "distinct methods" in capsys.readouterr().err

    def test_solver_cmd_without_placeholder_fails_before_any_solve(self, monkeypatch, capsys):
        import syncword.bench as bench_mod

        def no_solve(a, cfg):
            raise AssertionError("solved before the solver command was checked")

        monkeypatch.setattr(bench_mod, "find_shortest", no_solve)
        rc = cli_main(["bench", "--spec", "4:2:1", "--methods", "bfs,sat-external",
                       "--seed", "0", "--solver-cmd", "echo hi"])
        assert rc == 2
        assert "lacks a {file} placeholder" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_csv_fails_before_any_solve(self, where, tmp_path, monkeypatch, capsys):
        import syncword.bench as bench_mod

        def no_solve(a, cfg):
            raise AssertionError("solved before the --csv path was checked")

        monkeypatch.setattr(bench_mod, "find_shortest", no_solve)
        csv = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        rc = cli_main(["bench", "--spec", "12:2:20", "--methods", "bfs,sat-internal",
                       "--seed", "0", "--csv", str(csv)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_env_solver_cmd_without_placeholder_fails_before_any_solve(self, monkeypatch,
                                                                        capsys):
        import syncword.bench as bench_mod

        def no_solve(a, cfg):
            raise AssertionError("solved before the solver command was checked")

        monkeypatch.setattr(bench_mod, "find_shortest", no_solve)
        monkeypatch.setenv("SYNCWORD_ASP_CMD", "echo hi")
        rc = cli_main(["bench", "--spec", "4:2:1", "--methods", "bfs,asp1", "--seed", "0"])
        assert rc == 2
        assert "lacks a {file} placeholder" in capsys.readouterr().err

    def test_legacy_syntax_reaches_the_emitter(self, fake_asp_cmd, monkeypatch, capsys):
        from syncword import aspenc

        emit, seen = aspenc.emit, []

        def spy(a, formulation, c, legacy_syntax=False):
            seen.append(legacy_syntax)
            return emit(a, formulation, c, legacy_syntax)

        monkeypatch.setattr(aspenc, "emit", spy)
        rc = cli_main(["bench", "--spec", "4:2:1", "--methods", "asp1opt", "--seed", "0",
                       "--legacy-syntax", "--solver-cmd", fake_asp_cmd])
        assert rc == 0, capsys.readouterr().err
        assert seen and all(seen)

    def test_negative_time_budget_usage_error(self, capsys):
        rc = cli_main(["bench", "--spec", "4:2:1", "--methods", "bfs", "--seed", "0",
                       "--time-budget", "-1"])
        assert rc == 2
        assert "time_budget must be > 0" in capsys.readouterr().err

    def test_bad_spec(self):
        assert cli_main(["bench", "--spec", "5x2", "--methods", "bfs", "--seed", "0"]) == 2

    def test_csv_file_and_table(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = cli_main(["bench", "--spec", "4:2:2", "--methods", "bfs", "--seed", "1",
                       "--csv", str(out), "--table"])
        assert rc == 0
        assert out.read_text().startswith("row_type,")
        assert "bfs" in capsys.readouterr().err


class TestUserPaths:
    @pytest.mark.parametrize("argv", [
        ["check", "{dir}"],
        ["shortest", "{dir}"],
        ["encode", "sat", "{fa}", "-c", "4", "-o", "{dir}"],
        ["encode", "asp", "{fa}", "--formulation", "asp1", "-c", "4", "-o", "{dir}"],
        ["decode", "sat", "{fa}", "-c", "4", "--model", "{dir}"],
        ["import", "kiss", "{dir}"],
        ["bench", "--spec", "4:2:1", "--methods", "bfs", "--seed", "0", "--csv", "{dir}"],
    ], ids=["check", "shortest", "encode-sat-out", "encode-asp-out", "decode-model",
            "import-kiss", "bench-csv"])
    def test_directory_is_a_usage_error(self, argv, a1_file, tmp_path, capsys):
        argv = [arg.format(fa=a1_file, dir=tmp_path) for arg in argv]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err


class TestSearchSettings:
    @pytest.mark.parametrize("argv", [
        ["shortest", "x.fa"],
        ["bench", "--spec", "4:2:1", "--methods", "bfs", "--seed", "0"],
    ], ids=["shortest", "bench"])
    def test_every_setting_has_a_flag(self, argv):
        from syncword.cli import search_settings

        args = build_parser().parse_args(argv)
        for f in dataclasses.fields(SearchConfig):
            assert f.name == "method" or hasattr(args, f.name), f.name
        assert SearchConfig(**search_settings(args)) == SearchConfig()


class TestUsage:
    def test_no_args(self):
        assert cli_main([]) == 2

    def test_unknown_command(self):
        assert cli_main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "-n", "1_0", "-k", "2", "--seed", "0"],
        ["gen", "random", "-n", "10", "-k", "+2", "--seed", "0"],
        ["gen", "random", "-n", "10", "-k", "2", "--seed", "\u0663"],  # an Arabic-Indic 3
        ["gen", "cerny", "-n", "1_0"],
        ["bench", "--spec", "1_2:2:1", "--methods", "bfs", "--seed", "0"],
        ["bench", "--spec", "cerny:+4", "--methods", "bfs", "--seed", "0"],
        ["bench", "--spec", "4:2:1", "--methods", "bfs", "--seed", "1_0"],
    ])
    def test_integer_arguments_take_ascii_digits_only(self, argv, capsys):
        assert cli_main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_integer_argument_error_names_a_decimal_integer(self, capsys):
        assert cli_main(["gen", "random", "-n", "1_0", "-k", "2", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "argument -n: not a decimal integer: '1_0'" in err
        assert "int_token" not in err

    @pytest.mark.parametrize("budget", ["1_0", "\u0661", " 5"])  # \u0661: an Arabic-Indic 1
    def test_time_budget_takes_ascii_decimals_only(self, a1_file, budget, capsys):
        assert cli_main(["shortest", a1_file, "--time-budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --time-budget: not a decimal number: {budget!r}" in captured.err

    @pytest.mark.parametrize("budget", ["0", "-1", "1e-9", "0.01", "inf"])
    def test_time_budget_parses_decimals_and_inf_as_floats(self, budget):
        # 0 and -1 parse, and then fail SearchConfig's check (exit 2).
        args = build_parser().parse_args(["shortest", "a.fa", "--time-budget", budget])
        assert args.time_budget == float(budget)

    def test_bound_takes_ascii_digits_only(self, a1_file, capsys):
        assert cli_main(["encode", "sat", a1_file, "-c", "0_4"]) == 2
        assert capsys.readouterr().out == ""
