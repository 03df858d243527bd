import csv
import io

import pytest

from syncword.bench import (
    BenchCell,
    bench_run,
    generate_instances,
    render_table,
    strip_timing,
)
from syncword.errors import ResourceLimitError, SoundnessError


def rows_of(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


class TestGenerateInstances:
    def test_discards_non_synchronizable(self):
        instances, discarded, draw = generate_instances(BenchCell(6, 2, 5), 99)
        assert len(instances) == 5
        assert draw == 5 + discarded

    def test_cerny_family(self):
        instances, discarded, _ = generate_instances(BenchCell(5, 2, 1, family="cerny"), 0)
        assert discarded == 0
        assert instances[0][1].n == 5


class TestBenchRun:
    def test_row_counts_and_agreement(self):
        text = bench_run([BenchCell(5, 2, 10)], ["bfs", "sat-internal"], seed=3)
        rows = rows_of(text)
        inst = [r for r in rows if r["row_type"] == "instance"]
        agg = [r for r in rows if r["row_type"] == "aggregate"]
        assert len(inst) == 20 and len(agg) == 2
        by_id = {}
        for r in inst:
            by_id.setdefault(r["instance"], set()).add(r["length"])
        assert all(len(lengths) == 1 for lengths in by_id.values())

    def test_cerny_sweep_lengths(self):
        cells = [BenchCell(n, 2, 1, family="cerny") for n in range(3, 8)]
        text = bench_run(cells, ["bfs"], seed=0)
        lengths = [int(r["length"]) for r in rows_of(text) if r["row_type"] == "instance"]
        assert lengths == [4, 9, 16, 25, 36]

    def test_instance_ids_are_unique_in_a_run(self):
        # Cerny 4 shares n and k with the random 4:2 cells, and a repeated cell
        # numbers on from the first; a random cell alone keeps n{n}-k{k}-i{idx}.
        cells = [BenchCell(4, 2, 2), BenchCell(4, 2, 1), BenchCell(4, 2, 1, family="cerny"),
                 BenchCell(5, 3, 1)]
        rows = rows_of(bench_run(cells, ["bfs"], seed=0))
        inst = [r for r in rows if r["row_type"] == "instance"]
        assert [r["instance"] for r in inst] == [
            "n4-k2-i0", "n4-k2-i1", "n4-k2-i2", "cerny-n4-k2-i0", "n5-k3-i0"]
        assert len({r["seed"] for r in inst[:3]}) == 3

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            bench_run([BenchCell(5, 2, 0)], ["bfs"], seed=0)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            bench_run([BenchCell(5, 2, 1)], [], seed=0)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="distinct methods"):
            bench_run([BenchCell(4, 2, 1)], ["bfs", "sat-internal", "bfs"], seed=0)

    def test_non_timing_fields_reproducible(self):
        args = ([BenchCell(5, 2, 4), BenchCell(4, 3, 2)], ["bfs", "sat-internal"])
        first = bench_run(*args, seed=11)
        second = bench_run(*args, seed=11)
        assert strip_timing(first) == strip_timing(second)
        assert first != second or first == second  # timing fields may differ

    def test_encoding_reaches_every_method(self):
        # The paper encoding finds the same probes, lengths and witnesses.
        args = ([BenchCell(5, 2, 3)], ["bfs", "sat-internal"], 11)
        paper = strip_timing(bench_run(*args, encoding="paper"))
        assert paper == strip_timing(bench_run(*args, encoding="image"))

    def test_time_budget_reaches_bfs(self):
        with pytest.raises(ResourceLimitError, match="time budget"):
            bench_run([BenchCell(6, 2, 1)], ["bfs"], seed=0, time_budget=1e-9)

    def test_unknown_setting_rejected(self):
        with pytest.raises(TypeError):
            bench_run([BenchCell(4, 2, 1)], ["bfs"], seed=0, initial_c=3)

    def test_aggregate_matches_rows(self):
        text = bench_run([BenchCell(5, 2, 5)], ["bfs"], seed=7)
        rows = rows_of(text)
        inst = [r for r in rows if r["row_type"] == "instance"]
        agg = next(r for r in rows if r["row_type"] == "aggregate")
        mean_len = sum(int(r["length"]) for r in inst) / len(inst)
        assert float(agg["length"]) == pytest.approx(mean_len, abs=0.005)
        mean_time = sum(float(r["total_time_ms"]) for r in inst) / len(inst)
        assert float(agg["total_time_ms"]) == pytest.approx(mean_time, abs=0.005)

    def test_not_synchronizable_outcome_aborts(self, monkeypatch):
        import syncword.bench as bench_mod

        monkeypatch.setattr(bench_mod, "find_shortest", lambda a, cfg: None)
        with pytest.raises(SoundnessError) as exc:
            bench_run([BenchCell(4, 2, 1)], ["bfs"], seed=0)
        assert str(exc.value) == ("n4-k2-i0: instance passed the synchronizability check "
                                  "but method bfs reported not-synchronizable")

    def test_disagreement_aborts(self, monkeypatch):
        # Force one method to lie about the length.
        import syncword.bench as bench_mod

        real = bench_mod.find_shortest

        def lying(a, cfg):
            outcome = real(a, bench_mod.SearchConfig(method="bfs"))
            if cfg.method == "sat-internal":
                outcome.length += 1
                outcome.witness = outcome.witness + (1,)
            return outcome

        monkeypatch.setattr(bench_mod, "find_shortest", lying)
        with pytest.raises(SoundnessError, match="disagree"):
            bench_mod.bench_run([BenchCell(4, 2, 1)], ["bfs", "sat-internal"], seed=5)


class TestRendering:
    def test_table_contains_cells(self):
        text = bench_run([BenchCell(5, 2, 2)], ["bfs"], seed=1)
        table = render_table(text)
        assert "bfs" in table and "5" in table

    def test_table_has_one_line_per_aggregate_row(self):
        # Cerny 4 and the random 4:2 cell share (n, k) but stay two cells.
        cells = [BenchCell(4, 2, 1, family="cerny"), BenchCell(4, 2, 2)]
        text = strip_timing(bench_run(cells, ["bfs", "sat-internal"], seed=3))
        assert [line.split() for line in render_table(text).splitlines()] == [
            ["instance", "n", "k", "method", "length", "total_time_ms", "discarded"],
            ["cerny-n4-k2-i0", "4", "2", "bfs", "9.00", "0"],
            ["cerny-n4-k2-i0", "4", "2", "sat-internal", "9.00", "0"],
            ["n4-k2-i0..i1", "4", "2", "bfs", "2.50", "0"],
            ["n4-k2-i0..i1", "4", "2", "sat-internal", "2.50", "0"],
        ]

    def test_aggregate_rows_name_their_cell(self):
        # Two random 4:2 cells and Cerny 4 share (n, k); each aggregate row, and
        # its table line, names its cell by the first..last instance ids.
        cells = [BenchCell(4, 2, 2), BenchCell(4, 2, 1), BenchCell(4, 2, 1, family="cerny")]
        text = strip_timing(bench_run(cells, ["bfs", "sat-internal"], seed=11))
        agg = [r for r in rows_of(text) if r["row_type"] == "aggregate"]
        assert [(r["instance"], r["method"]) for r in agg] == [
            ("n4-k2-i0..i1", "bfs"), ("n4-k2-i0..i1", "sat-internal"),
            ("n4-k2-i2", "bfs"), ("n4-k2-i2", "sat-internal"),
            ("cerny-n4-k2-i0", "bfs"), ("cerny-n4-k2-i0", "sat-internal")]
        lines = render_table(text).splitlines()[1:]
        assert [line.split()[0] for line in lines] == [r["instance"] for r in agg]
        assert len(set(lines)) == len(lines)

    def test_strip_timing_blanks_only_timing(self):
        text = bench_run([BenchCell(4, 2, 1)], ["bfs"], seed=1)
        stripped = rows_of(strip_timing(text))
        assert all(r["total_time_ms"] == "" for r in stripped)
        assert any(r["length"] != "" for r in stripped)
