"""Tests of the benchmark itself: seeded set-up, the oracle and the spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_is_byte_identical_from_one_seed(name):
    _, first = workloads.setup(name, 3)
    _, second = workloads.setup(name, 3)
    assert first.serialize() == second.serialize()
    _, default = workloads.setup(name, run.DEFAULT_SEED)
    committed = json.loads(run.EXPECTED.read_text())[name]
    assert default.digest() == committed["digest"]
    assert default.digest() != first.digest() or name == "bfs-cerny"


def test_oracle_catches_an_injected_wrong_length():
    mods, setup = workloads.setup("sat-internal", 1)
    solve = setup.blocks[0][-1]
    (length,) = solve.expected
    word = mods.exact.shortest_sync_bfs(solve.automaton).witness
    right = SimpleNamespace(length=length, witness=word)
    padded = SimpleNamespace(length=length + 1, witness=word + (1,))
    assert run.check_results([(solve, 0.0, right)], {}) == [None]
    [problem] = run.check_results([(solve, 0.0, padded)], {})
    assert "expected" in problem
    # With no set-up reference, the committed default-seed length catches it.
    bare = workloads.Solve(solve.instance, "bfs", solve.automaton, solve.cfg, ())
    assert run.check_results([(bare, 0.0, padded)], {}) == [None]
    [problem] = run.check_results([(bare, 0.0, padded)], {solve.instance: length})
    assert "expected" in problem
    # A witness that does not synchronize is caught without any reference.
    assert oracle.check(solve.automaton.delta, 1, (1,), []) is not None
    assert oracle.shortest_length(solve.automaton.delta) == length


def test_child_spans_nest_inside_their_parents():
    mods, setup = workloads.setup("external-stub", 1)
    block = setup.blocks[0]
    blocks = [block[:5], [s for s in block if s.method == "sat-external"][:1]]
    recorder = spans.Recorder(mods)
    recorder.pass_no = 0
    recorder.install()
    try:
        results, _ = run.run_pass(mods, blocks, 0, recorder, min_blocks=2)
    finally:
        recorder.uninstall()
    assert len(results) == 6
    assert all(p is None for p in run.check_results(results, {}))
    assert not recorder.missing
    names = {s.name for s in recorder.spans}
    assert {"driver.find_shortest", "exact.pair_check", "driver.external", "aspenc.emit",
            "satenc.encode", "satenc.dimacs", "driver.parse", "automaton.verify"} <= names
    for span in recorder.spans:
        assert span.start <= span.end
        if span.parent >= 0:
            parent = recorder.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert (parent.solve, parent.pass_no) == (span.solve, span.pass_no)
        else:
            assert span.name == "driver.find_shortest"
    selfs = recorder.self_times()
    roots = sum(s.end - s.start for s in recorder.spans if s.parent < 0)
    assert sum(selfs) == pytest.approx(roots, rel=1e-9)
    assert min(selfs) >= 0


def test_a_renamed_call_site_is_reported_missing_and_does_not_raise():
    mods = workloads.import_syncword()
    sites = (spans.Site("driver", "no_such_function", "driver.gone"),
             spans.Site("satenc", "encode_sat", "satenc.encode", lambda *a: 1 / 0))
    recorder = spans.Recorder(mods, sites)
    recorder.install()
    try:
        a = mods.automaton.generate_cerny(3)
        mods.satenc.encode_sat(a, 4)
    finally:
        recorder.uninstall()
    assert recorder.missing == {"driver.gone", "satenc.encode"}
    assert mods.satenc.encode_sat.__name__ == "encode_sat"


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bfs-cerny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
