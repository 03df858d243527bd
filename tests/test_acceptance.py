"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7 needs an external ASP solver configured via the
SYNCWORD_ASP_CMD environment variable and is skipped with a notice otherwise.
"""

import itertools
import os
import random
import time

import pytest

from syncword.automaton import (
    cubic_length_bound,
    generate_cerny,
    generate_random,
    is_synchronizing_word,
    parse_fa,
    serialize_fa,
)
from syncword.bench import BenchCell, bench_run, strip_timing
from syncword.driver import ASP_CMD_ENV, SearchConfig, find_shortest
from syncword.exact import check_synchronizable, greedy_sync, shortest_sync_bfs
from syncword.satenc import decode_model, encode_sat, solve_internal, write_dimacs
from syncword import aspenc

from conftest import A1_TEXT
from helpers.pair_distances import certifies_length

SWEEP_SEED = 20260823


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"acceptance criterion {criterion} failed{suffix}"


def _sweep(count, max_k, base_seed=SWEEP_SEED):
    """Deterministic synchronizable random automata, n <= 8."""
    out = []
    draw = 0
    while len(out) < count:
        shape = random.Random((base_seed << 20) + draw)
        n = shape.randint(2, 8)
        k = shape.randint(1, max_k)
        a = generate_random(n, k, base_seed * 1_000_003 + draw)
        draw += 1
        if check_synchronizable(a):
            out.append(a)
    return out


@pytest.fixture(scope="module")
def sweep200():
    return _sweep(200, max_k=3)


@pytest.fixture(scope="module")
def optima200(sweep200):
    return [shortest_sync_bfs(a).length for a in sweep200]


def test_criterion_1_fig1_instance():
    start = time.monotonic()
    a1 = parse_fa(A1_TEXT)
    baab = (2, 1, 1, 2)
    ok = is_synchronizing_word(a1, baab)
    res = shortest_sync_bfs(a1)
    ok = ok and res.length == 4
    # exhaustive length-3 sweep: all 8 words, none synchronize
    words3 = list(itertools.product((1, 2), repeat=3))
    ok = ok and len(words3) == 8
    ok = ok and not any(is_synchronizing_word(a1, w) for w in words3)
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0, f"optimum=4, {elapsed:.3f}s")


def test_criterion_2_cerny_family():
    start = time.monotonic()
    lengths = {n: shortest_sync_bfs(generate_cerny(n)).length for n in range(2, 9)}
    ok = all(lengths[n] == (n - 1) ** 2 for n in range(2, 9))
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 10.0, f"lengths={lengths}, {elapsed:.1f}s")


@pytest.mark.parametrize("encoding", ["image", "paper"])
def test_criterion_3_encoder_soundness_completeness(sweep200, optima200, encoding):
    disagreements = 0
    probes = 0
    for a, opt in zip(sweep200, optima200):
        for c in range(1, min(12, (a.n - 1) ** 2) + 1):
            model = solve_internal(encode_sat(a, c, encoding))
            probes += 1
            if (model is not None) != (opt <= c):
                disagreements += 1
            elif model is not None:
                w = decode_model(a, c, model)
                if len(w) != c or not is_synchronizing_word(a, w):
                    disagreements += 1
    report(3, disagreements == 0,
           f"{encoding}: {probes} probes, {disagreements} disagreements")


@pytest.mark.parametrize("encoding", ["image", "paper"])
def test_criterion_4_driver_agreement(sweep200, optima200, encoding):
    # The X variables come first and the DPLL branches true-first, so the
    # model at the length spells the lexicographically least shortest word:
    # the BFS witness.  The probes bracket the length and prove it shortest by
    # an UNSAT probe at length - 1 or by the pair-merge bound.
    bad = 0
    for a, opt in zip(sweep200, optima200):
        outcome = find_shortest(a, SearchConfig(method="sat-internal", encoding=encoding))
        if (outcome.length != opt or outcome.witness != shortest_sync_bfs(a).witness
                or not certifies_length(a, outcome)):
            bad += 1
    report(4, bad == 0, f"{encoding}: {len(sweep200)} instances")


def test_criterion_5_upper_bound_invariant(sweep200, optima200):
    bad = [
        (a.n, opt)
        for a, opt in zip(sweep200, optima200)
        if opt > cubic_length_bound(a.n)
    ]
    report(5, not bad, f"{len(sweep200)} instances within n(7n^2+6n-16)/48")


def test_criterion_6_greedy_dominance(sweep200, optima200):
    bad = 0
    for a, opt in zip(sweep200, optima200):
        w = greedy_sync(a)
        if w is None or not is_synchronizing_word(a, w) or len(w) < opt:
            bad += 1
    report(6, bad == 0, f"{len(sweep200)} instances")


def test_criterion_7_asp_against_external_solver():
    cmd = os.environ.get(ASP_CMD_ENV)
    if not cmd:
        print(f"ACCEPTANCE 7: SKIP (no external ASP solver; set {ASP_CMD_ENV} "
              "to a command template with a {file} placeholder)")
        pytest.skip("no external ASP solver configured")
    instances = _sweep(50, max_k=2, base_seed=SWEEP_SEED + 7)
    disagreements = 0
    for a in instances:
        opt = shortest_sync_bfs(a).length
        for method in ("asp1", "asp2", "asp1opt", "asp2opt"):
            outcome = find_shortest(a, SearchConfig(method=method, solver_cmd=cmd))
            if outcome is None or outcome.length != opt:
                disagreements += 1
    report(7, disagreements == 0, f"50 instances x 4 formulations")


def test_criterion_8_capacity_n27():
    # 1 GB visited-set cap, approximated as 5e6 stored subsets (dict entry
    # plus predecessor tuple is well under 200 bytes at n = 27).
    seed = 0
    while True:
        a = generate_random(27, 2, seed)
        if check_synchronizable(a):
            break
        seed += 1
    start = time.monotonic()
    res = shortest_sync_bfs(a, max_visited=5_000_000)
    elapsed = time.monotonic() - start
    ok = res is not None and is_synchronizing_word(a, res.witness)
    report(8, ok, f"n=27 optimum={res.length}, runtime {elapsed:.2f}s (recorded, not asserted)")


def test_criterion_9_determinism():
    ok = generate_random(6, 2, 424242) == generate_random(6, 2, 424242)
    a = generate_random(6, 2, 424242)
    ok = ok and serialize_fa(a) == serialize_fa(a)
    ok = ok and write_dimacs(encode_sat(a, 5)) == write_dimacs(encode_sat(a, 5))
    for form in aspenc.FORMULATIONS:
        ok = ok and aspenc.emit(a, form, 5).text == aspenc.emit(a, form, 5).text
    cells = [BenchCell(5, 2, 3)]
    first = bench_run(cells, ["bfs", "sat-internal"], seed=31337)
    second = bench_run(cells, ["bfs", "sat-internal"], seed=31337)
    ok = ok and strip_timing(first) == strip_timing(second)
    report(9, ok)
