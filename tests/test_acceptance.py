"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every assertion is exact (integer equality), with wall-clock budgets
asserted where a criterion states one.
"""
import random
import time
from math import comb
from pathlib import Path

import pytest

from conftest import random_row_convex
from latticerect import (Axis, CrossingClass, aztec, aztec_half,
                         aztec_half_rects, aztec_rects, biscuit, biscuit_half,
                         biscuit_half_rects, biscuit_rects, build,
                         count_breakdown, count_fast, count_naive, evaluate,
                         staircase, staircase_rects, split_staircases,
                         verify_bijection)
from latticerect.bijections import BIJECTION_NAMES
from latticerect.cli import main
from latticerect.formulas import SequenceId
from latticerect.oeis import SEQUENCE_FOR_ID, check

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = {
    SequenceId.STAIRCASE: staircase,
    SequenceId.AZTEC_HALF: aztec_half,
    SequenceId.BISCUIT_HALF: biscuit_half,
    SequenceId.AZTEC: aztec,
    SequenceId.BISCUIT: biscuit,
}

s = staircase_rects


@pytest.fixture(scope="module", autouse=True)
def _warm_kernel():
    # first-call numpy set-up happens outside any timed budget
    count_fast(build(aztec(1)))


def _verdict(number: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {number}: PASS  [{detail}]")


def test_criterion_1_base_values():
    started = time.perf_counter()
    expected = {aztec(1): 9, aztec_half(1): 3, biscuit(1): 1, biscuit_half(1): 1}
    formula = {aztec(1): aztec_rects(1), aztec_half(1): aztec_half_rects(1),
               biscuit(1): biscuit_rects(1), biscuit_half(1): biscuit_half_rects(1)}
    for spec, value in expected.items():
        region = build(spec)
        assert count_naive(region) == value
        assert count_fast(region) == value
        assert formula[spec] == value
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _verdict(1, f"a(1)=9, a_half(1)=3, b(1)=1, b_half(1)=1 in {elapsed:.3f}s")


def test_criterion_2_triple_agreement_sweep():
    started = time.perf_counter()
    for seq, make in FAMILIES.items():
        for n in range(1, 31):
            region = build(make(n))
            naive = count_naive(region)
            fast = count_fast(region)
            closed = evaluate(seq, n)  # checks binomial and polynomial forms
            assert naive == fast == closed, (seq, n, naive, fast, closed)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _verdict(2, f"5 families x n=1..30, naive = fast = closed form in {elapsed:.1f}s")


def test_criterion_3_breakdown_identities():
    delta = Axis(0)
    half_delta = Axis(0, half=True)
    for n in range(2, 13):
        half = count_breakdown(build(aztec_half(n)), delta)
        assert half.by_class[CrossingClass.LEFT] == s(n - 1)
        assert half.by_class[CrossingClass.RIGHT] == s(n - 1)
        assert half.by_class[CrossingClass.CENTERED] == s(n) - s(n - 1)
        assert half.by_class[CrossingClass.NON_CROSSING] == 2 * s(n)

        diamond = count_breakdown(build(aztec(n)), delta)
        assert diamond.crossing == aztec_half_rects(n) + aztec_half_rects(n - 1)

        round_shape = count_breakdown(build(biscuit(n)), half_delta)
        assert round_shape.crossing == biscuit_half_rects(n) + biscuit_half_rects(n - 1)
        assert round_shape.by_class[CrossingClass.NON_CROSSING] == \
            2 * biscuit_half_rects(n - 1)

        bhalf = count_breakdown(build(biscuit_half(n)), half_delta)
        assert bhalf.crossing == s(n) + s(n - 1)
        assert bhalf.by_class[CrossingClass.NON_CROSSING] == 2 * s(n - 1)

        # the assembled identities behind the closed forms
        assert half.total == 3 * s(n) + s(n - 1) == aztec_half_rects(n)
        assert bhalf.total == s(n) + 3 * s(n - 1) == biscuit_half_rects(n)
    _verdict(3, "crossing-class identities exact for n=2..12")


def test_criterion_10_breakdown_identities_at_large_order():
    started = time.perf_counter()
    delta = Axis(0)
    half_delta = Axis(0, half=True)
    for n in (100, 2000):
        half = count_breakdown(build(aztec_half(n)), delta)
        assert half.by_class[CrossingClass.LEFT] == s(n - 1)
        assert half.by_class[CrossingClass.RIGHT] == s(n - 1)
        assert half.by_class[CrossingClass.CENTERED] == s(n) - s(n - 1)
        assert half.by_class[CrossingClass.NON_CROSSING] == 2 * s(n)
        assert half.total == 3 * s(n) + s(n - 1) == aztec_half_rects(n)

        diamond = count_breakdown(build(aztec(n)), delta)
        assert diamond.crossing == aztec_half_rects(n) + aztec_half_rects(n - 1)

        round_shape = count_breakdown(build(biscuit(n)), half_delta)
        assert round_shape.crossing == biscuit_half_rects(n) + biscuit_half_rects(n - 1)
        assert round_shape.by_class[CrossingClass.NON_CROSSING] == \
            2 * biscuit_half_rects(n - 1)

        bhalf = count_breakdown(build(biscuit_half(n)), half_delta)
        assert bhalf.crossing == s(n) + s(n - 1)
        assert bhalf.by_class[CrossingClass.NON_CROSSING] == 2 * s(n - 1)
        assert bhalf.total == s(n) + 3 * s(n - 1) == biscuit_half_rects(n)

        # criterion 4's domain sizes, checked exhaustively there for n <= 12:
        # type_l folds the LEFT class and type_c the CENTERED one (above), and
        # biscuit_expand maps the biscuit half's crossing rectangles onto the
        # aztec half's
        assert bhalf.crossing == half.crossing == s(n) + s(n - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 15.0
    _verdict(10, f"crossing-class identities and bijection domain sizes exact for "
                 f"n=100, 2000 in {elapsed:.2f}s")


def test_criterion_4_bijection_suite():
    started = time.perf_counter()
    expected_size = {
        "quadruple": lambda n: comb(n + 3, 4),
        "type_l": lambda n: s(n - 1),
        "type_c": lambda n: s(n) - s(n - 1),
        "biscuit_expand": lambda n: s(n) + s(n - 1),
    }
    for name in BIJECTION_NAMES:
        for n in range(1, 13):
            report = verify_bijection(name, n)
            assert report.verified, (name, n, report)
            assert report.domain_size == expected_size[name](n)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(4, f"4 maps exhaustively bijective for n<=12 in {elapsed:.1f}s")


def test_criterion_5_oeis_fixture_terms(fake_download):
    def no_network(url):
        raise AssertionError(f"network touched: {url}")

    fake_download(no_network)
    for sequence_id, seq in SEQUENCE_FOR_ID.items():
        report = check(sequence_id, seq, 20, source="fixture")
        assert report.ok and report.matches == 20, report
    _verdict(5, "A004320, A002417, A330805, A213840 match 20 terms offline against bundled "
                "b-files derived from the closed forms; the prefix-sum oracle pins those terms")


def test_criterion_6_geometry_partitions():
    for n in range(1, 51):
        whole = build(aztec(n))
        parts = split_staircases(aztec(n))
        assert sorted(spec.n for spec, _ in parts) == [n] * 4
        seen = set()
        for _, region in parts:
            cells = set(region.cells())
            assert not cells & seen
            seen |= cells
        assert seen == set(whole.cells())
    for n in range(2, 51):
        whole = build(biscuit(n))
        parts = split_staircases(biscuit(n))
        assert sorted(spec.n for spec, _ in parts) == sorted([n, n - 1, n - 1, n - 2])
        seen = set()
        for spec, region in parts:
            cells = set(region.cells())
            assert len(cells) == spec.n * (spec.n + 1) // 2
            assert not cells & seen
            seen |= cells
        assert seen == set(whole.cells())
    for n in range(1, 101):
        assert build(aztec(n)).cell_count == 2 * n * (n + 1)
        assert build(biscuit(n)).cell_count == 2 * n * n - 2 * n + 1
        assert build(staircase(n)).cell_count == n * (n + 1) // 2
    _verdict(6, "staircase partitions exact to n=50; cell formulas to n=100")


def test_criterion_7_fast_kernel_at_order_2000():
    started = time.perf_counter()
    region = build(aztec(2000))
    assert region.cell_count == 2 * 2000 * 2001  # ~8.0M cells
    value = count_fast(region)
    elapsed = time.perf_counter() - started
    assert value == aztec_rects(2000)
    assert elapsed < 10.0
    _verdict(7, f"count_fast(aztec:2000) = {value} in {elapsed:.2f}s")


def test_criterion_8_randomized_cross_validation():
    rng = random.Random(20260809)
    for _ in range(1000):
        region = random_row_convex(rng, box=12)
        assert count_fast(region) == count_naive(region)
    _verdict(8, "1000 seeded row-convex regions, fast = naive")


def test_criterion_9_cli_golden_and_exit_codes(capsys, tmp_path, monkeypatch):
    for spec, fixture in [("aztec:1", "render_aztec1.txt"),
                          ("biscuit:2", "render_biscuit2.txt"),
                          ("staircase:3:dl", "render_staircase3dl.txt")]:
        code = main(["render", spec])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / fixture).read_text()

    # one failure case per exit-code class
    assert main(["count", "staircase:0"]) == 2  # usage/parse

    lines = [f"{n} {evaluate(SequenceId.AZTEC_HALF, n)}" for n in range(1, 21)]
    lines[0] = "1 4"
    (tmp_path / "A004320.bfile").write_text("\n".join(lines) + "\n")
    assert main(["oeis", "--ids", "A004320", "--source", "cache",
                 "--cache-dir", str(tmp_path)]) == 3  # verification mismatch

    monkeypatch.setenv("LATTICERECT_OEIS_URL", "http://127.0.0.1:9")
    assert main(["oeis", "--ids", "A002417", "--source", "network",
                 "--cache-dir", str(tmp_path / "empty")]) == 4  # external failure
    capsys.readouterr()
    _verdict(9, "golden renders byte-identical; exit codes 2/3/4 honored")
