import math
import random

import pytest

from latticerect import (OEIS_IDS, SequenceId, aztec, aztec_half,
                         aztec_half_rects, aztec_rects, binomial, biscuit,
                         biscuit_half, biscuit_half_rects, biscuit_rects,
                         build, count_naive, evaluate, staircase,
                         staircase_rects)
from latticerect import formulas

SEQUENCES = {
    SequenceId.STAIRCASE: [1, 5, 15, 35, 70, 126, 210, 330, 495, 715],
    SequenceId.AZTEC_HALF: [3, 16, 50, 120, 245, 448, 756, 1200, 1815, 2640],
    SequenceId.BISCUIT_HALF: [1, 8, 30, 80, 175, 336, 588, 960, 1485, 2200],
    SequenceId.AZTEC: [9, 51, 166, 410, 855, 1589, 2716, 4356, 6645, 9735],
    SequenceId.BISCUIT: [1, 11, 54, 170, 415, 861, 1596, 2724, 4365, 6655],
}


def test_binomial_examples():
    assert binomial(4, 4) == 1
    assert binomial(3, 4) == 0  # k > n convention
    assert binomial(6, 4) == 15


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(2, -1)


def test_binomial_pascal_recurrence():
    table = [[1]]
    for n in range(1, 61):
        prev = table[-1]
        row = [1] + [prev[k - 1] + (prev[k] if k < n else 0) for k in range(1, n + 1)]
        table.append(row)
    for n in range(61):
        for k in range(n + 1):
            assert binomial(n, k) == table[n][k]


def test_base_values():
    assert staircase_rects(0) == 0
    assert staircase_rects(1) == 1
    assert aztec_half_rects(1) == 3
    assert biscuit_half_rects(1) == 1
    assert aztec_rects(1) == 9
    assert biscuit_rects(1) == 1
    assert aztec_half_rects(0) == 0
    assert biscuit_half_rects(0) == 0


@pytest.mark.parametrize("seq", list(SequenceId))
def test_frozen_first_terms(seq):
    assert [evaluate(seq, n) for n in range(1, 11)] == SEQUENCES[seq]


def _sample_orders():
    rng = random.Random(99)
    return list(range(1, 2001)) + [rng.randint(2001, 10**6) for _ in range(200)] + [10**6]


def test_binomial_and_polynomial_forms_agree():
    # every call cross-checks its forms internally and raises on disagreement
    for n in _sample_orders():
        assert aztec_half_rects(n) == 3 * staircase_rects(n) + staircase_rects(n - 1)
        assert biscuit_half_rects(n) == staircase_rects(n) + 3 * staircase_rects(n - 1)
        assert aztec_rects(n) == n * (n + 1) * (4 * n * n + 12 * n + 11) // 6
        assert biscuit_rects(n) == n * (n + 1) * (4 * n * n - 4 * n + 3) // 6


def test_recurrences():
    for n in _sample_orders():
        assert aztec_rects(n) == 3 * aztec_half_rects(n) + aztec_half_rects(n - 1)
        assert biscuit_rects(n) == biscuit_half_rects(n) + 3 * biscuit_half_rects(n - 1)


def test_evaluate_dispatch():
    assert evaluate(SequenceId.STAIRCASE, 2) == 5
    assert evaluate(SequenceId.AZTEC, 1) == 9
    assert evaluate(SequenceId.BISCUIT_HALF, 1) == 1


def test_evaluate_domain_errors():
    with pytest.raises(ValueError):
        evaluate(SequenceId.AZTEC, 0)
    with pytest.raises(ValueError):
        evaluate(SequenceId.BISCUIT, -2)
    with pytest.raises(ValueError):
        evaluate(SequenceId.STAIRCASE, -1)


def test_formulas_match_brute_force():
    makers = {
        SequenceId.STAIRCASE: staircase,
        SequenceId.AZTEC_HALF: aztec_half,
        SequenceId.BISCUIT_HALF: biscuit_half,
        SequenceId.AZTEC: aztec,
        SequenceId.BISCUIT: biscuit,
    }
    for seq, make in makers.items():
        for n in range(1, 13):
            assert evaluate(seq, n) == count_naive(build(make(n)))


def test_oeis_id_mapping():
    assert OEIS_IDS[SequenceId.AZTEC_HALF] == "A004320"
    assert OEIS_IDS[SequenceId.BISCUIT_HALF] == "A002417"
    assert OEIS_IDS[SequenceId.AZTEC] == "A330805"
    assert OEIS_IDS[SequenceId.BISCUIT] == "A213840"
    assert SequenceId.STAIRCASE not in OEIS_IDS


def test_form_disagreement_raises(monkeypatch):
    monkeypatch.setattr(formulas, "binomial", lambda n, k: math.comb(n, k) + 1)
    with pytest.raises(RuntimeError, match=r"aztec_half_rects\(3\)"):
        aztec_half_rects(3)


@pytest.mark.parametrize("half", [aztec_half_rects, biscuit_half_rects])
def test_half_counts_refuse_a_negative_order(half):
    with pytest.raises(ValueError, match="order must be >= 0"):
        half(-1)
