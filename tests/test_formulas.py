import math
import random
from functools import partial

import numpy as np
import pytest

from latticerect import (OEIS_IDS, Family, SequenceId, aztec, aztec_half, biscuit,
                         biscuit_half, build, count_fast, count_naive, evaluate, staircase)
from latticerect import formulas

s = partial(evaluate, SequenceId.STAIRCASE)
ah = partial(evaluate, SequenceId.AZTEC_HALF)
bh = partial(evaluate, SequenceId.BISCUIT_HALF)
a = partial(evaluate, SequenceId.AZTEC)
b = partial(evaluate, SequenceId.BISCUIT)

SEQUENCES = {
    SequenceId.STAIRCASE: [1, 5, 15, 35, 70, 126, 210, 330, 495, 715],
    SequenceId.AZTEC_HALF: [3, 16, 50, 120, 245, 448, 756, 1200, 1815, 2640],
    SequenceId.BISCUIT_HALF: [1, 8, 30, 80, 175, 336, 588, 960, 1485, 2200],
    SequenceId.AZTEC: [9, 51, 166, 410, 855, 1589, 2716, 4356, 6645, 9735],
    SequenceId.BISCUIT: [1, 11, 54, 170, 415, 861, 1596, 2724, 4365, 6655],
}


def test_binomial_examples():
    assert math.comb(4, 4) == 1
    assert math.comb(3, 4) == 0  # k > n convention
    assert math.comb(6, 4) == 15


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        math.comb(-1, 2)
    with pytest.raises(ValueError):
        math.comb(2, -1)


def test_binomial_pascal_recurrence():
    table = [[1]]
    for n in range(1, 61):
        prev = table[-1]
        row = [1] + [prev[k - 1] + (prev[k] if k < n else 0) for k in range(1, n + 1)]
        table.append(row)
    for n in range(61):
        for k in range(n + 1):
            assert math.comb(n, k) == table[n][k]


def test_base_values():
    assert s(0) == 0
    assert s(1) == 1
    assert ah(1) == 3
    assert bh(1) == 1
    assert a(1) == 9
    assert b(1) == 1
    assert ah(0) == 0
    assert bh(0) == 0


@pytest.mark.parametrize("seq", list(SequenceId))
def test_frozen_first_terms(seq):
    assert [evaluate(seq, n) for n in range(1, 11)] == SEQUENCES[seq]


def _sample_orders():
    rng = random.Random(99)
    return list(range(1, 2001)) + [rng.randint(2001, 10**6) for _ in range(200)] + [10**6]


def test_binomial_and_polynomial_forms_agree():
    # every call cross-checks its split and factored forms and raises on disagreement
    for n in _sample_orders():
        assert ah(n) == 3 * s(n) + s(n - 1)
        assert bh(n) == s(n) + 3 * s(n - 1)
        assert a(n) == n * (n + 1) * (4 * n * n + 12 * n + 11) // 6
        assert b(n) == n * (n + 1) * (4 * n * n - 4 * n + 3) // 6


def test_recurrences():
    for n in _sample_orders():
        assert a(n) == 3 * ah(n) + ah(n - 1)
        assert b(n) == bh(n) + 3 * bh(n - 1)


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
    with pytest.raises(RuntimeError, match=r"AZTEC_HALF\(3\)"):
        ah(3)


@pytest.mark.parametrize("half", [SequenceId.AZTEC_HALF, SequenceId.BISCUIT_HALF])
def test_half_counts_refuse_a_negative_order(half):
    with pytest.raises(ValueError, match="order must be >= 0"):
        evaluate(half, -1)


@pytest.mark.parametrize("seq", list(SequenceId))
def test_evaluate_takes_its_order_through_integer(seq):
    # a numpy order is exact past int64 (aztec at 10^5 overflowed its factored form);
    # a bool or a non-integral order is no order, even where it compares equal to one
    assert evaluate(seq, np.int64(10**5)) == evaluate(seq, 10**5)
    assert type(evaluate(seq, np.int64(10**5))) is int
    for n in (True, False, 2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="order must be >= [01] and an integer, got "):
            evaluate(seq, n)


#: family -> its canonical shape at order n, and its coefficients in the basis
#: C(n+3, 4), C(n+2, 4), ..., C(n-1, 4), typed here rather than read from formulas
ORACLE_FORMS = {
    Family.AZTEC: (aztec, (9, 6, 1)),
    Family.BISCUIT: (biscuit, (1, 6, 9)),
    Family.STAIRCASE: (staircase, (1,)),
    Family.AZTEC_HALF: (aztec_half, (3, 1)),
    Family.BISCUIT_HALF: (biscuit_half, (1, 3)),
}


def _in_basis(coefficients, n: int) -> int:
    return sum(k * math.comb(n + 3 - j, 4) for j, k in enumerate(coefficients))


@pytest.mark.parametrize("family", list(Family))
def test_closed_forms_are_fixed_by_the_oracle(family):
    # C(n+3-j, 4) is 0 for n < j+1 and 1 at n = j+1, so the oracle at n = 1..5 fixes the j-th
    # coefficient in turn. The derivation starts at n = 1, where every family starts;
    # staircase order 0 is left out on purpose and checked after: C(3, 4) = 0 is its count.
    shape, expected = ORACLE_FORMS[family]
    coefficients = []
    for n in range(1, 6):
        coefficients.append(count_naive(build(shape(n))) - _in_basis(coefficients, n))
    assert coefficients == [*expected, 0, 0, 0, 0, 0][:5]
    seq = SequenceId[family.name]
    assert all(_in_basis(coefficients, n) == evaluate(seq, n) for n in range(1, 301))
    if family is Family.STAIRCASE:  # its one nonzero term, C(n+3, 4), is defined at n = 0
        assert _in_basis(expected, 0) == s(0) == 0
    # a polynomial of degree <= 4 from n = 1 on, so the five oracle values fix it
    values = [count_fast(build(shape(n))) for n in range(1, 81)]
    for _ in range(5):
        values = [b - a for a, b in zip(values, values[1:])]
    assert values == [0] * 75


def test_split_weights_convolve_into_the_oracle_forms():
    # each row splits X into w Y(n) + (4 - w) Y(n-1): shifting Y's coefficients in the
    # C(n+3-j, 4) basis by one place, so X's are Y's convolved with (w, 4 - w)
    def coefficients(code):
        y, w = formulas._SPLITS[code][:2]
        if y is None:
            return [1]  # C(n+3, 4) itself
        inner = coefficients(y)
        return [w * hi + (4 - w) * lo for hi, lo in zip(inner + [0], [0] + inner)]

    for family, (_, expected) in ORACLE_FORMS.items():
        assert tuple(coefficients(SequenceId[family.name].value)) == expected


@pytest.mark.parametrize("n", [0, 1, 5])
def test_breakdown_refuses_the_staircase(n):
    with pytest.raises(ValueError, match="^STAIRCASE has no vertical axis"):
        formulas.breakdown(SequenceId.STAIRCASE, n)


def test_breakdown_refuses_an_order_below_the_lowest():
    for seq, n in [(SequenceId.AZTEC, 0), (SequenceId.BISCUIT, 0), (SequenceId.AZTEC_HALF, -1),
                   (SequenceId.BISCUIT_HALF, True), (SequenceId.AZTEC, 2.0)]:
        with pytest.raises(ValueError, match="order must be >= "):
            formulas.breakdown(seq, n)
