"""The pair-partition engine against the memo recursion it replaced, written out here.

``heisenberg.pair_partition_sum`` walks the items once over states that count
the open items of each label.  The reference below memoizes on the remaining
subsequence instead, the engine the exact layer had before: exponential for
nearly distinct items, but simple enough to trust.  Exact values must agree
to the bit; float values to 1e-12 of the sum of the matchings' moduli, since
the two sum the same products in another order.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from ccrlab import heisenberg
from ccrlab.exactcomplex import ONE, ZERO
from ccrlab.heisenberg import CovarianceTable, Generator, normal_order, omega, pair_partition_sum, wick_value
from ccrlab.montecarlo import PAIR_MOMENT_LIMIT, kernel_value, krein_kernel, pair_moment

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
C_VALUES = (Fraction(0), Fraction(1), Fraction(-2, 5))
QUARTER_GRID = [k / 4 for k in range(-8, 9)]


def memo_pair_partition_sum(items, pair):
    """Sum over the perfect matchings, memoized on the remaining subsequence."""
    items = tuple(items)
    if len(items) % 2 == 1:
        return 0
    memo = {(): 1}

    def rec(sub: tuple):
        cached = memo.get(sub)
        if cached is not None:
            return cached
        first = sub[0]
        total = 0
        for pos in range(1, len(sub)):
            value = pair(first, sub[pos])
            if not value:
                continue
            total = total + value * rec(sub[1:pos] + sub[pos + 1 :])
        memo[sub] = total
        return total

    return rec(items)


def reference_wick_value(word, table):
    with mock.patch.object(heisenberg, "pair_partition_sum", memo_pair_partition_sum):
        return wick_value(word, table)


def assert_close_to_reference(taus, kernel):
    """Within 1e-12 of the sum of |products| over the matchings, which bounds the roundoff of either order."""
    scale = memo_pair_partition_sum(taus, lambda t, s: abs(kernel(t, s)))
    assert abs(pair_partition_sum(taus, kernel) - memo_pair_partition_sum(taus, kernel)) <= 1e-12 * scale


@pytest.mark.parametrize("c", C_VALUES, ids=str)
def test_words_match_the_memo_engine_exactly(c):
    table = CovarianceTable(c)

    def two_point(x, y):  # the table's ordered two-point value, by the one-pair sum
        return wick_value([x, y], table)

    @SETTINGS
    @hypothesis.given(st.lists(st.sampled_from(list(Generator)), max_size=14))
    def check(word):
        assert wick_value(word, table) == reference_wick_value(word, table)
        assert pair_partition_sum(word, two_point) == memo_pair_partition_sum(word, two_point)

    check()


@pytest.mark.parametrize(
    "kernel",
    [lambda t, s: kernel_value(t, s), lambda t, s: kernel_value(t, s, 1.0), lambda t, s: krein_kernel(t, s, 1.3)],
    ids=["c=0", "c=1", "krein"],
)
def test_float_taus_match_the_memo_engine(kernel):
    @SETTINGS
    @hypothesis.given(
        st.one_of(
            st.lists(st.sampled_from(QUARTER_GRID), max_size=12),
            st.lists(st.floats(-3, 3, allow_nan=False), max_size=12, unique=True),
        )
    )
    def check(taus):
        assert_close_to_reference(taus, kernel)

    check()


def test_odd_and_empty_inputs():
    table = CovarianceTable()
    for odd in ([Generator.Q], [Generator.Q, Generator.P, Generator.Q]):
        assert wick_value(odd, table) == ZERO
    assert wick_value([], table) == ONE
    assert pair_partition_sum((0.5, 1.0, 1.5), kernel_value) == 0
    assert pair_partition_sum((), kernel_value) == 1


def test_equal_items_share_one_label():
    seen = []

    def pair(t, s):
        seen.append((math.copysign(1.0, t), math.copysign(1.0, s)))
        return 1.0

    # 0.0 and -0.0 are one label: pair sees its first item, and the 3 matchings of 4 items each count
    assert pair_partition_sum((0.0, -0.0, -0.0, 0.0), pair) == 3.0
    assert set(seen) == {(1.0, 1.0)}


@pytest.mark.parametrize("c", [0, 1])
def test_a_forty_letter_word_returns_its_normal_ordered_value(monkeypatch, c):
    monkeypatch.setattr(heisenberg, "DEFAULT_WORD_LIMIT", 64)
    table = CovarianceTable(c)
    word = [Generator(int(g)) for g in np.random.default_rng(40 + c).integers(0, 4, 40)]
    assert wick_value(word, table) == omega(normal_order(word), table)


def test_pair_moment_at_its_limit_matches_the_memo_engine():
    taus = [float(t) for t in np.random.default_rng(20).uniform(-3, 3, PAIR_MOMENT_LIMIT)]
    assert len(set(taus)) == PAIR_MOMENT_LIMIT
    expected = memo_pair_partition_sum(taus, kernel_value)
    assert abs(pair_moment(taus, kernel_value) - expected) <= 1e-12 * abs(expected)
