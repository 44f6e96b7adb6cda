"""Transition systems, word enumeration, and symbolic points."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoshift import (
    NotMixingError,
    SymbolicPoint,
    TransitionSystem,
    cyclic_mask,
    periodic_point,
    word_array,
)
from thermoshift.sft import _word_rows

from conftest import (
    brute_cyclic_words,
    brute_periodic_count,
    brute_words,
    mixing_systems,
    representative_point,
)


def test_full_shift_and_golden_mean_shapes():
    full3 = TransitionSystem.full_shift(3)
    assert full3.k == 3
    assert full3.matrix == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert full3.mixing_exponent() == 1

    golden = TransitionSystem.golden_mean()
    assert golden.matrix == ((1, 1), (1, 0))
    # 11 is allowed, 22 is not; positivity of the square makes it mixing
    assert golden.allows(2, 1) and not golden.allows(2, 2)
    assert golden.mixing_exponent() == 2
    assert golden.require_mixing() == 2


@pytest.mark.parametrize(
    "matrix",
    [
        ((1, 1), (1, 1, 1)),  # ragged
        ((1, 2), (1, 1)),  # entry outside {0, 1}
        ((0, 0), (1, 1)),  # empty row: symbol 1 has no successor
        ((1, 0), (1, 0)),  # empty column: nothing can precede symbol 2
    ],
)
def test_rejects_malformed_matrices(matrix):
    with pytest.raises(ValueError):
        TransitionSystem(matrix)


def test_not_mixing_is_detected():
    # period-2 permutation matrix: irreducible but never entrywise positive
    flip = TransitionSystem(((0, 1), (1, 0)))
    assert flip.mixing_exponent() is None
    with pytest.raises(NotMixingError):
        flip.require_mixing()


@given(ts=mixing_systems, n=st.integers(min_value=1, max_value=6))
def test_word_enumeration_matches_brute_force(ts, n):
    expected = brute_words(ts.matrix, n)
    assert ts.count_words(n) == len(expected)
    arr = word_array(ts, n)
    assert arr.shape == (len(expected), n)
    assert [tuple(int(s) for s in row) for row in arr] == expected


def test_zero_length_words_are_rejected():
    with pytest.raises(ValueError):
        word_array(TransitionSystem.full_shift(2), 0)


@given(ts=mixing_systems, n=st.integers(min_value=1, max_value=8), data=st.data())
def test_the_first_rows_of_a_cut_enumeration_are_the_first_words(ts, n, data):
    expected = brute_words(ts.matrix, n)
    r = data.draw(st.integers(min_value=1, max_value=len(expected) + 2), label="rows")
    rows = _word_rows(ts, n, r)
    assert list(map(tuple, rows.tolist())) == expected[:r]
    assert rows.dtype == word_array(ts, n).dtype
    assert not rows.flags.writeable


@pytest.mark.parametrize("k, dtype", [(127, np.int8), (128, np.int16), (130, np.int16)])
def test_symbols_past_127_letters_are_int16(k, dtype):
    words = word_array(TransitionSystem.full_shift(k), 2)
    assert words.dtype == dtype
    assert words[-1].tolist() == [k, k]
    assert words[k].tolist() == [2, 1]


@pytest.mark.parametrize(
    "ts, n_max",
    [
        (TransitionSystem.full_shift(2), 10),
        (TransitionSystem.full_shift(3), 10),
        (TransitionSystem.golden_mean(), 10),
        (TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1))), 10),
        (TransitionSystem.full_shift(130), 2),
    ],
)
def test_a_level_extended_from_the_shorter_one_is_the_full_loop(ts, n_max):
    def same(words, n):
        want = _word_rows(ts, n)
        assert words.dtype == want.dtype and np.array_equal(words, want)
        assert not words.flags.writeable

    word_array.cache_clear()
    for n in range(1, n_max + 1):  # each level extends the one just made
        same(word_array(ts, n), n)
    word_array.cache_clear()
    for n in range(n_max, 0, -1):  # the shorter level is gone: the loop from length 1
        same(word_array(ts, n), n)
    assert word_array(ts, n_max) is word_array(ts, n_max)


def test_a_long_level_needs_no_deep_recursion():
    word_array.cache_clear()
    words = word_array(TransitionSystem(((1,),)), 3000)
    assert words.shape == (1, 3000) and (words == 1).all()
    assert word_array(TransitionSystem(((1,),)), 3001).shape == (1, 3001)


@given(ts=mixing_systems, n=st.integers(min_value=1, max_value=8))
def test_periodic_point_count_matches_integer_trace(ts, n):
    assert ts.count_periodic(n) == brute_periodic_count(ts.matrix, n)


def test_golden_mean_counts_are_exact_beyond_int64():
    # trace(M^n) is the Lucas number L_n and the n-word count the Fibonacci
    # number F_{n+2}; at n = 300 both exceed 2^63
    lucas, fib = [2, 1], [0, 1]
    for _ in range(301):
        lucas.append(lucas[-1] + lucas[-2])
        fib.append(fib[-1] + fib[-2])
    golden = TransitionSystem.golden_mean()
    periodic, words = golden.count_periodic(300), golden.count_words(300)
    assert type(periodic) is int and periodic == lucas[300] > 2**63
    assert type(words) is int and words == fib[302]


@given(ts=mixing_systems, n=st.integers(min_value=1, max_value=6))
def test_cyclic_mask_selects_exactly_the_wraparound_words(ts, n):
    words = word_array(ts, n)
    mask = cyclic_mask(ts, words)
    got = [tuple(int(s) for s in row) for row in words[mask]]
    assert got == brute_cyclic_words(ts.matrix, n)


def test_symbolic_point_word_reads_the_prefix_then_the_cycle():
    full2 = TransitionSystem.full_shift(2)
    a = SymbolicPoint(full2, (1,), (2, 1))
    assert a.word(5) == (1, 2, 1, 2, 1)


def test_shift_composes_and_wraps():
    golden = TransitionSystem.golden_mean()
    x = SymbolicPoint(golden, (2,), (1, 1, 2))
    assert x.shift(1).shift(2) == x.shift(3)
    # past the preperiod the shift cycles with period 3
    assert x.shift(1) == x.shift(4)
    assert x.word(7) == (2, 1, 1, 2, 1, 1, 2)


def test_periodic_point_shift_identity():
    golden = TransitionSystem.golden_mean()
    x = periodic_point(golden, (1, 1, 2))
    assert x.shift(3) == x
    assert x.shift(1) != x


def test_inadmissible_cycles_are_rejected():
    golden = TransitionSystem.golden_mean()
    with pytest.raises(ValueError):
        periodic_point(golden, (2, 2))
    with pytest.raises(ValueError):
        # wraparound 2 -> 2 is forbidden even though 2 -> 1 inside is fine
        periodic_point(golden, (2, 1, 2))


@given(ts=mixing_systems, n=st.integers(min_value=1, max_value=5), data=st.data())
def test_representative_point_lies_in_its_cylinder(ts, n, data):
    words = brute_words(ts.matrix, n)
    w = data.draw(st.sampled_from(words))
    x = representative_point(ts, w)
    assert x.word(n) == w
    # nesting: the same point witnesses every prefix cylinder
    for i in range(1, n):
        assert x.word(i) == w[:i]
