"""Locally constant potentials, Birkhoff sums, and sequence diagnostics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoshift import (
    AdditiveSequence,
    ExplicitSequence,
    LocallyConstantPotential,
    almost_additivity_defect,
    asymptotic_defect,
    birkhoff_sum,
    eta,
    gamma,
    periodic_point,
    variation,
)

from conftest import (
    EXAMPLE_TABLE,
    brute_eta,
    brute_variation,
    brute_words,
    dyadic_potentials,
    potentials,
    representative_point,
    table_birkhoff,
)


def test_table_must_match_admissible_words(golden):
    with pytest.raises(ValueError):
        # (2, 2) is not admissible on the golden-mean shift
        LocallyConstantPotential(golden, 2, {w: 0.0 for w in [(1, 1), (1, 2), (2, 1), (2, 2)]})
    with pytest.raises(ValueError):
        LocallyConstantPotential(golden, 2, {(1, 1): 0.0, (1, 2): 0.0})  # missing (2, 1)
    with pytest.raises(ValueError):
        LocallyConstantPotential(golden, 1, {(1,): math.inf, (2,): 0.0})


def test_table_mismatch_is_found_without_enumerating_the_declared_depth(full3):
    # 3**99 words of depth 99: the count refuses the three-entry table at
    # once, and the message still names the first missing and extra words
    table = {(s,): 0.0 for s in (1, 2, 3)}
    with pytest.raises(ValueError, match=r"99-words \(missing \[\(1, 1, 1,") as exc:
        LocallyConstantPotential(full3, 99, table)
    assert "extra [(1,), (2,), (3,)]" in str(exc.value)


def test_table_mismatch_of_a_deep_table_is_a_value_error(full2):
    # the missing words are found by a word enumeration 1500 symbols deep,
    # which must not run into the interpreter's recursion limit
    with pytest.raises(ValueError, match="table does not match admissible 1500-words"):
        LocallyConstantPotential(full2, 1500, {(1,) * 1500: 0.0})


def test_constant_and_symbol_value_constructors(full2):
    c = LocallyConstantPotential.constant(full2, 1.5, depth=2)
    assert c.depth == 2
    assert set(c.table.values()) == {1.5}
    p = LocallyConstantPotential.from_symbol_values(full2, (0.25, -0.75))
    assert p.depth == 1
    assert p.value_word((2,)) == -0.75


def test_shifted_moves_every_table_entry(example_potential):
    shifted = example_potential.shifted(-0.5)
    assert shifted.table[(2, 2)] == 2.5
    assert shifted.table[(1, 1)] == -0.5


def test_birkhoff_sum_example(example_potential, full2):
    # S_3 phi along 1 2 2 1 1 ... = phi(12) + phi(22) + phi(21) = 1 + 3 + 0
    x = representative_point(full2, (1, 2, 2, 1, 1))
    assert birkhoff_sum(example_potential, x, 3) == 4.0


@given(
    phi=dyadic_potentials(),
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=8),
)
def test_birkhoff_cocycle_is_exact_on_dyadic_tables(phi, data, n, m):
    """S_{n+m} phi = S_n phi + S_m phi after the shift — as floats, not approx.

    Table values are multiples of 1/16 small enough that every partial sum
    is exact, so the cocycle identity must survive float evaluation bit for
    bit.
    """
    cycles = brute_words(phi.system.matrix, 3)
    cyc = data.draw(st.sampled_from([c for c in cycles if phi.system.allows(c[-1], c[0])]))
    x = periodic_point(phi.system, cyc)
    lhs = birkhoff_sum(phi, x, n + m)
    rhs = birkhoff_sum(phi, x, n) + birkhoff_sum(phi, x.shift(n), m)
    assert lhs == rhs


def test_variation_and_eta_worked_example(example_potential):
    # var_1 spans the table column-wise: phi(1*) in {0, 1}, phi(2*) in {0, 3}
    assert variation(example_potential, 1) == 3.0
    assert variation(example_potential, 2) == 0.0
    assert variation(example_potential, 5) == 0.0
    # S_n phi over n-cylinders still sees one free symbol: spread 3
    assert eta(example_potential, 1) == 3.0
    assert eta(example_potential, 2) == 3.0
    assert eta(example_potential, 3) == 3.0  # constant from depth - 1 on


@given(phi=potentials(), n=st.integers(min_value=1, max_value=8))
def test_variation_matches_brute_force_and_vanishes_at_depth(phi, n):
    v = variation(phi, n)
    assert v == brute_variation(phi.system.matrix, phi.table, phi.depth, n)
    if n >= phi.depth:
        assert v == 0.0


@given(phi=potentials(max_depth=3), n=st.integers(min_value=1, max_value=7))
def test_variation_is_nonincreasing_in_n(phi, n):
    assert variation(phi, n + 1) <= variation(phi, n)


@given(phi=potentials(max_depth=3), n=st.integers(min_value=1, max_value=6))
def test_eta_matches_brute_force(phi, n):
    assert eta(phi, n) == brute_eta(phi.system.matrix, phi.table, phi.depth, n)


@given(phi=dyadic_potentials())
def test_eta_vanishes_identically_for_depth_one(phi):
    if phi.depth == 1:
        for n in range(1, 6):
            assert eta(phi, n) == 0.0
    else:
        # beyond n = depth - 1 the overhang is the same single symbol; on
        # dyadic tables the Birkhoff prefix cancels exactly in the spread
        assert eta(phi, 4) == eta(phi, 2)


@given(phi=potentials(), n=st.integers(min_value=1, max_value=6))
def test_gamma_of_additive_sequence_is_eta(phi, n):
    assert gamma(AdditiveSequence(phi), n) == eta(phi, n)


@given(phi=dyadic_potentials(), n=st.integers(min_value=1, max_value=5), m=st.integers(min_value=1, max_value=5))
def test_additive_sequences_have_zero_split_defect(phi, n, m):
    defect, witness = almost_additivity_defect(AdditiveSequence(phi), n, m)
    assert defect == 0.0
    assert phi.system.is_admissible(witness)


@given(phi=potentials(), n=st.integers(min_value=1, max_value=5), m=st.integers(min_value=1, max_value=5))
def test_split_defect_of_general_tables_is_rounding_noise_at_most(phi, n, m):
    defect, _ = almost_additivity_defect(AdditiveSequence(phi), n, m)
    assert defect <= 1e-12


def test_explicit_sequence_with_known_defect(full2):
    # phi_n = n * c + log(n + 1): the log bump is the exact split defect
    c = -0.25
    seq = ExplicitSequence(
        full2,
        lambda n, w: n * c + math.log(n + 1),
        lambda n: 1,
    )
    defect, _ = almost_additivity_defect(seq, 2, 3)
    expected = abs(math.log(6) - math.log(3) - math.log(4))
    assert defect == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explicit_sequence_refuses_a_non_finite_rule_value(full2, bad):
    seq = ExplicitSequence(full2, lambda n, w: bad if w == (2, 1) else 0.0, lambda n: n)
    assert seq.value_word(2, (1, 2)) == 0.0
    with pytest.raises(ValueError, match=r"n = 2, word \(2, 1\) is not finite"):
        almost_additivity_defect(seq, 1, 1)


@given(phi=potentials(max_depth=2), n=st.integers(min_value=1, max_value=6))
def test_asymptotic_defect_against_own_potential_vanishes(phi, n):
    assert asymptotic_defect(AdditiveSequence(phi), phi, n) == 0.0


def test_asymptotic_defect_sees_a_constant_offset(full2):
    phi = LocallyConstantPotential.from_symbol_values(full2, (0.5, -1.0))
    rho = phi.shifted(0.125)
    # |S_n phi - S_n rho| = n/8 everywhere, so the normalized sup is 1/8
    for n in (1, 2, 5):
        assert asymptotic_defect(AdditiveSequence(phi), rho, n) == 0.125


@given(phi=potentials(), data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_value_word_and_birkhoff_sum_are_the_table_sums(phi, data, n):
    d = phi.depth
    word = data.draw(st.sampled_from(brute_words(phi.system.matrix, n + d - 1)))
    expected = table_birkhoff(phi.table, d, word, n)
    assert AdditiveSequence(phi).value_word(n, word) == expected
    x = representative_point(phi.system, word)
    assert birkhoff_sum(phi, x, n) == expected
    # the rule sees exactly dep(n) symbols however long the word handed in
    explicit = ExplicitSequence(
        phi.system,
        lambda n, w: table_birkhoff(phi.table, d, w, n) if len(w) == n + d - 1 else math.nan,
        lambda n: n + d - 1,
    )
    assert explicit.value_word(n, x.word(n + d + 1)) == expected


def test_sequence_value_word_requires_enough_symbols(full2, example_potential):
    seq = AdditiveSequence(example_potential)
    assert seq.dep(3) == 4  # n + depth - 1
    with pytest.raises(ValueError):
        seq.value_word(3, (1, 2, 1))  # one symbol short
    word = (1, 2, 2, 1)
    assert seq.value_word(3, word) == table_birkhoff(EXAMPLE_TABLE, 2, word, 3)
