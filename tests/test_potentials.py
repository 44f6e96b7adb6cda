"""Locally constant potentials, Birkhoff sums, and sequence diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoshift import (
    AdditiveSequence,
    ExplicitSequence,
    LocallyConstantPotential,
    TransitionSystem,
    almost_additivity_defect,
    birkhoff_sum,
    eta,
    gamma,
    periodic_point,
    variation,
)
from thermoshift import potentials as potentials_module
from thermoshift import sft

from conftest import (
    asymptotic_defect,
    brute_eta,
    brute_variation,
    brute_words,
    dyadic_potentials,
    mixing_systems,
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


@given(
    ts=mixing_systems,
    depth=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_table_mismatch_names_the_first_unlisted_words(ts, depth, data):
    words = brute_words(ts.matrix, depth)
    dropped = data.draw(
        st.sets(st.sampled_from(words), min_size=1, max_size=min(6, len(words))), label="dropped"
    )
    table = {w: 0.0 for w in words if w not in dropped}
    extra = data.draw(
        st.lists(
            st.lists(st.integers(1, ts.k), min_size=depth + 1, max_size=depth + 1).map(tuple),
            max_size=1,
        ),
        label="extra",
    )
    table.update({w: 0.0 for w in extra})
    missing = [w for w in words if w not in table][:3]
    with pytest.raises(ValueError) as exc:
        LocallyConstantPotential(ts, depth, table)
    assert str(exc.value) == (
        f"table does not match admissible {depth}-words (missing {missing}, extra {extra})"
    )


def test_constant_and_symbol_value_constructors(full2):
    c = LocallyConstantPotential.constant(full2, 1.5, depth=2)
    assert c.depth == 2
    assert set(c.table.values()) == {1.5}
    p = LocallyConstantPotential.from_symbol_values(full2, (0.25, -0.75))
    assert p.depth == 1
    assert p.table == {(1,): 0.25, (2,): -0.75}


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


def rounding_bound(phi, n):
    """2(d − 1) ulp of n·max|phi|: how far eta may sit from the enumeration
    where the two add the same terms in another order."""
    return 2 * (phi.depth - 1) * math.ulp(n * max(abs(v) for v in phi.table.values()))


@given(phi=potentials(min_depth=2, max_depth=3), data=st.data())
def test_eta_matches_brute_force(phi, data):
    # below the depth the free paths have at most two edges, and two terms
    # sum to the same bits in either order
    n = data.draw(st.integers(min_value=1, max_value=phi.depth - 1))
    assert eta(phi, n) == brute_eta(phi.system.matrix, phi.table, phi.depth, n)


@given(phi=potentials(max_depth=3), data=st.data())
def test_eta_from_the_depth_on_matches_brute_force_within_rounding(phi, data):
    # the enumeration adds the fixed prefix of the n-word before the free tail
    n = data.draw(st.integers(min_value=phi.depth, max_value=6))
    brute = brute_eta(phi.system.matrix, phi.table, phi.depth, n)
    assert abs(eta(phi, n) - brute) <= rounding_bound(phi, n)


@given(phi=potentials(min_depth=4, max_depth=4), n=st.integers(min_value=1, max_value=4))
def test_eta_at_depth_four_matches_brute_force_within_rounding(phi, n):
    # three free edges: summed from the right, not from the left as enumerated
    brute = brute_eta(phi.system.matrix, phi.table, phi.depth, n)
    assert abs(eta(phi, n) - brute) <= rounding_bound(phi, n)


@given(phi=potentials(max_depth=4), n=st.integers(min_value=1, max_value=6))
def test_eta_is_the_same_for_every_n_from_depth_minus_one_on(phi, n):
    # exact on any table: only the last depth - 1 windows leave the cylinder
    floor = max(phi.depth - 1, 1)
    assert eta(phi, floor + n) == eta(phi, floor)


def test_eta_of_a_full_ten_shift_table_reads_no_word_longer_than_its_depth(monkeypatch):
    # eta(phi, 40) by enumeration would visit 10^42 words
    ts = TransitionSystem.full_shift(10)
    rng = np.random.default_rng(3)
    phi = LocallyConstantPotential(
        ts, 3, {w: float(rng.uniform(-1, 1)) for w in brute_words(ts.matrix, 3)}
    )
    real = sft.word_array

    def guarded(system, n):
        assert n <= 3, f"eta asked for {n}-words"
        return real(system, n)

    monkeypatch.setattr(sft, "word_array", guarded)
    monkeypatch.setattr(potentials_module, "word_array", guarded)
    sft.block_graph.cache_clear()  # so that the block graph is built under the guard
    assert eta(phi, 40) == eta(phi, 2) > 0.0


@given(phi=dyadic_potentials())
def test_eta_vanishes_identically_for_depth_one(phi):
    if phi.depth == 1:
        for n in range(1, 6):
            assert eta(phi, n) == 0.0
    else:
        # beyond n = depth - 1 the overhang is the same single symbol; on
        # dyadic tables the Birkhoff prefix cancels exactly in the spread
        assert eta(phi, 4) == eta(phi, 2)


@given(phi=potentials(min_depth=2), data=st.data())
def test_gamma_of_additive_sequence_is_eta(phi, data):
    # gamma enumerates; below the depth the two agree bit for bit
    n = data.draw(st.integers(min_value=1, max_value=phi.depth - 1))
    assert gamma(AdditiveSequence(phi), n) == eta(phi, n)


@given(phi=potentials(), data=st.data())
def test_gamma_of_additive_sequence_is_eta_within_rounding_from_the_depth_on(phi, data):
    n = data.draw(st.integers(min_value=phi.depth, max_value=6))
    assert abs(gamma(AdditiveSequence(phi), n) - eta(phi, n)) <= rounding_bound(phi, n)


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
    assert np.array_equal(seq.values_on_words(2, np.array([[1, 2]])), [0.0])
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
def test_values_on_words_and_birkhoff_sum_are_the_table_sums(phi, data, n):
    d = phi.depth
    word = data.draw(st.sampled_from(brute_words(phi.system.matrix, n + d - 1)))
    expected = table_birkhoff(phi.table, d, word, n)
    seq = AdditiveSequence(phi)
    assert seq.dep(n) == n + d - 1
    assert seq.values_on_words(n, np.array([word]))[0] == expected
    x = representative_point(phi.system, word)
    assert birkhoff_sum(phi, x, n) == expected
    # the rule sees exactly dep(n) symbols however long the word handed in
    explicit = ExplicitSequence(
        phi.system,
        lambda n, w: table_birkhoff(phi.table, d, w, n) if len(w) == n + d - 1 else math.nan,
        lambda n: n + d - 1,
    )
    assert explicit.values_on_words(n, np.array([x.word(n + d + 1)]))[0] == expected
