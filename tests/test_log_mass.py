"""The log-mass sequence and its verification checklist.

The construction under test: given a measure μ with positive cylinder
masses, the sequence phi_n = log μ(C_{first n symbols}) is an exact Gibbs
sequence for μ with pressure 0 and constant 1 — and the checks here confirm
each piece of that statement at finite range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (
    AdditiveSequence,
    LocallyConstantPotential,
    LogMassSequence,
    MarkovMeasure,
    PotentialSequence,
    TableMeasure,
    TransitionSystem,
    ZeroCylinderMassError,
    almost_additivity_defect,
    asymptotic_defect,
    build_log_mass_sequence,
    build_rpf,
    certify_weak_gibbs,
    check_almost_additivity,
    check_asymptotic_additivity,
    check_gibbs_one,
    check_pressure_zero,
    check_sandwich,
    enumerate_words,
    pressure_limit,
    word_array,
)

from conftest import markov_rows, mixing_systems


@pytest.fixture
def bern(full2):
    return build_log_mass_sequence(MarkovMeasure.bernoulli(full2, (0.3, 0.7)))


@pytest.fixture
def parry_seq(golden):
    return build_log_mass_sequence(MarkovMeasure.maximal_entropy(golden))


@given(ts=mixing_systems, data=st.data(), n=st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_log_masses_are_finite_nonpositive_with_exact_dependence(ts, data, n):
    mu = MarkovMeasure.from_stochastic(ts, data.draw(markov_rows(ts)))
    seq = build_log_mass_sequence(mu)
    assert seq.dep(n) == n
    values = seq.values_on_words(n, word_array(ts, n))
    assert np.all(np.isfinite(values))
    assert np.all(values <= 0.0)
    # the vectorized path IS the oracle's log_mass_words, bit for bit; the
    # scalar mass() route multiplies before taking the log, so it may land
    # an ulp away
    assert np.array_equal(values, mu.log_mass_words(word_array(ts, n)))
    for w, v in zip(enumerate_words(ts, n), values):
        assert v == pytest.approx(math.log(mu.mass(w)), rel=1e-13)


def test_zero_mass_is_caught_at_construction(full2):
    masses = {(1,): 0.5, (2,): 0.5, (1, 1): 0.5, (1, 2): 0.0, (2, 1): 0.25, (2, 2): 0.25}
    with pytest.raises(ZeroCylinderMassError):
        build_log_mass_sequence(TableMeasure(full2, 2, masses))


def test_gibbs_one_is_exact_up_to_roundtrip(bern):
    report = check_gibbs_one(bern, 12)
    assert report.passed
    # ratio mu(C)/exp(log mu(C)): pure exp-log round-trip noise
    assert report.max_rel_error <= 1e-14


def test_pressure_zero_for_a_product_measure_is_literally_zero(bern):
    report = check_pressure_zero(bern, n_max=20)
    assert report.passed
    # cyclic sums of Bernoulli masses are exactly 1 at every n
    assert all(v == 0.0 for _, v in report.estimate.finite_n_values)
    assert report.estimate.extrapolated == 0.0


def test_pressure_zero_for_parry(parry_seq):
    report = check_pressure_zero(parry_seq, n_max=20)
    assert report.passed
    assert abs(report.estimate.extrapolated) <= report.estimate.error_bar + 1e-3


def test_periodic_sums_use_the_markov_fast_path(parry_seq, golden):
    # the duck-typed hook must agree with generic per-n enumeration
    hook = parry_seq.periodic_log_sums(1, 8)
    from thermoshift import pressure_periodic

    direct = [n * pressure_periodic(parry_seq, n) for n in range(1, 9)]
    assert hook == pytest.approx(direct, rel=1e-12, abs=1e-12)
    est = pressure_limit("periodic", parry_seq, 1, 12)
    assert [n for n, _ in est.finite_n_values] == list(range(1, 13))


def test_sandwich_is_exact_when_fed_its_own_certificate(bern, example_potential):
    data = build_rpf(example_potential)
    cases = [
        (bern, bern, 0.0),
        # a target other than the log-masses themselves: depth-2 RPF vs S_n φ
        (build_log_mass_sequence(data), AdditiveSequence(example_potential), data.pressure),
    ]
    for seq, target, p in cases:
        cert = certify_weak_gibbs(seq.oracle, target, p, 12)
        assert cert.verdict == "gibbs"
        report = check_sandwich(seq, target, p, cert, 12)
        assert report.passed
        # K(n) was defined as the sup of exactly these deviations
        assert report.worst_slack == 0.0
        assert report.slacks == tuple(0.0 for _ in report.n_values)
        assert report.first_violation is None


def test_sandwich_with_a_scalar_constant(parry_seq, golden):
    # Parry vs the zero potential at pressure log((1+sqrt 5)/2): the
    # deviation sup is flat, and its exponential is the classical sqrt 5
    zero = AdditiveSequence(LocallyConstantPotential.constant(golden, 0.0))
    p = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    cert = certify_weak_gibbs(parry_seq.oracle, zero, p, 10)
    assert cert.verdict == "gibbs"
    assert cert.gibbs_constant == pytest.approx(math.sqrt(5.0), rel=1e-10)
    report = check_sandwich(parry_seq, zero, p, cert.gibbs_constant, 10)
    assert report.passed
    # a strictly smaller constant must fail, and name its first violation
    broken = check_sandwich(parry_seq, zero, p, cert.gibbs_constant * 0.5, 10)
    assert not broken.passed
    assert broken.first_violation is not None
    n_bad, word = broken.first_violation
    assert len(word) == n_bad


def test_certified_constant_passes_its_own_sandwich(full2):
    # exp(max log K*) rounds one ulp low for this chain; the certified
    # constant must still satisfy the sandwich it certifies
    rows = (
        (0.47283734586139636, 0.5271626541386036),
        (0.45738130663194565, 0.5426186933680544),
    )
    chain = MarkovMeasure.from_stochastic(full2, rows)
    seq = build_log_mass_sequence(chain)
    target = AdditiveSequence(chain.transition_log_potential())
    cert = certify_weak_gibbs(chain, target, 0.0, 6)
    assert cert.verdict == "gibbs"
    assert math.log(cert.gibbs_constant) >= max(lk for _, lk in cert.log_kstar)
    assert check_sandwich(seq, target, 0.0, cert.gibbs_constant, 6).passed


def test_sandwich_rejects_constants_below_one(parry_seq):
    with pytest.raises(ValueError):
        check_sandwich(parry_seq, parry_seq, 0.0, 0.5, 8)


def test_almost_additivity_of_log_masses(bern, parry_seq):
    # Bernoulli: masses are products, so splits cancel up to float
    # reassociation and the log C = 0 budget is met through atol alone
    report = check_almost_additivity(bern, 1.0, 14)
    assert report.passed
    assert report.worst_defect <= 1e-12

    # Parry: constant sqrt 5, certified against the zero potential
    golden = parry_seq.system
    zero = AdditiveSequence(LocallyConstantPotential.constant(golden, 0.0))
    cert = certify_weak_gibbs(parry_seq.oracle, zero, math.log((1 + math.sqrt(5)) / 2), 10)
    report = check_almost_additivity(parry_seq, cert.gibbs_constant, 14)
    assert report.passed
    assert report.worst_defect <= 3.0 * math.log(cert.gibbs_constant) + 1e-12
    assert report.log_constant == pytest.approx(math.log(cert.gibbs_constant))
    # the Parry chain is not a product measure: some split must be inexact
    assert report.worst_defect > 0.0


def test_asymptotic_additivity_against_the_declared_family(parry_seq):
    cert = certify_weak_gibbs(parry_seq.oracle, parry_seq, 0.0, 12)
    report = check_asymptotic_additivity(parry_seq, parry_seq, 0.0, 3, 12, cert)
    assert report.passed
    assert report.family_index == 3
    assert len(report.defects) == len(report.n_values) == len(report.bounds)
    # defects within the 1/k + log K*(n)/n budget on the tail
    tail = [i for i, n in enumerate(report.n_values) if n >= report.tail_from]
    assert all(report.defects[i] <= report.bounds[i] + 1e-12 for i in tail)
    assert report.worst_tail_excess <= 0.0


def test_family_member_semantics(bern, parry_seq, full2):
    # Markov oracles approximate by the edge potential log Q at every index
    rho = parry_seq.family_member(1)
    assert rho is not None and rho.depth == 2
    assert rho.table == parry_seq.family_member(7).table

    # RPF oracles: the generating potential, recentred to pressure zero
    phi = LocallyConstantPotential.from_symbol_values(full2, (0.25, -0.5))
    data = build_rpf(phi)
    seq = build_log_mass_sequence(data)
    member = seq.family_member(2)
    assert member is not None
    assert member.table[(1,)] == pytest.approx(0.25 - data.pressure, rel=1e-14)

    # bare tables carry no structure to build a family from
    masses = {w: bern.oracle.mass(w) for n in (1, 2) for w in enumerate_words(full2, n)}
    table_seq = build_log_mass_sequence(TableMeasure(full2, 2, masses))
    assert table_seq.family_member(1) is None


def test_rpf_log_mass_pipeline_end_to_end(full2):
    phi = LocallyConstantPotential(
        full2, 2, {(1, 1): 0.4, (1, 2): -0.3, (2, 1): 0.1, (2, 2): -0.2}
    )
    data = build_rpf(phi)
    seq = build_log_mass_sequence(data)
    cert = certify_weak_gibbs(data, AdditiveSequence(phi), data.pressure, 12)
    assert cert.verdict == "gibbs"
    assert check_gibbs_one(seq, 10).passed
    zero = check_pressure_zero(seq, 16)
    assert zero.passed
    sandwich = check_sandwich(seq, AdditiveSequence(phi), data.pressure, cert, 12)
    assert sandwich.passed


# ---------------------------------------------------------------------------
# the block-chain closed forms against the enumerations they replace

# absolute: the closed forms add the same logs in another order
CLOSED_FORM_TOL = 1e-13

block_chain_systems = st.sampled_from(
    (TransitionSystem.full_shift(2), TransitionSystem.full_shift(3), TransitionSystem.golden_mean())
)


@st.composite
def block_chain_oracles(draw, max_depth=4):
    """A Markov chain (block width 1) or the RPF measure of a potential of
    depth 1–``max_depth`` (width max(depth − 1, 1): 1–3)."""
    ts = draw(block_chain_systems)
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    if depth == 0:
        return MarkovMeasure.from_stochastic(ts, draw(markov_rows(ts)))
    values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    return build_rpf(
        LocallyConstantPotential(ts, depth, {w: draw(values) for w in enumerate_words(ts, depth)})
    )


def enumerable_length(oracle):
    """A word length whose enumeration stays small on the oracle's system."""
    return 8 if oracle.system.k == 2 else 6


@given(oracle=block_chain_oracles(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_periodic_sums_of_a_block_chain_are_the_enumerated_sums(oracle, data):
    seq = LogMassSequence(oracle)
    n_max = enumerable_length(oracle)
    n_min = data.draw(st.integers(min_value=1, max_value=n_max))
    closed = seq.periodic_log_sums(n_min, n_max)
    enumerated = PotentialSequence.periodic_log_sums(seq, n_min, n_max)
    assert len(closed) == len(enumerated) == n_max - n_min + 1
    assert np.allclose(closed, enumerated, rtol=0.0, atol=CLOSED_FORM_TOL)


@given(oracle=block_chain_oracles(max_depth=2))
@settings(max_examples=15, deadline=None)
def test_periodic_sums_of_a_width_one_chain_keep_their_bits(oracle):
    # the matrix-power loop as it read when it served width 1 alone
    pi, q = oracle.block_chain()[1]._arrays
    k = oracle.system.k
    mask = oracle.system.as_array.T.astype(float)
    power, expected = np.eye(k), []
    for _ in range(20):
        expected.append(math.log(float(pi @ ((power * mask) @ np.ones(k)))))
        power = power @ q
    assert LogMassSequence(oracle).periodic_log_sums(1, 20) == expected


@given(oracle=block_chain_oracles(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_cut_window_split_defect_is_the_max_over_every_split(oracle, data):
    seq = LogMassSequence(oracle)
    total = data.draw(st.integers(min_value=2, max_value=enumerable_length(oracle)))
    report = check_almost_additivity(seq, math.e, total)
    splits = [(n, m) for n in range(1, total) for m in range(1, total - n + 1)]
    enumerated = max(almost_additivity_defect(seq, n, m)[0] for n, m in splits)
    assert abs(report.worst_defect - enumerated) <= CLOSED_FORM_TOL
    assert report.route == "cut-window"
    b = oracle.block_chain()[0].width
    a, c = report.worst_split
    assert a <= b and c <= b and len(report.worst_witness) == a + c
    assert almost_additivity_defect(seq, a, c) == (report.worst_defect, report.worst_witness)


@given(
    oracle=block_chain_oracles(),
    p=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_max_plus_asymptotic_defects_are_the_enumerated_defects(oracle, p):
    seq = LogMassSequence(oracle)
    # ρ + p at pressure p: the defects recentre it back onto ρ
    rho = oracle.reference_potential()
    target = AdditiveSequence(rho.shifted(p))
    n_max = 6 if oracle.system.k == 2 else 4
    cert = certify_weak_gibbs(oracle, target, p, n_max)
    report = check_asymptotic_additivity(seq, target, p, 3, n_max, cert)
    enumerated = [asymptotic_defect(seq, rho, n) for n in report.n_values]
    assert np.allclose(report.defects, enumerated, rtol=0.0, atol=CLOSED_FORM_TOL)
    assert report.route == "max-plus"
    # against the certificate's own target the defects are its log K*(n)/n
    assert report.defects == tuple(cert.log_k(n) / n for n in report.n_values)


def test_an_oracle_without_a_chain_takes_the_enumeration_routes(bern, full2):
    masses = {w: bern.oracle.mass(w) for n in range(1, 7) for w in enumerate_words(full2, n)}
    seq = build_log_mass_sequence(TableMeasure(full2, 6, masses))
    cert = certify_weak_gibbs(seq.oracle, bern, 0.0, 5)
    assert check_pressure_zero(seq, 5).route == "enumeration"
    assert check_asymptotic_additivity(seq, bern, 0.0, 3, 5, cert).route == "enumeration"
    report = check_almost_additivity(seq, 1.0, 6)
    assert report.route == "enumeration" and report.passed
