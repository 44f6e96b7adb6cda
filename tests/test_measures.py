"""Cylinder-measure oracles: Markov chains, tables, RPF data, certification."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermoshift.pressure
from thermoshift import (
    AdditiveSequence,
    ExplicitSequence,
    LocallyConstantPotential,
    MarkovMeasure,
    TableMeasure,
    TransitionSystem,
    ZeroCylinderMassError,
    atomfree_check,
    build_rpf,
    certify_weak_gibbs,
    entropy,
    integrate,
    oscillation_bound,
    pressure_spectral,
    shift_invariance_gap,
    validate_oracle,
)
from thermoshift.measures import _stationary

from conftest import (
    ATOMFREE_TABLE,
    brute_atomfree,
    brute_spectral_pressure,
    brute_words,
    count_calls,
    eigensolver_potentials,
    markov_rows,
    mixing_systems,
    potentials,
    small_values,
    wide_values,
    with_coboundary,
)

# edge masses of chains built from accepted Perron vectors agree to rounding
CHAIN_TOL = 1e-10


def bernoulli_03(ts):
    return MarkovMeasure.bernoulli(ts, (0.3, 0.7))


# ---------------------------------------------------------------------------
# Markov measures


def test_markov_constructor_rejects_bad_data(full2, golden):
    with pytest.raises(ValueError):
        MarkovMeasure(full2, ((0.5, 0.6), (0.5, 0.5)), (0.5, 0.5))  # row sum 1.1
    with pytest.raises(ValueError):
        MarkovMeasure(full2, ((-0.1, 1.1), (0.5, 0.5)), (0.5, 0.5))
    with pytest.raises(ValueError):
        # mass on the forbidden transition 2 -> 2
        MarkovMeasure(golden, ((0.5, 0.5), (0.5, 0.5)), (0.5, 0.5))
    with pytest.raises(ValueError):
        # stochastic but pi is not stationary
        MarkovMeasure(full2, ((0.9, 0.1), (0.1, 0.9)), (0.9, 0.1))


def test_markov_constructor_rejects_non_finite_entries(full2):
    # NaN compares False against every bound, so range checks alone pass it
    nan, inf = math.nan, math.inf
    with pytest.raises(ValueError, match="non-finite"):
        MarkovMeasure(full2, ((nan, nan), (0.5, 0.5)), (0.5, 0.5))
    with pytest.raises(ValueError, match="non-finite"):
        MarkovMeasure(full2, ((0.5, 0.5), (0.5, 0.5)), (nan, 0.5))
    with pytest.raises(ValueError, match="non-finite"):
        MarkovMeasure(full2, ((inf, 0.5), (0.5, 0.5)), (0.5, 0.5))


@given(ts=mixing_systems, data=st.data())
@settings(max_examples=40, deadline=None)
def test_from_stochastic_solves_a_genuinely_stationary_vector(ts, data):
    rows = data.draw(markov_rows(ts))
    mu = MarkovMeasure.from_stochastic(ts, rows)
    pi = np.asarray(mu.stationary)
    q = np.asarray(mu.rows)
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert float(np.max(np.abs(pi @ q - pi))) <= 1e-10
    # one-cylinder masses are the stationary weights themselves
    for i in range(1, ts.k + 1):
        assert mu.mass((i,)) == mu.stationary[i - 1]


def exact_stationary(q):
    """π with πG = 0 and Σπ = 1 in exact rational arithmetic, where G takes
    Q's off-diagonal floats exactly and G_ii = −Σ_{j≠i} Q_ij: the diagonal of
    Q − I, which GTH elimination never reads, as the rest of its row fixes it."""
    k = len(q)
    g = [[Fraction(q[i][j]) for j in range(k)] for i in range(k)]
    for i in range(k):
        g[i][i] = -sum(g[i][j] for j in range(k) if j != i)
    # the equations Σ_i π_i G_ij = 0 for j < k − 1, and Σ π = 1
    rows = [[g[i][j] for i in range(k)] + [Fraction(0)] for j in range(k - 1)]
    rows.append([Fraction(1)] * (k + 1))
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


# a birth-death chain on the full 3-shift whose π is about (1, 2e-100, 4e-200)
SPREAD_CHAIN = ((1.0, 1e-100, 0.0), (0.5, 0.5, 1e-100), (0.0, 0.5, 0.5))


@given(ts=mixing_systems, data=st.data())
@settings(max_examples=40, deadline=None)
def test_stationary_elimination_is_exact_to_rounding_in_every_entry(ts, data):
    stack = np.array(data.draw(st.lists(markov_rows(ts), min_size=1, max_size=4)))
    pi = _stationary(stack)
    for q, row in zip(stack, pi):
        # the batched stack gives each chain the bits of its own call
        assert np.array_equal(row.view(np.uint64), _stationary(q[None])[0].view(np.uint64))
        exact = exact_stationary(q.tolist())
        assert all(abs(Fraction(x) - e) <= Fraction(1e-13) * e for x, e in zip(row.tolist(), exact))


def test_stationary_elimination_keeps_entries_far_below_the_peak():
    pi = _stationary(np.array([SPREAD_CHAIN]))[0]
    exact = exact_stationary(SPREAD_CHAIN)
    assert float(exact[2]) < 1e-199
    assert all(abs(Fraction(x) - e) <= Fraction(1e-13) * e for x, e in zip(pi.tolist(), exact))
    mu = MarkovMeasure.from_stochastic(TransitionSystem.full_shift(3), SPREAD_CHAIN)
    assert mu.stationary == tuple(pi.tolist())


def test_stationary_elimination_refuses_a_reducible_chain(full2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy RuntimeWarning escapes either
        with pytest.raises(ValueError, match="Q is reducible"):
            MarkovMeasure.from_stochastic(full2, ((1.0, 0.0), (0.0, 1.0)))


@given(ts=mixing_systems, data=st.data())
@settings(max_examples=30, deadline=None)
def test_markov_oracle_invariants(ts, data):
    mu = MarkovMeasure.from_stochastic(ts, data.draw(markov_rows(ts)))
    assert mu.mass(()) == 1.0
    report = validate_oracle(mu, n_max=6)
    assert report.passed
    assert report.total_mass_ok
    assert report.additivity_gap <= 1e-12
    assert report.positivity_ok
    assert shift_invariance_gap(mu, 6) <= 1e-10


@given(ts=mixing_systems, data=st.data(), n=st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_cylinder_masses_nest_monotonically(ts, data, n):
    mu = MarkovMeasure.from_stochastic(ts, data.draw(markov_rows(ts)))
    for w in brute_words(ts.matrix, n):
        parent = mu.mass(w)
        for s in ts.successors(w[-1]):
            assert mu.mass(w + (s,)) <= parent + 1e-15


def test_bernoulli_requires_a_full_shift(golden, full2):
    with pytest.raises(ValueError):
        MarkovMeasure.bernoulli(golden, (0.5, 0.5))
    mu = bernoulli_03(full2)
    # product masses: independent coordinates
    assert mu.mass((1, 2, 1)) == pytest.approx(0.3 * 0.7 * 0.3, rel=1e-15)


def test_parry_measure_on_the_golden_mean(golden):
    parry = MarkovMeasure.maximal_entropy(golden)
    g = (1.0 + math.sqrt(5.0)) / 2.0
    # the closed form: Q = [[1/g, 1/g²], [1, 0]], π = (g², 1)/(1 + g²)
    assert np.allclose(parry.rows, [[1 / g, 1 / g**2], [1.0, 0.0]], rtol=0, atol=4e-16)
    assert np.allclose(parry.stationary, [g**2 / (1 + g**2), 1 / (1 + g**2)], rtol=0, atol=4e-16)
    assert parry.rows[1][1] == 0.0
    assert abs(entropy(parry) - math.log(g)) <= 2e-15
    assert validate_oracle(parry, 8).passed


@pytest.mark.parametrize("k", [2, 3, 5])
def test_parry_measure_on_a_full_shift_is_uniform(k):
    parry = MarkovMeasure.maximal_entropy(TransitionSystem.full_shift(k))
    assert np.allclose(parry.rows, np.full((k, k), 1 / k), rtol=0, atol=4e-16)
    assert np.allclose(parry.stationary, np.full(k, 1 / k), rtol=0, atol=4e-16)
    assert abs(entropy(parry) - math.log(k)) <= 2e-15


@pytest.mark.parametrize(
    "build, solves",
    [
        (pressure_spectral, 1),
        (lambda phi: atomfree_check(phi, 4), 1),
        (build_rpf, 1),
        (lambda phi: MarkovMeasure.maximal_entropy(phi.system), 1),
    ],
    ids=["pressure_spectral", "atomfree_check", "build_rpf", "maximal_entropy"],
)
def test_each_perron_call_builds_one_transfer(build, solves, golden, monkeypatch):
    phi = LocallyConstantPotential(golden, 2, {(1, 1): 0.5, (1, 2): -1.0, (2, 1): 2.0})
    calls = count_calls(
        monkeypatch, thermoshift.pressure.block_transfer, thermoshift.pressure.power_iteration
    )
    build(phi)
    assert calls == {"block_transfer": 1, "power_iteration": solves}


def test_transition_log_potential_reproduces_masses(golden):
    parry = MarkovMeasure.maximal_entropy(golden)
    rho = parry.transition_log_potential()
    assert rho.depth == 2
    # mass of a long cylinder = pi(w1) * exp(S_{n-1} rho)
    w = (1, 1, 2, 1, 1)
    expected = math.log(parry.stationary[0]) + sum(
        rho.table[w[i : i + 2]] for i in range(4)
    )
    assert math.log(parry.mass(w)) == pytest.approx(expected, rel=1e-14)


def test_transition_log_potential_refuses_an_allowed_transition_of_weight_zero(full2):
    mu = MarkovMeasure(full2, ((0.5, 0.5), (1.0, 0.0)), (2 / 3, 1 / 3))
    with pytest.raises(ZeroCylinderMassError, match=r"transition \(2, 2\) is allowed but carries zero weight"):
        mu.transition_log_potential()


# ---------------------------------------------------------------------------
# table oracles


def make_table(mu, depth):
    ts = mu.system
    masses = {}
    for n in range(1, depth + 1):
        for w in brute_words(ts.matrix, n):
            masses[w] = mu.mass(w)
    return TableMeasure(ts, depth, masses)


def test_table_measure_round_trips_markov_masses(golden):
    parry = MarkovMeasure.maximal_entropy(golden)
    table = make_table(parry, 5)
    assert validate_oracle(table, 5).passed
    assert table.mass((1, 1, 2)) == parry.mass((1, 1, 2))
    with pytest.raises(ValueError):
        table.mass((1, 1, 2, 1, 1, 2))  # beyond tabulated depth
    with pytest.raises(ValueError):
        table.mass((2, 2))  # inadmissible


def test_table_measure_shape_validation(full2):
    with pytest.raises(ValueError):
        TableMeasure(full2, 2, {(1,): 0.5, (2,): 0.5})  # missing length-2 rows
    with pytest.raises(ValueError):
        TableMeasure(full2, 0, {})


def test_table_measure_depth_is_bounded_by_the_table(full3):
    # a declared depth of 99 would mean about 3**99 words; the table's size
    # refuses it before any word is counted or enumerated
    masses = {(s,): 1 / 3 for s in (1, 2, 3)}
    with pytest.raises(ValueError, match="length 1..99, exactly"):
        TableMeasure(full3, 99, masses)
    masses.update({w: 1 / 9 for w in brute_words(full3.matrix, 2)})
    with pytest.raises(ValueError, match="length 1..3, exactly"):
        TableMeasure(full3, 3, masses)  # as many entries as depth, but too few words


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_measure_rejects_non_finite_masses(full2, bad):
    # a NaN mass would make every additivity gap NaN, and NaN never exceeds
    # the tolerance, so validate_oracle could not report it
    masses = {w: 0.25 for w in brute_words(full2.matrix, 2)}
    masses.update({(1,): 0.5, (2,): 0.5})
    masses[(2, 1)] = bad
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        TableMeasure(full2, 2, masses)


def test_validation_catches_a_corrupted_mass(full2):
    table = make_table(bernoulli_03(full2), 4)
    table.masses[(1, 2)] += 1e-6
    report = validate_oracle(table, 4)
    assert not report.passed
    assert report.additivity_witness is not None
    assert report.additivity_gap == pytest.approx(1e-6, rel=1e-6)


def test_validation_catches_unnormalized_and_zero_masses(full2):
    # a table's empty-word mass is definitionally 1, so a uniform rescale
    # surfaces as an additivity break at the empty word, not a mass defect
    scaled = make_table(bernoulli_03(full2), 3)
    for w in scaled.masses:
        scaled.masses[w] *= 0.5
    report = validate_oracle(scaled, 3)
    assert not report.passed
    assert report.total_mass_ok
    assert report.additivity_witness == ()
    assert report.additivity_gap == pytest.approx(0.5, rel=1e-12)

    zero = make_table(bernoulli_03(full2), 3)
    zero.masses[(2, 1, 1)] = 0.0
    report = validate_oracle(zero, 3)
    assert not report.positivity_ok
    assert report.zero_mass_witness == (2, 1, 1)


def test_validation_catches_a_broken_empty_mass(full2):
    from thermoshift.measures import CylinderMeasureOracle

    inner = bernoulli_03(full2)

    class Halved(CylinderMeasureOracle):
        """Every mass scaled by 1/2, empty word included."""

        @property
        def system(self):
            return inner.system

        def mass(self, word):
            return 0.5 * inner.mass(word)

    report = validate_oracle(Halved(), 3)
    assert not report.total_mass_ok
    assert not report.passed


# ---------------------------------------------------------------------------
# RPF construction and certification


@given(phi=potentials(max_depth=2))
@settings(max_examples=20, deadline=None)
def test_rpf_pressure_matches_the_spectral_route(phi):
    data = build_rpf(phi)
    assert data.pressure == pytest.approx(pressure_spectral(phi), abs=1e-12)
    assert validate_oracle(data, 5).passed


def test_rpf_on_a_block_graph_past_the_iteration_threshold(monkeypatch):
    # the full 10-shift at depth 3: order 100, its one Perron vector iterated
    ts = TransitionSystem.full_shift(10)
    words = brute_words(ts.matrix, 3)
    table = dict(zip(words, np.random.default_rng(0).uniform(-2.0, 2.0, len(words)).tolist()))
    phi = LocallyConstantPotential(ts, 3, table)

    def no_eig(_):
        raise AssertionError("dense eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    data = build_rpf(phi)
    assert math.log(data.lam) == pressure_spectral(phi)
    assert np.max(np.abs(np.sum(data.chain.rows, axis=1) - 1.0)) <= 1e-12
    monkeypatch.undo()
    assert data.pressure == pytest.approx(brute_spectral_pressure(ts.matrix, table, 3), rel=1e-13)


@given(phi=eigensolver_potentials(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_adding_a_coboundary_leaves_the_rpf_chain_unchanged(phi, data):
    # g on the block graph's states keeps the graph, and Q_uv = m_uv h_v/(λ h_u)
    # absorbs the factor e^(g(u) − g(v)) it puts on m_uv.  Compared: the
    # chain's masses π_u Q_uv of the graph's edges.  A row of Q is only as
    # exact as h_v/h_u, and an entry of h far below its peak carries the
    # peak's absolute error, so rows of states of negligible mass may differ.
    g = {w: data.draw(wide_values) for w in brute_words(phi.system.matrix, max(phi.depth - 1, 1))}
    ours, theirs = build_rpf(phi).chain, build_rpf(with_coboundary(phi, g)).chain
    edge_masses = [np.array(c.stationary)[:, None] * np.array(c.rows) for c in (ours, theirs)]
    assert np.max(np.abs(np.subtract(*edge_masses))) <= CHAIN_TOL


def test_adding_a_coboundary_to_a_wide_t3_table_leaves_the_rpf_chain_unchanged():
    # h spans many magnitudes here: the edge masses agree to CHAIN_TOL only
    # when π is solved from each chain's Q, not taken as ν∘h
    t3 = TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1)))
    table = {w: 0.0 for w in brute_words(t3.matrix, 3)}
    table.update({(2, 2, 2): 5.0, (2, 3, 3): 1.0, (3, 3, 2): -1.0, (3, 3, 3): 5.0})
    phi = LocallyConstantPotential(t3, 3, table)
    g = {w: 0.0 for w in brute_words(t3.matrix, 2)}
    g[2, 2] = 3.0
    ours, theirs = build_rpf(phi).chain, build_rpf(with_coboundary(phi, g)).chain
    edge_masses = [np.array(c.stationary)[:, None] * np.array(c.rows) for c in (ours, theirs)]
    assert np.max(np.abs(np.subtract(*edge_masses))) <= CHAIN_TOL


@pytest.mark.parametrize("v", [-680.0, -700.0])
def test_rpf_of_a_symbol_weight_below_e_to_the_minus_670(full2, v):
    # Bernoulli with p₂ = e^v/(1 + e^v): the transfer entry e^v is below
    # the e^-670 under which eig of mᵀ loses the left Perron vector
    chain = build_rpf(LocallyConstantPotential(full2, 1, {(1,): 0.0, (2,): v})).chain
    assert chain.stationary[1] == pytest.approx(math.exp(v) / (1.0 + math.exp(v)), rel=1e-12)


def test_rpf_is_deterministic(example_potential):
    a = build_rpf(example_potential)
    b = build_rpf(example_potential)
    assert a.lam == b.lam
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.nu, b.nu)
    assert a.mass((1, 2, 2)) == b.mass((1, 2, 2))


def test_rpf_certifies_as_gibbs(example_potential):
    data = build_rpf(example_potential)
    cert = certify_weak_gibbs(
        data, AdditiveSequence(example_potential), data.pressure, 12
    )
    assert cert.verdict == "gibbs"
    assert cert.gibbs_constant is not None
    # flat K* tail: every per-n constant is below the certified one
    assert all(k <= cert.gibbs_constant * (1 + 1e-12) for _, k in cert.kstar)
    assert cert.p_used == data.pressure


def test_wrong_pressure_is_rejected_with_a_rate_readout(example_potential):
    data = build_rpf(example_potential)
    shift = 0.05
    cert = certify_weak_gibbs(
        data, AdditiveSequence(example_potential), data.pressure + shift, 14
    )
    assert cert.verdict == "rejected"
    # K*(n) grows like exp(shift * n); the fitted slope should see that
    assert cert.implied_pressure_shift == pytest.approx(shift, rel=0.2)


def test_subexponential_growth_earns_the_middle_verdict(full2):
    mu = bernoulli_03(full2)
    logp = {1: math.log(0.3), 2: math.log(0.7)}
    # inflate the target by 3/4 log(n+1): K*(n) ~ (n+1)^{3/4}, subexponential
    seq = ExplicitSequence(
        full2,
        lambda n, w: sum(logp[s] for s in w) + 0.75 * math.log(n + 1),
        lambda n: n,
    )
    cert = certify_weak_gibbs(mu, seq, 0.0, 14, tau=0.25)
    assert cert.verdict == "consistent-weak-gibbs"
    assert cert.gibbs_constant is None


def test_certification_names_the_first_zero_mass_word_of_a_table(full2):
    # a table has no block chain: the witness comes from enumerating n = 2
    mu = bernoulli_03(full2)
    masses = {w: mu.mass(w) for n in range(1, 6) for w in brute_words(full2.matrix, n)}
    masses[(2, 2)] = 0.0
    table = TableMeasure(full2, 5, masses)
    target = AdditiveSequence(LocallyConstantPotential.constant(full2, 0.0))
    with pytest.raises(ZeroCylinderMassError, match=r"admissible word \(2, 2\) has zero mass"):
        certify_weak_gibbs(table, target, math.log(2.0), 5)


def test_certification_needs_a_window(full2):
    mu = bernoulli_03(full2)
    with pytest.raises(ValueError):
        certify_weak_gibbs(mu, AdditiveSequence(mu.transition_log_potential()), 0.0, 3)


# ---------------------------------------------------------------------------
# entropy and integrals


def test_entropy_closed_forms(full2):
    mu = bernoulli_03(full2)
    h = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert entropy(mu) == pytest.approx(h, rel=1e-15)
    uniform = MarkovMeasure.bernoulli(full2, (0.5, 0.5))
    assert entropy(uniform) == pytest.approx(math.log(2.0), rel=1e-15)


def test_integrate_depth_one_and_two(full2):
    mu = bernoulli_03(full2)
    phi = LocallyConstantPotential.from_symbol_values(full2, (2.0, -1.0))
    assert integrate(phi, mu) == pytest.approx(0.3 * 2.0 - 0.7 * 1.0, rel=1e-14)
    psi = LocallyConstantPotential(
        full2, 2, {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 0.0, (2, 2): -1.0}
    )
    expected = 0.3 * 0.3 * 1.0 + 0.7 * 0.7 * (-1.0)
    assert integrate(psi, mu) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# oscillation bound and atom-freeness


def test_oscillation_bound_examples(example_potential, full2):
    assert oscillation_bound(example_potential, 2) == pytest.approx(math.e**3, rel=1e-15)
    flat = LocallyConstantPotential.from_symbol_values(full2, (1.0, -2.0))
    for n in (1, 2, 5):
        assert oscillation_bound(flat, n) == 1.0


def test_atomfree_trivial_witnesses(full2):
    zero = LocallyConstantPotential.constant(full2, 0.0)
    assert atomfree_check(zero, 5) == 1
    logs = LocallyConstantPotential.from_symbol_values(
        full2, (math.log(0.3), math.log(0.7))
    )
    assert atomfree_check(logs, 5) == 1


def test_atomfree_witness_can_need_two_steps(atomfree_potential):
    # sup phi = 2 >= P, but the best 2-step average -0.25 is already below P
    assert atomfree_check(atomfree_potential, 6) == 2
    assert atomfree_check(atomfree_potential, 1) is None


def test_atomfree_can_fail_outright(full2):
    # the fixed point 111... carries the supremum at every n, and the gap
    # P - 0 is far below the 1e-12 margin the witness must clear
    spiked = LocallyConstantPotential(
        full2, 2, {(1, 1): 0.0, (1, 2): -50.0, (2, 1): -50.0, (2, 2): -50.0}
    )
    assert atomfree_check(spiked, 8) is None


@settings(max_examples=50, deadline=None)
@given(
    ts=st.sampled_from(
        (TransitionSystem.full_shift(2), TransitionSystem.full_shift(3), TransitionSystem.golden_mean())
    ),
    depth=st.integers(min_value=1, max_value=3),
    n_max=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_atomfree_witness_matches_brute_sup_over_words(ts, depth, n_max, data):
    table = {w: data.draw(small_values) for w in brute_words(ts.matrix, depth)}
    phi = LocallyConstantPotential(ts, depth, table)
    p = pressure_spectral(phi)
    assert atomfree_check(phi, n_max) == brute_atomfree(ts.matrix, table, depth, n_max, p)


@pytest.mark.parametrize(
    "table,n_max",
    [
        ({(1, 1): 0.0, (1, 2): -50.0, (2, 1): -50.0, (2, 2): -50.0}, 8),  # no witness
        (ATOMFREE_TABLE, 6),  # witness n = 2
    ],
)
def test_atomfree_matches_brute_sup_on_named_tables(full2, table, n_max):
    phi = LocallyConstantPotential(full2, 2, dict(table))
    p = pressure_spectral(phi)
    assert atomfree_check(phi, n_max) == brute_atomfree(full2.matrix, table, 2, n_max, p)
