"""Pressure routes: cylinder, periodic, spectral, and the extrapolated limit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermoshift.pressure
from thermoshift import (
    AdditiveSequence,
    EigensolverError,
    ExplicitSequence,
    InexactSequenceError,
    LocallyConstantPotential,
    NotMixingError,
    PotentialSequence,
    PressureEstimate,
    TransitionSystem,
    log_sum_exp,
    power_iteration,
    pressure_cylinder,
    pressure_limit,
    pressure_periodic,
    pressure_spectral,
)

from conftest import (
    brute_cylinder_pressure,
    brute_periodic_pressure,
    brute_periodic_values,
    brute_spectral_pressure,
    brute_words,
    count_calls,
    mixing_systems,
    potentials,
    small_values,
    table_birkhoff,
)

finite_floats = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)


@given(
    values=st.lists(finite_floats, min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_log_sum_exp_permutation_invariance_is_bitwise(values, seed):
    rng = np.random.default_rng(seed)
    shuffled = np.array(values)
    rng.shuffle(shuffled)
    assert log_sum_exp(np.array(values)) == log_sum_exp(shuffled)


@given(values=st.lists(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False), min_size=1, max_size=12))
def test_log_sum_exp_agrees_with_direct_summation(values):
    direct = math.log(math.fsum(math.exp(v) for v in values))
    assert log_sum_exp(np.array(values)) == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_log_sum_exp_edge_cases():
    assert log_sum_exp(np.array([])) == -math.inf
    assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf
    # values this large overflow exp(); the max-shift must absorb them
    assert log_sum_exp(np.array([1e4, 1e4])) == pytest.approx(1e4 + math.log(2.0), rel=1e-15)
    assert log_sum_exp(np.array([-math.inf, 0.0])) == 0.0


def test_power_iteration_on_the_all_ones_matrix():
    lam, v = power_iteration(np.ones((2, 2)))
    assert lam == 2.0
    assert np.allclose(v, [0.5, 0.5], atol=1e-14)
    assert v.sum() == pytest.approx(1.0, abs=1e-14)


def test_power_iteration_rejects_bad_input():
    with pytest.raises(ValueError):
        power_iteration(np.ones((2, 3)))
    with pytest.raises(ValueError):
        power_iteration(np.array([[1.0, -1.0], [1.0, 1.0]]))
    # period-2 weighted rotation: spectrum is ±sqrt(2), no convergence
    with pytest.raises(EigensolverError):
        power_iteration(np.array([[0.0, 2.0], [1.0, 0.0]]))


@given(phi=potentials(max_depth=3), n=st.integers(min_value=1, max_value=6))
def test_cylinder_route_matches_brute_enumeration(phi, n):
    assert pressure_cylinder(phi, n) == pytest.approx(
        brute_cylinder_pressure(phi.system.matrix, phi.table, phi.depth, n),
        rel=1e-12,
        abs=1e-12,
    )


@given(phi=potentials(max_depth=3), n=st.integers(min_value=1, max_value=6))
def test_periodic_route_matches_brute_enumeration(phi, n):
    assert pressure_periodic(phi, n) == pytest.approx(
        brute_periodic_pressure(phi.system.matrix, phi.table, phi.depth, n),
        rel=1e-12,
        abs=1e-12,
    )


@given(phi=potentials(max_depth=2))
# |λ₂/λ₁| = 0.99995: a power iteration stalls here
@example(
    phi=LocallyConstantPotential(
        TransitionSystem.full_shift(2),
        2,
        {(1, 1): -10.0, (1, 2): 0.3, (2, 1): 0.0, (2, 2): -11.0},
    )
)
# |λ₂/λ₁| = 0.9988 on a depth-2 table
@example(
    phi=LocallyConstantPotential(
        TransitionSystem(((0, 1, 1), (1, 1, 0), (1, 1, 1))),
        2,
        {(1, 2): 0.0, (1, 3): 0.0, (2, 1): -1.0, (2, 2): 4.0, (3, 1): 0.0, (3, 2): -2.0, (3, 3): 4.0},
    )
)
def test_spectral_route_matches_dense_eigenvalues(phi):
    assert pressure_spectral(phi) == pytest.approx(
        brute_spectral_pressure(phi.system.matrix, phi.table, phi.depth),
        rel=1e-10,
        abs=1e-10,
    )


@given(
    ts=mixing_systems,
    weights=st.lists(small_values, min_size=3, max_size=3),
    n=st.integers(min_value=1, max_value=6),
)
def test_periodic_route_reads_past_the_cyclic_word_like_a_periodic_point(ts, weights, n):
    # phi_n reads n + 2 symbols, each weighted by its position, so both the
    # wrap-around and its phase enter the value
    def rule(n, w):
        return float(sum((i + 1) * weights[s - 1] for i, s in enumerate(w)))

    seq = ExplicitSequence(ts, rule, lambda n: n + 2)
    values = brute_periodic_values(ts, rule, n + 2, n)
    assert pressure_periodic(seq, n) == log_sum_exp(np.array(values)) / n


@given(phi=potentials(), n=st.integers(min_value=1, max_value=6))
def test_periodic_route_on_additive_sequences_equals_the_point_oracle(phi, n):
    def rule(n, w):
        return table_birkhoff(phi.table, phi.depth, w, n)

    values = brute_periodic_values(phi.system, rule, n + phi.depth - 1, n)
    assert pressure_periodic(AdditiveSequence(phi), n) == log_sum_exp(np.array(values)) / n


class _Undeclared(PotentialSequence):
    """phi_n = 0 everywhere, with no declared dependence length."""

    def __init__(self, ts):
        self._ts = ts

    @property
    def system(self):
        return self._ts

    def values_on_words(self, n, words):
        return np.zeros(words.shape[0])


def test_periodic_route_needs_a_dependence_length(full2):
    seq = _Undeclared(full2)
    with pytest.raises(InexactSequenceError):
        pressure_periodic(seq, 3)


def test_periodic_route_needs_mixing():
    flip = TransitionSystem(((0, 1), (1, 0)))
    phi = LocallyConstantPotential.constant(flip, 0.0)
    with pytest.raises(NotMixingError):
        pressure_periodic(phi, 3)


def test_cylinder_route_dominates_periodic_at_every_n(example_potential):
    # periodic sums are a subsum of cylinder-sup sums for additive targets
    for n in range(1, 10):
        assert pressure_periodic(example_potential, n) <= pressure_cylinder(example_potential, n) + 1e-12


def test_zero_potential_gives_log_k_exactly_at_every_n():
    for k in (2, 3):
        zero = LocallyConstantPotential.constant(TransitionSystem.full_shift(k), 0.0)
        for method in ("cylinder", "periodic"):
            est = pressure_limit(method, zero, 1, 25)
            assert all(v == math.log(k) for _, v in est.finite_n_values)
            assert est.extrapolated == math.log(k)


@pytest.mark.parametrize("probs", [(0.1, 0.9), (0.2, 0.8), (0.2, 0.4, 0.4)])
def test_bernoulli_log_weights_give_exact_zero_at_every_finite_window(probs):
    # Σ exp(log p) is exactly 1.0 for these tables; the transfer factored as
    # diag(p)·adjacency sums each iterate before its one multiply, so every
    # log Z_n telescopes to exactly 0.0 (the dense product leaves ulp dust)
    phi = LocallyConstantPotential.from_symbol_values(
        TransitionSystem.full_shift(len(probs)), [math.log(p) for p in probs]
    )
    for method in ("cylinder", "periodic"):
        values = pressure_limit(method, phi, 1, 20).finite_n_values
        assert all(v == 0.0 for _, v in values if math.isfinite(v)), method


@pytest.mark.parametrize("ts", [TransitionSystem.full_shift(2), TransitionSystem.golden_mean()])
@pytest.mark.parametrize("c", [20.0, -20.0])
def test_rescaled_transfer_iterates_keep_the_constant_potential_exact(ts, c):
    # exp(±20·40) is past 2^(±512): the iterate is rescaled by powers of two
    # on the way to n = 40, and the log sums must not notice
    phi = LocallyConstantPotential.constant(ts, c)
    assert 40 * abs(c) > 512 * math.log(2)
    for method, count in (("cylinder", ts.count_words), ("periodic", ts.count_periodic)):
        est = pressure_limit(method, phi, 1, 40)
        for n, v in est.finite_n_values:
            exact = c + math.log(count(n)) / n
            assert abs(v - exact) <= 2 * math.ulp(exact), (method, n)
            if n <= 12:
                direct = (pressure_cylinder if method == "cylinder" else pressure_periodic)(phi, n)
                assert abs(v - direct) <= 2 * math.ulp(exact), (method, n)


@given(phi=potentials(max_depth=2), c=st.floats(min_value=-1e3, max_value=1e3))
@example(phi=LocallyConstantPotential.constant(TransitionSystem.full_shift(2), 0.0), c=800.0)
@example(phi=LocallyConstantPotential.constant(TransitionSystem.golden_mean(), 0.5), c=-800.0)
@settings(max_examples=40, deadline=None)
def test_adding_a_constant_shifts_every_pressure_by_it(phi, c):
    # P(φ + c) = P(φ) + c, past the range of exp too (max φ is shifted out)
    moved = phi.shifted(c)
    tol = 1e-14 * (1.0 + abs(c))
    assert abs(pressure_spectral(moved) - (pressure_spectral(phi) + c)) <= tol
    for method in ("cylinder", "periodic"):
        base = pressure_limit(method, phi, 1, 8).finite_n_values
        for (n, a), (m, b) in zip(base, pressure_limit(method, moved, 1, 8).finite_n_values):
            assert n == m
            assert a == b == -math.inf or abs(b - (a + c)) <= tol, (method, n)


def test_golden_mean_zero_potential_extrapolates_to_log_phi():
    golden_ratio = (1.0 + math.sqrt(5.0)) / 2.0
    zero = LocallyConstantPotential.constant(TransitionSystem.golden_mean(), 0.0)
    for method in ("cylinder", "periodic"):
        est = pressure_limit(method, zero, 1, 30)
        assert abs(est.extrapolated - math.log(golden_ratio)) < 1e-6


def test_estimate_structure_and_error_bar(example_potential):
    est = pressure_limit("periodic", example_potential, 2, 14)
    assert est.method == "periodic"
    assert [n for n, _ in est.finite_n_values] == list(range(2, 15))
    assert est.error_bar >= 0.0
    spectral = pressure_spectral(example_potential)
    assert abs(est.extrapolated - spectral) <= est.error_bar + 1e-6


def test_three_routes_agree_on_the_example(example_potential):
    spectral = pressure_spectral(example_potential)
    for method in ("cylinder", "periodic"):
        est = pressure_limit(method, example_potential, 1, 18)
        assert abs(est.extrapolated - spectral) <= est.error_bar + 1e-6


def test_spectral_estimate_is_exact_by_construction(example_potential):
    est = pressure_limit("spectral", example_potential)
    assert est.finite_n_values == ()
    assert est.error_bar == 0.0
    assert est.extrapolated == pressure_spectral(example_potential)


def test_pressure_estimate_rejects_malformed_data():
    with pytest.raises(ValueError):
        PressureEstimate("simplex", ((1, 0.0),), 0.0, 0.0)
    with pytest.raises(ValueError):
        PressureEstimate("spectral", ((1, 0.0),), 0.0, 0.0)
    with pytest.raises(ValueError):
        PressureEstimate("cylinder", (), 0.0, 0.0)
    with pytest.raises(ValueError):
        PressureEstimate("cylinder", ((1, 0.0),), 0.0, -1.0)


def test_pressure_limit_reads_an_additive_sequence_as_its_potential(example_potential):
    seq = AdditiveSequence(example_potential)
    for method in ("cylinder", "periodic", "spectral"):
        # repr tells every two doubles apart, so equal reprs are equal bits
        assert repr(pressure_limit(method, seq, 1, 12)) == repr(
            pressure_limit(method, example_potential, 1, 12)
        )


def test_pressure_limit_validates_window(example_potential):
    with pytest.raises(ValueError):
        pressure_limit("cylinder", example_potential, 0, 5)
    with pytest.raises(ValueError):
        pressure_limit("cylinder", example_potential, 6, 5)
    with pytest.raises(ValueError, match="no error bar"):
        pressure_limit("periodic", example_potential, 5, 5)
    with pytest.raises(ValueError):
        pressure_limit("simplex", example_potential, 1, 5)


def test_cylinder_route_is_additive_only(full2):
    seq = ExplicitSequence(full2, lambda n, w: 0.0, lambda n: 1)
    with pytest.raises(ValueError):
        pressure_limit("cylinder", seq, 1, 6)
    # the periodic route still works, through per-n enumeration
    est = pressure_limit("periodic", seq, 1, 8)
    assert all(v == math.log(2) for _, v in est.finite_n_values)


@pytest.mark.parametrize("kind", ["potential", "additive", "explicit"])
def test_pressure_limit_refuses_an_unknown_method_before_building_anything(
    kind, example_potential, monkeypatch
):
    target = {
        "potential": example_potential,
        "additive": AdditiveSequence(example_potential),
        "explicit": ExplicitSequence(example_potential.system, lambda n, w: 0.0, lambda n: n),
    }[kind]
    calls = count_calls(monkeypatch, thermoshift.pressure.block_transfer)
    with pytest.raises(ValueError, match=r"^unknown method 'Periodic'$"):
        pressure_limit("Periodic", target, 1, 5)
    assert calls == {}


# ---------------------------------------------------------------------------
# thermodynamic invariants of the finite-n routes (no eigensolver is called,
# so tables may range over [-8, 8])

INVARIANT_SYSTEMS = st.sampled_from(
    (
        TransitionSystem.full_shift(2),
        TransitionSystem.full_shift(3),
        TransitionSystem.golden_mean(),
        TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1))),
    )
)
wide_values = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def assert_same_finite_n_values(phi, psi, methods, n_max=10):
    for method in methods:
        ours = pressure_limit(method, phi, 1, n_max).finite_n_values
        theirs = pressure_limit(method, psi, 1, n_max).finite_n_values
        assert [n for n, _ in ours] == [n for n, _ in theirs]
        for (n, a), (_, b) in zip(ours, theirs):
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a)), (method, n, a, b)


@given(phi=potentials(values=wide_values, systems=INVARIANT_SYSTEMS), data=st.data())
@settings(deadline=None)
def test_adding_a_coboundary_leaves_the_periodic_values_unchanged(phi, data):
    # psi = phi + g − g∘σ sums to the same S_n on every periodic orbit
    ts = phi.system
    g_depth = data.draw(st.integers(min_value=1, max_value=2))
    g = {w: data.draw(wide_values) for w in brute_words(ts.matrix, g_depth)}
    depth = max(phi.depth, g_depth + 1)
    table = {
        w: phi.table[w[: phi.depth]] + g[w[:g_depth]] - g[w[1 : g_depth + 1]]
        for w in brute_words(ts.matrix, depth)
    }
    assert_same_finite_n_values(phi, LocallyConstantPotential(ts, depth, table), ["periodic"])


@given(phi=potentials(values=wide_values, systems=INVARIANT_SYSTEMS), data=st.data())
@settings(deadline=None)
def test_relabelling_the_alphabet_leaves_every_finite_n_value_unchanged(phi, data):
    k = phi.system.k
    label = data.draw(st.permutations(range(1, k + 1)))  # symbol s becomes label[s - 1]
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            matrix[label[i] - 1][label[j] - 1] = phi.system.matrix[i][j]
    ts = TransitionSystem(tuple(map(tuple, matrix)))
    table = {tuple(label[s - 1] for s in w): v for w, v in phi.table.items()}
    psi = LocallyConstantPotential(ts, phi.depth, table)
    assert_same_finite_n_values(phi, psi, ["periodic", "cylinder"])
