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
    build_rpf,
    log_sum_exp,
    power_iteration,
    pressure_cylinder,
    pressure_limit,
    pressure_periodic,
    pressure_spectral,
)

from conftest import (
    INVARIANT_SYSTEMS,
    brute_cylinder_pressure,
    brute_periodic_pressure,
    brute_periodic_values,
    brute_spectral_pressure,
    brute_words,
    count_calls,
    eigensolver_potentials,
    mixing_systems,
    potentials,
    relabelled,
    small_values,
    table_birkhoff,
    wide_values,
    with_coboundary,
)

finite_floats = st.floats(min_value=-700.0, max_value=700.0, allow_nan=False)
ITERATE_ORDER = thermoshift.pressure._ITERATE_ORDER


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


# Two tables whose roots the dense solve's own tests refused: on the full
# 2-shift |λ₂/λ₁| is within 1e-9 of 1 (the gap test), on T3 the residual of
# eig's vector is 1.4e-12·λ (the residual test).  A Collatz–Wielandt bracket
# from eig's vector certifies both.
T3 = TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1)))
REFUSED_BY_EIG = (
    (
        TransitionSystem.full_shift(2),
        {(1, 1): -25.0, (2, 2): -26.0, (1, 2): 0.3, (2, 1): 0.0},
        0.15000000000817548,
    ),
    (
        T3,
        {
            (1, 1): -5.958476518398609, (1, 2): 7.120435049326268, (2, 2): 0.18683464503592617,
            (2, 3): 2.3252393495314205, (3, 1): -7.767960913560003, (3, 2): -5.8042186858369185,
            (3, 3): 5.078497629345749,
        },
        5.078500138850421,
    ),
)


@pytest.mark.parametrize("ts, table, root", REFUSED_BY_EIG)
def test_a_bracket_certifies_the_roots_the_dense_tests_refused(ts, table, root):
    phi = LocallyConstantPotential(ts, 2, table)
    p = pressure_spectral(phi)
    assert p == pytest.approx(root, rel=1e-14)
    assert p == pytest.approx(brute_spectral_pressure(ts.matrix, table, 2), rel=1e-14)
    rpf = build_rpf(phi)
    assert math.log(rpf.lam) == p
    assert np.max(np.abs(np.sum(rpf.chain.rows, axis=1) - 1.0)) <= 1e-12
    # the periodic route within its bar, up to rounding (T3's bar is 0.0)
    periodic = pressure_limit("periodic", phi, 1, 20)
    assert abs(periodic.extrapolated - p) <= periodic.error_bar + 1e-12


def primitive_matrix(order, seed):
    """A random sparse nonnegative matrix that is primitive: a weighted cycle
    through every state plus a loop at state 0 and random extra edges."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 1.0, (order, order)) * (rng.uniform(size=(order, order)) < 0.3)
    m[np.arange(order), (np.arange(order) + 1) % order] = rng.uniform(0.1, 1.0, order)
    m[0, 0] = 1.0
    return m


@pytest.mark.parametrize("order", [ITERATE_ORDER, 48, 100])
@pytest.mark.parametrize("seed", range(3))
def test_power_iteration_iterates_on_large_primitive_matrices(order, seed, monkeypatch):
    m = primitive_matrix(order, seed)
    top = float(np.max(np.abs(np.linalg.eigvals(m))))

    def no_eig(_):
        raise AssertionError("dense eig called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    lam, v = power_iteration(m)
    assert lam == pytest.approx(top, rel=1e-13)
    assert np.all(v > 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-14)


def test_power_iteration_refuses_large_imprimitive_matrices():
    order = ITERATE_ORDER + 8
    rng = np.random.default_rng(0)
    cycle = np.zeros((order, order))
    cycle[np.arange(order), (np.arange(order) + 1) % order] = rng.uniform(0.5, 2.0, order)
    half = order // 2
    bipartite = np.zeros((order, order))
    bipartite[:half, half:] = rng.uniform(0.5, 2.0, (half, half))
    bipartite[half:, :half] = rng.uniform(0.5, 2.0, (half, half))
    for m in (cycle, bipartite):
        with pytest.raises(EigensolverError):
            power_iteration(m)


def test_power_iteration_below_the_order_threshold_is_one_dense_eig():
    m = np.random.default_rng(0).uniform(0.1, 1.0, (ITERATE_ORDER - 1, ITERATE_ORDER - 1))
    values, vectors = np.linalg.eig(m)
    v = np.abs(vectors[:, int(np.argmax(values.real))])
    w = m @ (v / v.sum())
    lam = float(w.sum())
    got_lam, got_v = power_iteration(m)
    assert got_lam == lam
    assert np.array_equal(got_v, w / lam)


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
# thermodynamic invariants of the finite-n routes and the eigensolver, on
# tables in [-8, 8]


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
    g_depth = data.draw(st.integers(min_value=1, max_value=2))
    g = {w: data.draw(wide_values) for w in brute_words(phi.system.matrix, g_depth)}
    assert_same_finite_n_values(phi, with_coboundary(phi, g), ["periodic"])


@given(phi=potentials(values=wide_values, systems=INVARIANT_SYSTEMS), data=st.data())
@settings(deadline=None)
def test_relabelling_the_alphabet_leaves_every_finite_n_value_unchanged(phi, data):
    label = data.draw(st.permutations(range(1, phi.system.k + 1)))
    assert_same_finite_n_values(phi, relabelled(phi, label), ["periodic", "cylinder"])


# The eigensolver on the same invariants.  A bracket certifies its root to
# 1e-13·λ, but the dense solve's gap and residual tests do not: on a table
# with two near-tied loops (T3, φ(11)=φ(33)=5) they accepted roots 1.1e-12
# apart in log λ.  1e-10 is test_spectral_route_matches_dense_eigenvalues'.
SPECTRAL_TOL = 1e-10


@given(phi=eigensolver_potentials(), data=st.data())
@settings(deadline=None)
def test_adding_a_coboundary_leaves_the_spectral_pressure_unchanged(phi, data):
    g_depth = data.draw(st.integers(min_value=1, max_value=max(phi.depth - 1, 1)))
    g = {w: data.draw(wide_values) for w in brute_words(phi.system.matrix, g_depth)}
    assert abs(pressure_spectral(with_coboundary(phi, g)) - pressure_spectral(phi)) <= SPECTRAL_TOL


@given(phi=eigensolver_potentials(), data=st.data())
@settings(deadline=None)
def test_relabelling_the_alphabet_leaves_the_spectral_pressure_unchanged(phi, data):
    label = data.draw(st.permutations(range(1, phi.system.k + 1)))
    assert abs(pressure_spectral(relabelled(phi, label)) - pressure_spectral(phi)) <= SPECTRAL_TOL
