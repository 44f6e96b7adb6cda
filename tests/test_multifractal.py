"""Dimension spectra: Legendre closed forms against the variational search."""

import math

import numpy as np
import pytest

from thermoshift import (
    CandidateFamily,
    LocallyConstantPotential,
    MarkovMeasure,
    SpectrumCurve,
    TableMeasure,
    TransitionSystem,
    bernoulli_candidate_family,
    doubling_map,
    entropy,
    full_branch_linear,
    golden_mean_linear,
    integrate,
    legendre_alpha_range,
    legendre_f_at_alpha,
    markov_candidate_family,
    perturbed_doubling,
    spectrum_crosscheck,
    spectrum_legendre_bernoulli,
    spectrum_search,
    spectrum_variational,
    word_array,
)

from conftest import brute_log_diameter, brute_words

LOG2 = math.log(2.0)


def entropy_of(u):
    return -(u * math.log(u) + (1.0 - u) * math.log(1.0 - u))


# ---------------------------------------------------------------------------
# the Legendre oracle


def test_legendre_curve_shape_and_range():
    curve = spectrum_legendre_bernoulli(0.3, 2.0, grid_size=199)
    assert curve.method == "legendre"
    assert all(curve.feasible)
    assert all(0.0 <= f <= 1.0 for f in curve.f_alpha)
    lo, hi = legendre_alpha_range(0.3, 2.0)
    assert lo == -math.log(0.7) / LOG2
    assert hi == -math.log(0.3) / LOG2
    assert all(lo < a < hi for a in curve.alpha)


def test_legendre_apex_and_tangency():
    # u = 1/2 is the apex: full dimension at alpha = -log sqrt(pq)/log 2
    apex_alpha = -0.5 * (math.log(0.3) + math.log(0.7)) / LOG2
    assert legendre_f_at_alpha(0.3, 2.0, apex_alpha) == pytest.approx(1.0, abs=1e-12)
    # u = p is where f(alpha) = alpha: the measure sees its own dimension
    tangent_alpha = entropy_of(0.3) / LOG2
    f = legendre_f_at_alpha(0.3, 2.0, tangent_alpha)
    assert f == pytest.approx(tangent_alpha, abs=1e-12)


def test_legendre_degenerate_symmetric_case():
    # p = 1/2 on equal slopes: a single attainable level carrying dimension 1
    assert legendre_f_at_alpha(0.5, 2.0, 1.0) == 1.0
    assert legendre_f_at_alpha(0.5, 2.0, 1.2) is None
    lo, hi = legendre_alpha_range(0.5, 2.0)
    assert lo == hi == 1.0


def test_legendre_infeasible_levels_return_none():
    lo, hi = legendre_alpha_range(0.3, 2.0)
    assert legendre_f_at_alpha(0.3, 2.0, lo - 0.01) is None
    assert legendre_f_at_alpha(0.3, 2.0, hi + 0.01) is None


def test_legendre_concavity_in_alpha():
    curve = spectrum_legendre_bernoulli(0.3, (2.0, 3.0), grid_size=499)
    pairs = sorted(zip(curve.alpha, curve.f_alpha))
    slopes = [
        (f2 - f1) / (a2 - a1)
        for (a1, f1), (a2, f2) in zip(pairs, pairs[1:])
        if a2 - a1 > 1e-12
    ]
    # chord slopes of a concave curve are nonincreasing
    assert all(b <= a + 1e-9 for a, b in zip(slopes, slopes[1:]))


def test_spectrum_curve_validates_its_columns():
    with pytest.raises(ValueError):
        SpectrumCurve((0.5,), (1.0, 1.1), (0.9,), "legendre", (True,))
    with pytest.raises(ValueError):
        SpectrumCurve((0.5,), (1.0,), (1.5,), "legendre", (True,))
    # infeasible rows may carry placeholder values outside [0, 1]
    SpectrumCurve((0.5,), (1.0,), (math.nan,), "variational", (False,))


def test_slope_validation():
    with pytest.raises(ValueError):
        spectrum_legendre_bernoulli(0.3, 1.0)  # slope must exceed 1
    with pytest.raises(ValueError):
        spectrum_legendre_bernoulli(0.3, (2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        spectrum_legendre_bernoulli(1.3, 2.0)


# ---------------------------------------------------------------------------
# candidate families


def test_bernoulli_family_hits_grid_ratios_exactly(full2):
    family = bernoulli_candidate_family(full2, step=0.1)
    assert family.label == "bernoulli"
    assert len(family.measures) == 9
    assert (0.3, 0.7) in family.parameters
    i = family.parameters.index((0.3, 0.7))
    assert family.measures[i].stationary == (0.3, 0.7)


def test_markov_family_respects_the_coding(golden):
    family = markov_candidate_family(golden, step=0.25)
    assert family.label == "markov"
    # row 2 of the golden-mean shift has a single successor: pinned at 1
    assert len(family.measures) == 3
    for mu in family.measures:
        assert mu.rows[1][0] == 1.0
        assert mu.rows[1][1] == 0.0


def test_family_step_must_divide_one(full2):
    with pytest.raises(ValueError):
        bernoulli_candidate_family(full2, step=0.3)


# a non-full 3-state coding: 1 -> {1, 2}, 2 -> {2, 3}, 3 -> {1, 2, 3}
CODING3 = TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1)))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def loop_entropy(nu):
    """−Σ pi_i Q_ij log Q_ij as a scalar loop with math.log, zero entries skipped."""
    total = 0.0
    for i, row in enumerate(nu.rows):
        for qij in row:
            if qij > 0:
                total -= nu.stationary[i] * qij * math.log(qij)
    return total


def solved_stationary(q):
    """pi(Q − I) = 0 with Σ pi = 1, one chain, the last equation replaced."""
    a = np.asarray(q).T - np.eye(len(q))
    a[-1, :] = 1.0
    b = np.zeros(len(q))
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def seeded_potential(ts, depth, seed):
    rng = np.random.default_rng(seed)
    words = brute_words(ts.matrix, depth)
    return LocallyConstantPotential(
        ts, depth, dict(zip(words, (float(x) for x in rng.uniform(-2.0, 2.0, len(words)))))
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: bernoulli_candidate_family(TransitionSystem.full_shift(2), 1e-3),
        lambda: bernoulli_candidate_family(TransitionSystem.full_shift(3), 0.02),
        lambda: markov_candidate_family(TransitionSystem(((1, 1), (1, 0))), 1e-3),
        lambda: markov_candidate_family(CODING3, 0.1),
    ],
    ids=["bernoulli-full2", "bernoulli-full3", "markov-golden", "markov-coding3"],
)
def test_batched_columns_equal_the_per_candidate_integrals_bit_for_bit(make):
    family = make()
    ts = family.ts
    nus = family.measures
    if family.label == "markov":
        # the batched stationary solve gives each chain the bits of its own solve
        assert same_bits(family.pi, [solved_stationary(nu.rows) for nu in nus])
        assert nus == tuple(MarkovMeasure.from_stochastic(ts, nu.rows) for nu in nus)
    gamma = seeded_potential(ts, 1, 0)
    lyap = family.integrals(gamma)
    assert same_bits(lyap, [integrate(gamma, nu) for nu in nus])
    assert same_bits(family.entropies(), [loop_entropy(nu) for nu in nus])
    assert same_bits([entropy(nu) for nu in nus], [loop_entropy(nu) for nu in nus])
    reference = MarkovMeasure.from_stochastic(ts, nus[len(nus) // 3].rows)
    for g in (
        reference.transition_log_potential(),
        seeded_potential(ts, 2, 1),
        seeded_potential(ts, 3, 2),
    ):
        closed_form = -family.integrals(g) / lyap
        expected = [-integrate(g, nu) / d for nu, d in zip(nus, lyap)]
        assert same_bits(closed_form, expected)


def reference_search(emap, mus, levels, family, delta, depth=10):
    """The pre-batching search: per-level scoring through MarkovMeasure objects.

    One (feasible, argmax parameter, f, quadrature) per level; a feasible
    level's quadrature is the argmax's masses against each reference's
    quotient ψ_n/log D_n, with log D_n from ``log_diameters``.
    """
    gamma = emap.slope_potential()
    lyap = [integrate(gamma, nu) for nu in family.measures]
    objective = np.array([loop_entropy(nu) for nu in family.measures]) / np.array(lyap)
    words = word_array(emap.coding, depth)
    cons = np.empty((len(family.measures), len(mus)))
    for i, mu in enumerate(mus):
        if isinstance(mu, MarkovMeasure):
            g = mu.transition_log_potential()
            cons[:, i] = [-integrate(g, nu) / d for nu, d in zip(family.measures, lyap)]
        else:
            log_d = [brute_log_diameter(emap, tuple(int(s) for s in w)) for w in words]
            ratio = mu.log_mass_words(words) / np.array(log_d)
            for c, nu in enumerate(family.measures):
                cons[c, i] = float(np.exp(nu.log_mass_words(words)) @ ratio)
    log_d = emap.log_diameters(words)[:, -1]
    ratios = [mu.log_mass_words(words) / log_d for mu in mus]
    out = []
    for alpha in levels:
        feasible = [
            c
            for c in range(len(cons))
            if all(abs(cons[c, i] - alpha[i]) <= delta for i in range(len(mus)))
        ]
        if not feasible:
            out.append((False, None, None, None))
            continue
        best = feasible[0]
        for c in feasible:
            if objective[c] > objective[best]:
                best = c
        nu_w = np.exp(family.measure(best).log_mass_words(words))
        quadrature = tuple(float(nu_w @ ratio) for ratio in ratios)
        out.append((True, family.parameters[best], float(objective[best]), quadrature))
    return out


def table_of(mu, depth):
    masses = {w: mu.mass(w) for n in range(1, depth + 1) for w in brute_words(mu.system.matrix, n)}
    return TableMeasure(mu.system, depth, masses)


def test_search_matches_a_per_level_reference_loop():
    emap = doubling_map()
    bern = MarkovMeasure.bernoulli(emap.coding, (0.3, 0.7))
    golden = golden_mean_linear()
    golden_ref = MarkovMeasure.from_stochastic(golden.coding, [[0.4, 0.6], [1.0, 0.0]])
    cases = [
        # closed-form route; the last level is infeasible
        (
            emap,
            [bern],
            bernoulli_candidate_family(emap.coding, 1e-2),
            [(0.6,), (0.9,), (1.0,), (1.2,), (1.5,), (0.4,)],
            1e-2,
        ),
        # quadrature route (a table has no known potential) next to a closed form
        (
            emap,
            [bern, table_of(bern, 10)],
            bernoulli_candidate_family(emap.coding, 1e-2),
            [(0.9, 0.9), (1.1, 1.1), (1.3, 1.2), (0.5, 0.5)],
            2e-2,
        ),
        (
            golden,
            [golden_ref],
            markov_candidate_family(golden.coding, 1e-2),
            [(0.8,), (1.0,), (1.2,), (2.0,)],
            1e-2,
        ),
    ]
    for emap_, mus, fam, levels, delta in cases:
        points = spectrum_search(emap_, mus, levels, family=fam, delta=delta)
        assert "measures" not in vars(fam)  # the search reads only the arrays
        expected = reference_search(emap_, mus, levels, fam, delta)
        got = [(p.feasible, p.argmax_parameter, p.f) for p in points]
        assert got == [e[:3] for e in expected]
        for p, (*_, quadrature) in zip(points, expected):
            # each level's quadrature is its argmax MarkovMeasure's, bit for bit
            assert (p.quadrature is None) == (quadrature is None)
            if quadrature is not None:
                assert same_bits(p.quadrature, quadrature)
                for i, route in enumerate(p.constraint_routes):
                    if route == "quadrature":
                        assert p.quadrature[i] == p.constraints[i]
        assert any(p.feasible for p in points) and not all(p.feasible for p in points)
        for alpha, point in zip(levels, points):
            assert point == spectrum_variational(emap_, mus, alpha, family=fam, delta=delta)


def test_search_builds_no_markov_measure(monkeypatch):
    emap = doubling_map()
    bern = MarkovMeasure.bernoulli(emap.coding, (0.3, 0.7))
    table = table_of(bern, 10)
    golden = golden_mean_linear()
    golden_ref = MarkovMeasure.from_stochastic(golden.coding, [[0.4, 0.6], [1.0, 0.0]])
    cases = [
        (emap, [bern, table], bernoulli_candidate_family(emap.coding, 1e-2), [(0.9, 0.9)]),
        (golden, [golden_ref], markov_candidate_family(golden.coding, 1e-2), [(1.0,), (2.0,)]),
    ]
    built = []
    validate = MarkovMeasure.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(MarkovMeasure, "__post_init__", counted)
    for emap_, mus, family, levels in cases:
        points = spectrum_search(emap_, mus, levels, family=family, delta=2e-2)
        assert points[0].feasible
    assert built == []


def test_family_refuses_invalid_candidates(golden):
    family = markov_candidate_family(golden, 0.25)
    q, pi = family.q.copy(), family.pi.copy()
    CandidateFamily("markov", golden, family.parameters, q, pi)  # valid as given
    off = q.copy()
    off[1, 0] = (off[1, 0, 0] + 1e-9, off[1, 0, 1])
    with pytest.raises(ValueError, match="candidate 2: row 1 of Q sums to"):
        CandidateFamily("markov", golden, family.parameters, off, pi)
    leak = q.copy()
    leak[2, 1] = (0.5, 0.5)  # 2 -> 2 is forbidden on the golden mean
    with pytest.raises(ValueError, match=r"candidate 3: Q\[2,2\] > 0 on a forbidden"):
        CandidateFamily("markov", golden, family.parameters, leak, pi)
    moved = pi.copy()
    moved[0] = moved[0][::-1]
    with pytest.raises(ValueError, match="candidate 1: pi is not stationary"):
        CandidateFamily("markov", golden, family.parameters, q, moved)
    nan = pi.copy()
    nan[2, 0] = math.nan
    with pytest.raises(ValueError, match="candidate 3: pi has a non-finite entry"):
        CandidateFamily("markov", golden, family.parameters, q, nan)


# ---------------------------------------------------------------------------
# variational search


def test_variational_point_agrees_with_legendre_at_an_interior_level():
    emap = doubling_map()
    mu = MarkovMeasure.bernoulli(emap.coding, (0.3, 0.7))
    point = spectrum_variational(emap, [mu], 1.0, step=1e-2, delta=1e-2)
    assert point.feasible
    assert point.family_label == "bernoulli"
    assert point.f is not None
    assert point.f == pytest.approx(legendre_f_at_alpha(0.3, 2.0, 1.0), abs=2e-2)
    assert point.constraints is not None
    assert abs(point.constraints[0] - 1.0) <= point.delta
    # quadrature re-evaluation sits next to the closed-form route
    assert point.quadrature is not None
    assert not point.comparison_flagged


def test_variational_point_reports_infeasibility_with_a_window():
    emap = doubling_map()
    mu = MarkovMeasure.bernoulli(emap.coding, (0.3, 0.7))
    point = spectrum_variational(emap, [mu], 0.4, step=1e-2, delta=1e-3)
    assert not point.feasible
    assert point.f is None and point.argmax_parameter is None
    lo, hi = point.constraint_window[0]
    assert lo > 0.4 + point.delta  # the window explains the verdict


def test_variational_tie_break_is_deterministic():
    emap = doubling_map()
    mu = MarkovMeasure.bernoulli(emap.coding, (0.3, 0.7))
    a = spectrum_variational(emap, [mu], 1.1, step=1e-2, delta=1e-2)
    b = spectrum_variational(emap, [mu], 1.1, step=1e-2, delta=1e-2)
    assert a.argmax_parameter == b.argmax_parameter
    assert a.f == b.f


def test_variational_joint_levels_for_two_references():
    emap = doubling_map()
    mu1 = MarkovMeasure.bernoulli(emap.coding, (0.3, 0.7))
    mu2 = MarkovMeasure.bernoulli(emap.coding, (0.5, 0.5))
    # levels realized by Bernoulli(0.4): the pair is jointly feasible
    a1 = -(0.4 * math.log(0.3) + 0.6 * math.log(0.7)) / LOG2
    point = spectrum_variational(emap, [mu1, mu2], (a1, 1.0), step=1e-2, delta=1e-2)
    assert point.feasible
    assert point.f == pytest.approx(entropy_of(0.4) / LOG2, abs=2e-2)
    assert len(point.constraints) == 2
    # the second reference is uniform: its level is 1 for every candidate
    assert point.constraints[1] == pytest.approx(1.0, abs=1e-12)


def test_variational_needs_a_linear_map():
    mu = MarkovMeasure.bernoulli(TransitionSystem.full_shift(2), (0.3, 0.7))
    with pytest.raises(ValueError):
        spectrum_variational(perturbed_doubling(), [mu], 1.0)


def test_markov_fallback_family_on_the_golden_mean():
    emap = golden_mean_linear()
    parry = MarkovMeasure.maximal_entropy(emap.coding)
    point = spectrum_variational(emap, [parry], 1.0, step=0.05, delta=0.05)
    assert point.family_label == "markov"
    assert point.feasible
    # dimension of the whole golden-mean repeller is 1 (the map is onto)
    assert point.f == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# cross-check harness


def test_crosscheck_on_a_coarse_grid():
    report = spectrum_crosscheck(doubling_map(), 0.3, alpha_count=9, step=1e-2, delta=1e-2)
    assert len(report.alphas) == 9
    assert report.step == 1e-2
    assert all(report.feasible)
    # O(step) agreement between the grid search and the closed form
    assert report.max_deviation <= 5e-2
    for a, f in zip(report.alphas, report.f_legendre):
        assert f == pytest.approx(legendre_f_at_alpha(0.3, 2.0, a), abs=1e-12)


@pytest.mark.parametrize("count", [0, -3])
def test_crosscheck_refuses_fewer_than_one_level(count):
    # no level would leave max_deviation at 0.0, a vacuous pass
    with pytest.raises(ValueError, match=f"need at least one level, got {count}"):
        spectrum_crosscheck(doubling_map(), 0.3, alpha_count=count)


def test_crosscheck_rejects_unsuitable_maps():
    with pytest.raises(ValueError):
        spectrum_crosscheck(golden_mean_linear(), 0.3)
    with pytest.raises(ValueError):
        spectrum_crosscheck(full_branch_linear((2.0, 2.0, 2.0)), 0.3)
    with pytest.raises(ValueError):
        spectrum_crosscheck(perturbed_doubling(), 0.3)
