"""Expanding interval maps: branches, cylinders, and the comparison defect."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (
    ExpandingMarkovMap,
    InverseBranchError,
    MarkovMeasure,
    TransitionSystem,
    check_ujr,
    doubling_map,
    full_branch_linear,
    golden_mean_linear,
    periodic_point,
    perturbed_doubling,
    pointwise_dimension_estimates,
    word_array,
)
from thermoshift.interval_maps import _prefix_windows

from conftest import (
    brute_branch_inverse,
    brute_linear_ujr,
    brute_log_diameter,
    brute_sampled_ujr,
    brute_words,
)


def test_doubling_map_shape():
    m = doubling_map()
    assert m.kind == "piecewise_linear"
    assert m.slopes == (2.0, 2.0)
    assert m.domains == ((0.0, 0.5), (0.5, 1.0))
    assert m.coding.matrix == ((1, 1), (1, 1))
    assert m.apply(0.3) == 0.6
    assert m.apply(0.75) == 0.5


def test_full_branch_builder_validation():
    with pytest.raises(ValueError):
        full_branch_linear((2.0,))  # one branch is not a Markov partition
    with pytest.raises(ValueError):
        full_branch_linear((1.5, 1.5))  # inverse slopes sum past 1
    # cookie-cutter: slack between domains, every branch still onto [0, 1]
    m = full_branch_linear((3.0, 3.0))
    assert m.domains[0][1] == pytest.approx(1.0 / 3.0)
    assert m.domains[1][0] == pytest.approx(2.0 / 3.0)
    assert m.images == ((0.0, 1.0), (0.0, 1.0))


def test_golden_mean_linear_is_coded_by_the_golden_shift():
    m = golden_mean_linear()
    assert m.coding.matrix == ((1, 1), (1, 0))
    a = (math.sqrt(5.0) - 1.0) / 2.0
    # branch 2 maps [a, 1] onto [0, a] = the domain of branch 1 only
    assert m.branch_apply(2, a) == pytest.approx(0.0, abs=1e-15)
    assert m.branch_apply(2, 1.0) == pytest.approx(a, abs=1e-15)
    # both slopes are the golden ratio
    assert m.slopes[0] == pytest.approx(1.0 / a, rel=1e-12)
    assert m.slopes[1] == pytest.approx(1.0 / a, rel=1e-12)


def test_perturbed_doubling_is_general_kind():
    m = perturbed_doubling()
    assert m.kind == "general"
    assert m.apply(0.5) == 1.0
    assert m.apply(0.75) == 0.5
    with pytest.raises(ValueError):
        perturbed_doubling(2.5)  # would stop expanding


def test_geometry_validation_rejects_covering_a_forbidden_domain():
    golden = TransitionSystem.golden_mean()
    # branch 2 spans all of [0, 1], but row 2 only allows domain 1
    from thermoshift import ExpandingMarkovMap

    with pytest.raises(ValueError):
        ExpandingMarkovMap(golden, ((0.0, 0.5), (0.5, 1.0)))


@pytest.mark.parametrize("emap", [doubling_map(), golden_mean_linear(), perturbed_doubling()])
def test_branch_inverse_round_trips(emap):
    for symbol in range(1, emap.coding.k + 1):
        lo, hi = emap.images[symbol - 1]
        for t in (0.07, 0.31, 0.68, 0.93):
            y = lo + t * (hi - lo)
            x = emap.branch_inverse(symbol, y)
            l, r = emap.domains[symbol - 1]
            assert l <= x <= r
            assert emap.branch_apply(symbol, x) == pytest.approx(y, abs=1e-13)


@given(
    c=st.floats(min_value=0.01, max_value=1.99),
    ys=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
)
@settings(max_examples=50, deadline=None)
def test_batched_inverse_is_the_scalar_solve_elementwise(c, ys):
    m = perturbed_doubling(c)
    symbols = np.array([1 + i % 2 for i in range(len(ys))])
    batch = m.inverse(symbols, np.array(ys))
    for s, y, x in zip(symbols, ys, batch):
        assert x == brute_branch_inverse(m, int(s), y)
        assert m.branch_inverse(int(s), y) == x


def exact_perturbed_inverse(c, symbol, y):
    """The root of branch ``symbol`` of perturbed_doubling(c) at y, from the
    closed form in 40 digits, rounded once to a float: branch 1 is the
    quadratic 2x + c·x(1/2 − x), whose root in [0, 1/2] is
    2y / (B + sqrt(B² − 4cy)) with B = 2 + c/2; branch 2 is (y + 1)/2.
    Evaluated in floats the quadratic form is itself a few ulp off near
    c = 2, y = 1, where B² − 4cy cancels."""
    with localcontext() as ctx:
        ctx.prec = 40
        c, y = Decimal(c), Decimal(y)
        if symbol == 2:
            return float((y + 1) / 2)
        b = 2 + c / 2
        return float(2 * y / (b + (b * b - 4 * c * y).sqrt()))


def assert_within_3_ulp(emap, c, ys):
    ys = list(ys) + [0.0, 1.0]
    for symbol in (1, 2):
        xs = emap.inverse(np.full(len(ys), symbol), np.array(ys))
        for y, x in zip(ys, xs):
            exact = exact_perturbed_inverse(c, symbol, y)
            assert abs(x - exact) <= 3 * math.ulp(exact), (symbol, y)


@given(
    c=st.floats(min_value=0.01, max_value=1.99),
    ys=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_inverse_is_within_3_ulp_of_the_closed_form_root(c, ys):
    assert_within_3_ulp(perturbed_doubling(c), c, ys)


@pytest.mark.parametrize("wrong", [1.0, 20.0])
@given(
    c=st.floats(min_value=0.01, max_value=1.99),
    ys=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_inverse_stays_accurate_with_a_wrong_derivative(wrong, c, ys):
    # |T'| on branch 1 lies in (1, 3); a constant 1 or 20 still passes the
    # constructor's expansion check, but sends Newton long or short, so the
    # solve must converge through its bracket, not on step size
    m = perturbed_doubling(c)
    bad = ExpandingMarkovMap(
        m.coding, m.domains, m.branch_fns, (lambda x: wrong, m.branch_dfns[1])
    )
    assert_within_3_ulp(bad, c, ys)


def test_a_stalled_inverse_raises_instead_of_returning():
    # a derivative 1e30 too large makes every step the 1-ulp minimum: the
    # solve crawls and must give up rather than return an unconverged point
    m = perturbed_doubling(0.8)
    crawl = ExpandingMarkovMap(
        m.coding, m.domains, m.branch_fns, (lambda x: 1e30, m.branch_dfns[1])
    )
    with pytest.raises(InverseBranchError, match="stalled inverting branch 1"):
        crawl.inverse(np.array([2, 1]), np.array([0.5, 0.5]))


def test_branch_callables_must_take_arrays():
    scalar_only = (lambda x: math.fsum((2.0 * x, -1.0)) + 1.0, lambda x: 2.0 * x - 1.0)
    with pytest.raises(ValueError, match="elementwise on arrays"):
        ExpandingMarkovMap(
            TransitionSystem.full_shift(2),
            ((0.0, 0.5), (0.5, 1.0)),
            scalar_only,
            (lambda x: 2.0, lambda x: 2.0),
        )
    branchy = (lambda x: 2.0 * x, lambda x: 2.0 * x - 1.0)
    with pytest.raises(ValueError, match="elementwise on arrays"):
        ExpandingMarkovMap(
            TransitionSystem.full_shift(2),
            ((0.0, 0.5), (0.5, 1.0)),
            branchy,
            (lambda x: 2.0 if x < 0.5 else 2.0, lambda x: 2.0),
        )


def test_a_nan_derivative_is_refused():
    # NaN compares false with everything, so a "< 1" expansion test let it by
    m = perturbed_doubling(0.8)
    with pytest.raises(ValueError, match="branch 1 does not expand"):
        ExpandingMarkovMap(
            m.coding, m.domains, m.branch_fns, (lambda x: x * math.nan, m.branch_dfns[1])
        )


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
def test_non_finite_branch_values_at_the_domain_ends_are_refused(end):
    m = perturbed_doubling(0.8)
    fns = (m.branch_fns[0], lambda x: np.where(x < 1.0, 2.0 * x - 1.0, end))
    with pytest.raises(ValueError, match="branch 2 image"):
        ExpandingMarkovMap(m.coding, m.domains, fns, m.branch_dfns)


def test_branch_inverse_rejects_points_outside_the_image():
    m = golden_mean_linear()
    a = (math.sqrt(5.0) - 1.0) / 2.0
    with pytest.raises(InverseBranchError):
        m.branch_inverse(2, a + 0.05)  # branch 2 image stops at a


def test_cylinder_intervals_nest_and_follow_the_product_law():
    m = doubling_map()
    for word in brute_words(m.coding.matrix, 6):
        c = m.cylinder_interval(word)
        parent = m.cylinder_interval(word[:-1]) if len(word) > 1 else None
        if parent is not None:
            assert parent.left - 1e-15 <= c.left and c.right <= parent.right + 1e-15
        # width 1/2 shrinking by 1/2 per symbol, exactly in floats
        assert c.diameter == 0.5 ** len(word)
        log_d = m.log_diameters(np.array([word]))[0, -1]
        assert log_d == brute_log_diameter(m, word)
        assert log_d == pytest.approx(len(word) * math.log(0.5), rel=1e-15)


def test_vectorised_log_diameters_match_the_cylinder_product_loop():
    # entry [i, n − 1] is log D_n of row i's n-prefix, for every prefix
    for m in (golden_mean_linear(), full_branch_linear((3.0, 2.5, 7.0))):
        for n in range(1, 7):
            words = word_array(m.coding, n)
            logs = m.log_diameters(words)
            assert logs.shape == words.shape
            for row, values in zip(words, logs):
                word = tuple(int(s) for s in row)
                for p, value in enumerate(values, 1):
                    assert value == brute_log_diameter(m, word[:p])
                assert values[-1] == pytest.approx(
                    math.log(m.cylinder_interval(word).diameter), rel=1e-14, abs=1e-14
                )
    m = perturbed_doubling(0.8)
    words = word_array(m.coding, 6)
    logs = m.log_diameters(words)
    for row, values in zip(words, logs):
        word = tuple(int(s) for s in row)
        for p, value in enumerate(values, 1):
            c = m.cylinder_interval(word[:p])
            assert value == math.log(c.right - c.left)


def test_deep_cylinder_interval_is_the_sweep_window():
    # cylinder_interval reads the whole word's window off the batched sweep,
    # which pulls back every prefix at once: same bits at depth 30
    m = perturbed_doubling(0.8)
    word = tuple(1 + (i * i + i // 3) % 2 for i in range(30))
    c = m.cylinder_interval(word)
    _, ends = _prefix_windows(m, np.array([word]))
    assert (c.left, c.right) == tuple(ends[0, 0])
    assert c.diameter == c.right - c.left
    assert 0.0 < c.diameter < 1e-8


@pytest.mark.parametrize("n", [1, 2, 12])
def test_cylinder_interval_pulls_back_the_whole_word_only(monkeypatch, n):
    # one inverse row per pull-back step, not one per prefix still in flight
    m = perturbed_doubling(0.8)
    rows, inverse = [], type(m).inverse

    def counting(self, symbols, y):
        rows.append(len(symbols))
        return inverse(self, symbols, y)

    monkeypatch.setattr(type(m), "inverse", counting)
    m.cylinder_interval(tuple(1 + i % 2 for i in range(n)))
    assert sum(rows) == n - 1


def test_cylinder_interval_input_validation():
    m = golden_mean_linear()
    with pytest.raises(ValueError):
        m.cylinder_interval(())
    with pytest.raises(ValueError):
        m.cylinder_interval((2, 2))


def test_slope_potential_reads_the_log_derivatives():
    m = full_branch_linear((2.0, 4.0))
    gamma = m.slope_potential()
    assert gamma.table[(1,)] == math.log(2.0)
    assert gamma.table[(2,)] == math.log(4.0)
    with pytest.raises(ValueError):
        perturbed_doubling().slope_potential()


# ---------------------------------------------------------------------------
# the comparison defect M(n)


@pytest.mark.parametrize(
    "emap",
    [
        doubling_map(),
        full_branch_linear((2.0, 3.0)),
        full_branch_linear((2.0, 4.0)),
        full_branch_linear((2.0, 3.0, 6.0)),
        full_branch_linear((4.0, 4.0, 4.0, 4.0)),
    ],
)
def test_full_image_linear_maps_have_exactly_zero_defect(emap):
    report = check_ujr(emap, 10)
    assert report.kind == "piecewise_linear"
    assert report.certified
    assert report.sampling_spread is None
    assert report.m_values == tuple(0.0 for _ in report.n_values)
    assert report.passed
    # the kⁿ enumeration agrees to the bit
    assert brute_linear_ujr(emap, 6) == report.m_values[:6]


@st.composite
def linear_maps(draw):
    """Linear Markov maps with gaps, slopes in (1, 4] and every image hull
    at least 0.6 wide: on these the enumeration's prefix-sum rounding stays
    below 2u·log 4 + 1.5u·log(1/0.6) < 4e-16 (u = 2⁻⁵³, worst at n = 2)."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    shape = draw(st.sampled_from(("full2", "full3", "golden", "mirrored")))
    if shape.startswith("full"):
        k = int(shape[-1])
        span = 0.6 + 0.4 * draw(unit)
        widths = [span / (k + (4.0 - k) * draw(unit)) for _ in range(k)]
        gaps = [draw(unit) + 1e-3 for _ in range(k - 1)]
        # equal widths can round their sum past the span: clamp the slack
        slack = max(span - sum(widths), 0.0)
        gaps = [slack * g / sum(gaps) for g in gaps] + [0.0]
        left = (1.0 - span) * draw(unit)
        domains = []
        for w, g in zip(widths, gaps):
            domains.append((left, left + w))
            left = domains[-1][1] + g  # the next domain starts at this one's rounded end
        matrix = TransitionSystem.full_shift(k).matrix
    else:
        # one branch maps onto the other domain only, which is >= 0.6 wide
        wide = 0.6 + 0.15 * draw(unit)
        narrow = wide / 4.0 + (min(wide / 1.05, 1.0 - wide) - wide / 4.0) * draw(unit)
        gap = (1.0 - wide - narrow) * draw(unit)
        left = (1.0 - wide - narrow - gap) * draw(unit)
        domains = [(left, left + wide), (left + wide + gap, left + wide + gap + narrow)]
        matrix = ((1, 1), (1, 0))
        if shape == "mirrored":
            domains = [(1.0 - b, 1.0 - a) for a, b in reversed(domains)]
            matrix = ((0, 1), (1, 1))
    # rounded sums can end 1 ulp past the unit interval: clamp them back
    domains = [(max(a, 0.0), min(b, 1.0)) for a, b in domains]
    emap = ExpandingMarkovMap(TransitionSystem(matrix), domains)
    assert 1.0 < min(emap.slopes) and max(emap.slopes) <= 4.0 + 1e-12
    assert min(b - a for a, b in emap.images) >= 0.6 - 1e-12
    return emap


@given(emap=linear_maps(), n_max=st.integers(min_value=2, max_value=7))
@settings(max_examples=60, deadline=None)
def test_linear_closed_form_matches_the_word_enumeration(emap, n_max):
    report = check_ujr(emap, n_max)
    oracle = brute_linear_ujr(emap, n_max)
    assert report.m_values[0] == oracle[0]
    for closed, enumerated in zip(report.m_values, oracle):
        assert abs(closed - enumerated) <= 4e-16


def test_linear_check_does_not_enumerate_words():
    # 2⁴⁰ admissible words at the last n; the closed form needs none
    report = check_ujr(full_branch_linear((2.0, 3.0)), 40)
    assert report.m_values == (0.0,) * 40
    report = check_ujr(golden_mean_linear(), 200)
    assert report.m_values[-1] == report.m_values[0] / 200


def test_golden_mean_defect_is_the_last_branch_hull_factor():
    # branch 2 maps onto [0, a] only: n * M(n) sticks at |log a| instead of 0
    report = check_ujr(golden_mean_linear(), 12)
    assert report.passed
    top = report.m_values[0]
    a = (math.sqrt(5.0) - 1.0) / 2.0
    assert top == pytest.approx(-math.log(a), rel=1e-12)
    for n, m in zip(report.n_values, report.m_values):
        assert m == pytest.approx(top / n, rel=1e-12)


def test_ujr_needs_a_window():
    with pytest.raises(ValueError):
        check_ujr(doubling_map(), 1)


def test_perturbed_doubling_defect_decays_on_the_tail():
    report = check_ujr(perturbed_doubling(), 16, sample_size=25, seed=3)
    assert report.kind == "general"
    assert not report.certified
    assert report.sampling_spread is not None
    assert len(report.sampling_spread) == len(report.n_values)
    assert all(m > 0.0 for m in report.m_values)
    assert report.passed  # nonincreasing on the tail half
    # the same seed reproduces the same sampled statistic
    again = check_ujr(perturbed_doubling(), 16, sample_size=25, seed=3)
    assert again.m_values == report.m_values


@given(
    c=st.floats(min_value=0.01, max_value=1.99),
    n_max=st.integers(min_value=2, max_value=30),
    sample_size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=20, deadline=None)
def test_batched_sweep_is_the_scalar_path_by_path_sweep(c, n_max, sample_size, seed):
    emap = perturbed_doubling(c)
    report = check_ujr(emap, n_max, sample_size=sample_size, seed=seed)
    m_values, spread = brute_sampled_ujr(emap, n_max, sample_size, seed)
    assert report.m_values == m_values
    assert report.sampling_spread == spread


# ---------------------------------------------------------------------------
# pointwise dimension estimates


def test_pointwise_dimension_at_periodic_points_of_the_doubling_map():
    m = doubling_map()
    mu = MarkovMeasure.bernoulli(m.coding, (0.3, 0.7))
    log2 = math.log(2.0)

    fixed = periodic_point(m.coding, (1,))
    report = pointwise_dimension_estimates(m, mu, fixed, 48)
    assert report.last == pytest.approx(-math.log(0.3) / log2, rel=1e-12)
    assert report.final_quarter_spread <= 1e-12

    two_cycle = periodic_point(m.coding, (1, 2))
    report = pointwise_dimension_estimates(m, mu, two_cycle, 48)
    limit = -math.log(0.3 * 0.7) / (2.0 * log2)
    # even-length prefixes hit the limit exactly; odd ones oscillate O(1/n)
    assert report.last == pytest.approx(limit, rel=1e-2)
    assert report.values[-1][0] == 48


def test_pointwise_dimension_of_a_general_map_reads_the_pulled_back_window():
    # each quotient is log μ(C_n) over log(hi − lo) of the window pulled
    # back one symbol at a time by the scalar reference solve
    m = perturbed_doubling(0.8)
    mu = MarkovMeasure.bernoulli(m.coding, (0.3, 0.7))
    point = periodic_point(m.coding, (1, 2, 2))
    report = pointwise_dimension_estimates(m, mu, point, 24)
    word = point.word(24)
    for n, quotient in report.values:
        lo, hi = m.domains[word[n - 1] - 1]
        for s in reversed(word[: n - 1]):
            a, b = brute_branch_inverse(m, s, lo), brute_branch_inverse(m, s, hi)
            lo, hi = min(a, b), max(a, b)
        log_m = float(mu.log_mass_words(np.array([word[:n]]))[0])
        assert quotient == log_m / math.log(hi - lo)
    assert [n for n, _ in report.values] == list(range(1, 25))


def test_pointwise_dimension_input_validation(full2):
    m = golden_mean_linear()
    mu = MarkovMeasure.bernoulli(full2, (0.5, 0.5))
    x = periodic_point(full2, (1,))
    with pytest.raises(ValueError):
        pointwise_dimension_estimates(m, mu, x, 10)  # coding mismatch
    m2 = doubling_map()
    with pytest.raises(ValueError):
        pointwise_dimension_estimates(m2, mu, x, 0)
