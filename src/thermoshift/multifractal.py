"""Pointwise-dimension spectra: constrained variational search + Legendre oracle.

The dimension of the level set where r reference measures have prescribed
pointwise dimensions ᾱ is the supremum of h(ν)/∫γ̃ dν over invariant ν whose
dimension-quotient constraints hit ᾱ.  At desk scale the search runs over a
simplex grid of product (full shifts) or one-step Markov (general codings)
measures; for Bernoulli references on full-branch linear maps an independent
closed-form Legendre curve certifies the result.

Constraint evaluation: per candidate ν the quotient ψ_n/log D_n of a
reference measure converges to the ratio of ergodic averages, so when the
reference has a known generating potential g the constraint is the closed
form −∫g dν / ∫γ̃ dν.  The finite-n cylinder quadrature Σ_w ν(w)·ψ_n(w)/
log D_n(w) is computed alongside at the reported optimum (its transient
decays like 1/n) and disagreement beyond tolerance is flagged, never hidden.
A level's check, like the constraint column of a reference with no known
potential, takes ν's masses from one fold of the family's log arrays along
the depth-n words: one fold per level.

One pass serves every level: the candidate family is a stack of transition
matrices and stationary vectors, and the entropy, Lyapunov and constraint
columns are computed once over it, bit-identical to :func:`entropy` and
:func:`integrate` per candidate.  Each level is then a masked argmax over
those columns (:func:`spectrum_search`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence, Union

import numpy as np

from .interval_maps import ExpandingMarkovMap
from .measures import (
    CylinderMeasureOracle,
    MarkovMeasure,
    _chain_entropies,
    _chain_fault,
    _chain_fold,
    _chain_logs,
    _stationary,
)
from .potentials import LocallyConstantPotential
from .sft import TransitionSystem, _window_codes, word_array


@dataclass(frozen=True)
class SpectrumCurve:
    """A sampled spectrum: parameter grid, dimension levels, dimension values."""

    parameter: tuple[float, ...]
    alpha: tuple[float, ...]
    f_alpha: tuple[float, ...]
    method: str
    feasible: tuple[bool, ...]

    def __post_init__(self) -> None:
        m = len(self.parameter)
        if not (len(self.alpha) == len(self.f_alpha) == len(self.feasible) == m):
            raise ValueError("curve columns must have equal length")
        for ok, f in zip(self.feasible, self.f_alpha):
            if ok and not -1e-12 <= f <= 1.0 + 1e-12:
                raise ValueError(f"dimension value {f} outside [0, 1]")


# ---------------------------------------------------------------------------
# Legendre oracle (Bernoulli references, full-branch linear maps)


def _slope_pair(slopes: Union[float, Sequence[float]]) -> tuple[float, float]:
    if isinstance(slopes, (int, float)):
        pair = (float(slopes), float(slopes))
    else:
        pair = tuple(float(s) for s in slopes)
        if len(pair) != 2:
            raise ValueError("give one slope or a pair")
    if min(pair) <= 1.0:
        raise ValueError("slopes must exceed 1")
    return pair


def spectrum_legendre_bernoulli(
    p: float, slopes: Union[float, Sequence[float]], grid_size: int = 999
) -> SpectrumCurve:
    """Closed-form parametric spectrum of Bernoulli(p) on a 2-branch linear map.

    Over u in the open unit interval: α(u) = −(u·log p + (1−u)·log(1−p)) / L(u)
    and f(u) = H(u)/L(u), with H the entropy function and L(u) = u·log s₁ +
    (1−u)·log s₂ the Lyapunov denominator (constant for equal slopes).  Every
    grid point is feasible by construction.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    s1, s2 = _slope_pair(slopes)
    us, alphas, fs = [], [], []
    for j in range(1, grid_size + 1):
        u = j / (grid_size + 1)
        lyap = u * math.log(s1) + (1.0 - u) * math.log(s2)
        us.append(u)
        alphas.append(-(u * math.log(p) + (1.0 - u) * math.log(1.0 - p)) / lyap)
        fs.append(-(u * math.log(u) + (1.0 - u) * math.log(1.0 - u)) / lyap)
    return SpectrumCurve(tuple(us), tuple(alphas), tuple(fs), "legendre", (True,) * grid_size)


def legendre_alpha_range(
    p: float, slopes: Union[float, Sequence[float]]
) -> tuple[float, float]:
    """Open range of attainable dimension levels (endpoints at u → 0, 1)."""
    s1, s2 = _slope_pair(slopes)
    ends = (-math.log(1.0 - p) / math.log(s2), -math.log(p) / math.log(s1))
    return (min(ends), max(ends))


def legendre_f_at_alpha(
    p: float, slopes: Union[float, Sequence[float]], alpha: float
) -> Optional[float]:
    """f(α) by inverting the parametric curve; None when α is infeasible.

    α(u) is a ratio of affine functions of u, so the inversion is one
    division.  The symmetric degenerate case (p = 1/2, equal slopes) pins
    α to a single value, where f is the full dimension.
    """
    s1, s2 = _slope_pair(slopes)
    lp, lq = math.log(p), math.log(1.0 - p)
    l1, l2 = math.log(s1), math.log(s2)
    # solve  -(u lp + (1-u) lq) = alpha (u l1 + (1-u) l2)  for u
    denom = (lp - lq) + alpha * (l1 - l2)
    rhs = -lq - alpha * l2
    if abs(denom) < 1e-12:
        if abs(rhs) > 1e-9:
            return None
        u = 0.5
    else:
        u = rhs / denom
    if not 0.0 < u < 1.0:
        return None
    lyap = u * l1 + (1.0 - u) * l2
    return -(u * math.log(u) + (1.0 - u) * math.log(1.0 - u)) / lyap


def legendre_levels(p: float, slopes: Union[float, Sequence[float]], count: int) -> list[float]:
    """``count`` evenly spaced interior levels of the attainable range."""
    if count < 1:
        raise ValueError(f"need at least one level, got {count}")
    lo, hi = legendre_alpha_range(p, slopes)
    return [float(a) for a in np.linspace(lo, hi, count + 2)[1:-1]]


def legendre_deviation(
    p: float,
    slopes: Union[float, Sequence[float]],
    alphas: Sequence[float],
    points: Sequence[VariationalSpectrumPoint],
) -> tuple[list[Optional[float]], float]:
    """f(α) of the Legendre oracle at each level, and the worst |f_var − f|
    over the levels feasible for both it and the search's ``points``."""
    f_leg = [legendre_f_at_alpha(p, slopes, a) for a in alphas]
    worst = 0.0
    for f, point in zip(f_leg, points):
        if point.feasible and f is not None:
            worst = max(worst, abs(point.f - f))
    return f_leg, worst


# ---------------------------------------------------------------------------
# candidate families


@dataclass(frozen=True, eq=False)
class CandidateFamily:
    """A finite, ordered family of Markov candidates for the variational search.

    Candidate c is the chain with transition matrix ``q[c]`` and stationary
    vector ``pi[c]``, stacked as read-only (N, k, k) and (N, k) arrays, with
    grid coordinates ``parameters[c]``.  Construction runs every
    :class:`MarkovMeasure` check on the whole stack at once and names the
    first failing candidate.  ``measures`` builds one MarkovMeasure per
    candidate on first access; the search reads only the arrays.
    """

    label: str
    ts: TransitionSystem
    parameters: tuple[tuple[float, ...], ...]
    q: np.ndarray
    pi: np.ndarray

    def __post_init__(self) -> None:
        n, k = len(self.parameters), self.ts.k
        for name, shape in (("q", (n, k, k)), ("pi", (n, k))):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, one entry per parameter")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        fault = _chain_fault(self.ts, self.q, self.pi)
        if fault is not None:
            raise ValueError(f"candidate {fault[0] + 1}: {fault[1]}")

    def measure(self, c: int) -> MarkovMeasure:
        """Candidate c as a validated :class:`MarkovMeasure`."""
        return MarkovMeasure(
            self.ts,
            tuple(tuple(map(float, row)) for row in self.q[c]),
            tuple(map(float, self.pi[c])),
        )

    @cached_property
    def measures(self) -> tuple[MarkovMeasure, ...]:
        return tuple(self.measure(c) for c in range(len(self.parameters)))

    def integrals(self, phi: LocallyConstantPotential) -> np.ndarray:
        """∫φ dν for every candidate ν, bit-identical to :func:`integrate`.

        One chain fold of the stack along the depth-words gives each
        candidate's masses; the products with φ add in word order from 0.0.
        """
        if phi.system.matrix != self.ts.matrix:
            raise ValueError("potential and measure live on different systems")
        words = word_array(self.ts, phi.depth)
        masses = _chain_fold(self.pi, self.q, _window_codes(words, self.ts.k, 1), np.multiply)
        terms = masses * phi.dense[tuple(words.T - 1)]
        return reduce(operator.add, terms.T, np.zeros(len(self.parameters)))

    def entropies(self) -> np.ndarray:
        """h(ν) for every candidate ν, bit-identical to :func:`entropy`."""
        return _chain_entropies(self.q, self.pi)


def grid_size(step: float) -> int:
    """The m ≥ 2 with m·step = 1 to 1e−6 (1/step parts of [0, 1]), else 0."""
    m = round(1.0 / step) if step > 1e-300 else 0  # 1/step stays finite
    return m if m >= 2 and abs(m * step - 1.0) <= 1e-6 else 0


def _simplex_grid(parts: int, step: float) -> np.ndarray:
    """Interior grid points of the simplex as rows (b − a)/m of cut points."""
    m = grid_size(step)
    if not m:
        raise ValueError("step must evenly divide 1")
    count = math.comb(m - 1, parts - 1)
    if count > 1_000_000:
        raise ValueError("simplex grid too fine for this many coordinates")
    cuts = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, m), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    bounds = np.hstack([np.zeros((count, 1), np.int64), cuts, np.full((count, 1), m)])
    # integer differences are exact and one division rounds once, as in Python
    return np.diff(bounds, axis=1) / m


def bernoulli_candidate_family(ts: TransitionSystem, step: float = 1e-3) -> CandidateFamily:
    """Interior product measures on a full shift, probabilities on a grid.

    Grid points are exact ratios j/m (not accumulated steps), so a reference
    probability like 0.3 at step 1e−3 is hit bit-exactly.
    """
    if not ts.is_full:
        raise ValueError("Bernoulli measures live on full shifts")
    p = _simplex_grid(ts.k, step)
    params = tuple(map(tuple, p.tolist()))
    return CandidateFamily("bernoulli", ts, params, np.repeat(p[:, None, :], ts.k, axis=1), p)


def markov_candidate_family(ts: TransitionSystem, step: float = 1e-2) -> CandidateFamily:
    """One-step Markov chains: each row's allowed entries range over a grid.

    Rows with a single allowed transition are pinned at probability 1.
    Candidate count is the product of per-row grid sizes (guarded at 10⁶).
    The stationary vectors come from one batched GTH elimination.
    """
    rows_choices: list[list[tuple[float, ...]]] = []
    total = 1
    for i in range(1, ts.k + 1):
        succ = ts.successors(i)
        grid = [[1.0]] if len(succ) == 1 else _simplex_grid(len(succ), step).tolist()
        total *= len(grid)
        if total > 1_000_000:
            raise ValueError("Markov candidate grid too fine for this coding")
        choices = []
        for free in grid:
            row = [0.0] * ts.k
            for j, x in zip(succ, free):
                row[j - 1] = x
            choices.append(tuple(row))
        rows_choices.append(choices)
    params = tuple(
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*rows_choices)
    )
    q = np.array(params, dtype=float).reshape(len(params), ts.k, ts.k)
    return CandidateFamily("markov", ts, params, q, _stationary(q))


# ---------------------------------------------------------------------------
# variational search


@dataclass(frozen=True)
class VariationalSpectrumPoint:
    """Result of the constrained search at one dimension vector ᾱ.

    ``constraints`` are the per-reference values at the optimum by the
    primary route (closed form when the reference has a known potential);
    ``quadrature`` re-evaluates them as the finite-n integral of the
    quotient at depth n = ``quadrature_depth``, from one fold of the
    argmax's chain along the depth-n words.
    ``comparison_flagged`` marks closed-form routes whose quadrature value
    strayed beyond the comparison tolerance.  Infeasible ᾱ is a result, not
    an error: f and ``argmax_parameter`` are None and ``constraint_window``
    shows the attainable range per coordinate.
    """

    alpha: tuple[float, ...]
    feasible: bool
    f: Optional[float]
    argmax_parameter: Optional[tuple[float, ...]]
    constraints: Optional[tuple[float, ...]]
    constraint_routes: tuple[str, ...]
    constraint_window: tuple[tuple[float, float], ...]
    quadrature: Optional[tuple[float, ...]]
    quadrature_depth: int
    comparison_flagged: bool
    delta: float
    family_label: str


def _level(alpha: Union[float, Sequence[float]]) -> tuple[float, ...]:
    if isinstance(alpha, (tuple, list, np.ndarray)):
        return tuple(float(a) for a in alpha)
    return (float(alpha),)


def spectrum_search(
    emap: ExpandingMarkovMap,
    measures: Sequence[CylinderMeasureOracle],
    levels: Sequence[Union[float, Sequence[float]]],
    family: Optional[CandidateFamily] = None,
    step: float = 1e-3,
    delta: float = 1e-3,
    quadrature_depth: int = 10,
) -> tuple[VariationalSpectrumPoint, ...]:
    """Maximize h(ν)/∫γ̃ dν over grid candidates meeting the constraints,
    at every dimension vector of ``levels``; one point per level.

    Feasibility is |constraint_i(ν) − α_i| ≤ delta for every coordinate; the
    argmax is the first feasible candidate attaining the best objective (a
    deterministic tie-break by grid order).  The default family is product
    measures on full shifts and one-step Markov chains otherwise.

    Nothing but the feasibility mask depends on the level, so the objective,
    the constraint columns, the quadrature words and each reference's
    quotients ψ_n/log D_n on them are computed once, as arrays over the
    candidate axis; each level is then a masked argmax over them, and no
    :class:`MarkovMeasure` is built.  One routine gives a candidate's masses
    on the quadrature words, for the constraint column of a reference with
    no known potential (one candidate at a time, so never more than one row
    of cylinder masses) and for each level's check.
    """
    if emap.kind != "piecewise_linear":
        raise ValueError("the variational search is defined for linear maps only")
    alphas = [_level(a) for a in levels]
    mus = list(measures)
    if any(len(a) != len(mus) for a in alphas):
        raise ValueError("one dimension level per reference measure")
    if not mus:
        raise ValueError("need at least one reference measure")
    for mu in mus:
        if mu.system.matrix != emap.coding.matrix:
            raise ValueError("reference measure lives on a different coding")
    if delta <= 0:
        raise ValueError("feasibility tolerance must be positive")
    if quadrature_depth < 2:
        raise ValueError("quadrature depth must be at least 2")
    ts = emap.coding
    if family is None:
        if ts.is_full:
            family = bernoulli_candidate_family(ts, step)
        else:
            family = markov_candidate_family(ts, step)
    refs = [mu.reference_potential() for mu in mus]
    routes = tuple("closed-form" if g is not None else "quadrature" for g in refs)
    comparison_tol = max(0.05, 3.0 / quadrature_depth)

    lyap = family.integrals(emap.slope_potential())
    objective = family.entropies() / lyap
    words_q = word_array(ts, quadrature_depth)
    log_d_q = emap.log_diameters(words_q)[:, -1]
    ratio_q = [mu.log_mass_words(words_q) / log_d_q for mu in mus]

    def masses(c: int) -> np.ndarray:
        """ν_c(w) for every quadrature word w: the fold of candidate c's logs."""
        logs = _chain_logs(family.pi[c], family.q[c])
        return np.exp(_chain_fold(*logs, _window_codes(words_q, ts.k, 1), np.add))

    cons = np.empty((len(family.parameters), len(mus)))
    for i, g in enumerate(refs):
        if g is not None:
            cons[:, i] = -family.integrals(g) / lyap
            continue
        for c in range(len(family.parameters)):
            cons[c, i] = float(masses(c) @ ratio_q[i])
    window = tuple(
        (float(np.min(cons[:, i])), float(np.max(cons[:, i]))) for i in range(len(mus))
    )

    points = []
    for alpha in alphas:
        common = dict(
            alpha=alpha,
            constraint_routes=routes,
            constraint_window=window,
            quadrature_depth=quadrature_depth,
            delta=delta,
            family_label=family.label,
        )
        feasible_mask = np.all(np.abs(cons - np.asarray(alpha)[None, :]) <= delta, axis=1)
        idx = np.flatnonzero(feasible_mask)
        if idx.size == 0:
            points.append(
                VariationalSpectrumPoint(
                    feasible=False,
                    f=None,
                    argmax_parameter=None,
                    constraints=None,
                    quadrature=None,
                    comparison_flagged=False,
                    **common,
                )
            )
            continue
        best = int(idx[int(np.argmax(objective[idx]))])
        nu_w = masses(best)
        quadrature = tuple(float(nu_w @ ratio) for ratio in ratio_q)
        flagged = any(
            route == "closed-form" and abs(q - c) > comparison_tol
            for route, q, c in zip(routes, quadrature, cons[best])
        )
        points.append(
            VariationalSpectrumPoint(
                feasible=True,
                f=float(objective[best]),
                argmax_parameter=family.parameters[best],
                constraints=tuple(float(x) for x in cons[best]),
                quadrature=quadrature,
                comparison_flagged=flagged,
                **common,
            )
        )
    return tuple(points)


def spectrum_variational(
    emap: ExpandingMarkovMap,
    measures: Sequence[CylinderMeasureOracle],
    alpha: Union[float, Sequence[float]],
    family: Optional[CandidateFamily] = None,
    step: float = 1e-3,
    delta: float = 1e-3,
    quadrature_depth: int = 10,
) -> VariationalSpectrumPoint:
    """The constrained search at one dimension vector ᾱ (see :func:`spectrum_search`)."""
    return spectrum_search(emap, measures, [alpha], family, step, delta, quadrature_depth)[0]


# ---------------------------------------------------------------------------
# cross-check


@dataclass(frozen=True)
class CrosscheckReport:
    """Variational vs Legendre spectra over an interior grid of levels."""

    alphas: tuple[float, ...]
    f_variational: tuple[Optional[float], ...]
    f_legendre: tuple[float, ...]
    feasible: tuple[bool, ...]
    max_deviation: float
    step: float
    delta: float


def spectrum_crosscheck(
    emap: ExpandingMarkovMap,
    p: float,
    alpha_count: int = 50,
    step: float = 1e-3,
    delta: float = 1e-3,
) -> CrosscheckReport:
    """Run the variational search against the Legendre oracle (r = 1).

    Requires a 2-branch full-shift linear map; the reference is Bernoulli(p)
    on its coding.  Levels are ``alpha_count`` interior points of the
    attainable range; the reported deviation is the worst |f_var − f_leg|
    over levels feasible for both routes.  It is O(step + delta·|f′(α)|),
    not O(step): a feasible candidate may sit delta away from α, where f
    is larger, so a finer step at fixed delta does not shrink it.
    """
    if emap.kind != "piecewise_linear" or emap.coding.k != 2:
        raise ValueError("the cross-check targets 2-branch linear maps")
    if not emap.coding.is_full:
        raise ValueError("the Legendre oracle needs a full shift")
    slopes = emap.slopes
    mu = MarkovMeasure.bernoulli(emap.coding, (p, 1.0 - p))
    family = bernoulli_candidate_family(emap.coding, step)
    alphas = legendre_levels(p, slopes, alpha_count)
    points = spectrum_search(emap, [mu], alphas, family=family, delta=delta)
    f_leg, worst = legendre_deviation(p, slopes, alphas, points)
    return CrosscheckReport(
        alphas=tuple(alphas),
        f_variational=tuple(point.f for point in points),
        f_legendre=tuple(math.nan if f is None else f for f in f_leg),
        feasible=tuple(point.feasible for point in points),
        max_deviation=worst,
        step=step,
        delta=delta,
    )
