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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .interval_maps import ExpandingMarkovMap
from .log_mass import LogMassSequence
from .measures import (
    CylinderMeasureOracle,
    MarkovMeasure,
    RpfGibbsData,
    WeakGibbsCertificate,
    atomfree_check,
    entropy,
    integrate,
)
from .sft import TransitionSystem, word_array


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


# ---------------------------------------------------------------------------
# candidate families


@dataclass(frozen=True)
class CandidateFamily:
    """A finite, ordered family of Markov candidates for the variational search."""

    label: str
    parameters: tuple[tuple[float, ...], ...]
    measures: tuple[MarkovMeasure, ...]


def _simplex_grid(parts: int, step: float) -> list[tuple[float, ...]]:
    m = round(1.0 / step)
    if m < 2 or abs(m * step - 1.0) > 1e-6:
        raise ValueError("step must evenly divide 1")
    if math.comb(m - 1, parts - 1) > 1_000_000:
        raise ValueError("simplex grid too fine for this many coordinates")
    out = []
    for cuts in itertools.combinations(range(1, m), parts - 1):
        bounds = (0,) + cuts + (m,)
        out.append(tuple((b - a) / m for a, b in zip(bounds, bounds[1:])))
    return out


def bernoulli_candidate_family(ts: TransitionSystem, step: float = 1e-3) -> CandidateFamily:
    """Interior product measures on a full shift, probabilities on a grid.

    Grid points are exact ratios j/m (not accumulated steps), so a reference
    probability like 0.3 at step 1e−3 is hit bit-exactly.
    """
    probs = _simplex_grid(ts.k, step)
    measures = tuple(MarkovMeasure.bernoulli(ts, pr) for pr in probs)
    return CandidateFamily("bernoulli", tuple(probs), measures)


def markov_candidate_family(ts: TransitionSystem, step: float = 1e-2) -> CandidateFamily:
    """One-step Markov chains: each row's allowed entries range over a grid.

    Rows with a single allowed transition are pinned at probability 1.
    Candidate count is the product of per-row grid sizes (guarded at 10⁶).
    """
    rows_choices: list[list[tuple[float, ...]]] = []
    total = 1
    for i in range(1, ts.k + 1):
        succ = ts.successors(i)
        if len(succ) == 1:
            rows_choices.append([(1.0,)])
        else:
            grid = _simplex_grid(len(succ), step)
            rows_choices.append(grid)
            total *= len(grid)
        if total > 1_000_000:
            raise ValueError("Markov candidate grid too fine for this coding")
    params, measures = [], []
    succs = [ts.successors(i) for i in range(1, ts.k + 1)]
    for combo in itertools.product(*rows_choices):
        rows = []
        for succ, free in zip(succs, combo):
            row = [0.0] * ts.k
            for j, x in zip(succ, free):
                row[j - 1] = x
            rows.append(tuple(row))
        params.append(tuple(x for row in rows for x in row))
        measures.append(MarkovMeasure.from_stochastic(ts, rows))
    return CandidateFamily("markov", tuple(params), tuple(measures))


# ---------------------------------------------------------------------------
# variational search


@dataclass(frozen=True)
class ChecklistItem:
    """One hypothesis of the variational theorem, with its certification status."""

    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class VariationalSpectrumPoint:
    """Result of the constrained search at one dimension vector ᾱ.

    ``constraints`` are the per-reference values at the optimum by the
    primary route (closed form when the reference has a known potential);
    ``quadrature`` re-evaluates them as the finite-n integral of the
    quotient, with ``quadrature_stability`` the change from depth n−1 to n.
    ``comparison_flagged`` marks closed-form routes whose quadrature value
    strayed beyond the comparison tolerance.  Infeasible ᾱ is a result, not
    an error: f and the argmax are None and ``constraint_window`` shows the
    attainable range per coordinate.
    """

    alpha: tuple[float, ...]
    feasible: bool
    f: Optional[float]
    argmax_parameter: Optional[tuple[float, ...]]
    argmax: Optional[MarkovMeasure]
    constraints: Optional[tuple[float, ...]]
    constraint_routes: tuple[str, ...]
    constraint_window: tuple[tuple[float, float], ...]
    quadrature: Optional[tuple[float, ...]]
    quadrature_stability: Optional[tuple[float, ...]]
    quadrature_depth: int
    comparison_flagged: bool
    delta: float
    family_label: str
    checklist: tuple[ChecklistItem, ...]


def _hypothesis_checklist(
    measures: Sequence[CylinderMeasureOracle],
    certificates: Optional[Sequence[Optional[WeakGibbsCertificate]]],
) -> tuple[ChecklistItem, ...]:
    items = []
    for i, mu in enumerate(measures):
        tag = f"mu_{i + 1}"
        if isinstance(mu, MarkovMeasure) or isinstance(mu, RpfGibbsData):
            items.append(
                ChecklistItem(
                    f"{tag} invariant",
                    "certified",
                    "stationary chain validated at construction",
                )
            )
        else:
            items.append(
                ChecklistItem(
                    f"{tag} invariant",
                    "not-certified",
                    "table oracle: invariance not derivable at finite depth",
                )
            )
        cert = certificates[i] if certificates else None
        if cert is not None:
            items.append(
                ChecklistItem(f"{tag} weak-gibbs", cert.verdict, f"P_used = {cert.p_used!r}")
            )
        else:
            items.append(
                ChecklistItem(f"{tag} weak-gibbs", "not-supplied", "no certificate attached")
            )
        g = LogMassSequence(mu).family_member(1)
        if g is None:
            items.append(ChecklistItem(f"{tag} non-atomic", "not-checked", "no known potential"))
        else:
            witness = atomfree_check(g, 8)
            if witness is None:
                items.append(
                    ChecklistItem(f"{tag} non-atomic", "not-found", "no witness up to n = 8")
                )
            else:
                items.append(
                    ChecklistItem(f"{tag} non-atomic", "certified", f"witness n = {witness}")
                )
    return tuple(items)


def spectrum_variational(
    emap: ExpandingMarkovMap,
    measures: Sequence[CylinderMeasureOracle],
    alpha: Union[float, Sequence[float]],
    family: Optional[CandidateFamily] = None,
    step: float = 1e-3,
    delta: float = 1e-3,
    quadrature_depth: int = 10,
    certificates: Optional[Sequence[Optional[WeakGibbsCertificate]]] = None,
    comparison_tol: Optional[float] = None,
) -> VariationalSpectrumPoint:
    """Maximize h(ν)/∫γ̃ dν over grid candidates meeting the constraints.

    Feasibility is |constraint_i(ν) − α_i| ≤ delta for every coordinate; the
    argmax is the first feasible candidate attaining the best objective (a
    deterministic tie-break by grid order).  The default family is product
    measures on full shifts and one-step Markov chains otherwise.
    """
    if emap.kind != "piecewise_linear":
        raise ValueError("the variational search is defined for linear maps only")
    alphas = (
        tuple(float(a) for a in alpha)
        if isinstance(alpha, (tuple, list, np.ndarray))
        else (float(alpha),)
    )
    mus = list(measures)
    if len(mus) != len(alphas):
        raise ValueError("one dimension level per reference measure")
    if not mus:
        raise ValueError("need at least one reference measure")
    for mu in mus:
        if mu.system.matrix != emap.coding.matrix:
            raise ValueError("reference measure lives on a different coding")
    if delta <= 0:
        raise ValueError("feasibility tolerance must be positive")
    ts = emap.coding
    if family is None:
        if all(x == 1 for row in ts.matrix for x in row):
            family = bernoulli_candidate_family(ts, step)
        else:
            family = markov_candidate_family(ts, step)
    gamma = emap.slope_potential()
    refs = [LogMassSequence(mu).family_member(1) for mu in mus]
    routes = tuple("closed-form" if g is not None else "quadrature" for g in refs)
    if comparison_tol is None:
        comparison_tol = max(0.05, 3.0 / quadrature_depth)

    lyap = np.array([integrate(gamma, nu) for nu in family.measures])
    objective = np.array([entropy(nu) for nu in family.measures]) / lyap
    cons = np.empty((len(family.measures), len(mus)))
    words_q = word_array(ts, quadrature_depth)
    log_d_q = emap.log_diameters(words_q)
    for i, (mu, g) in enumerate(zip(mus, refs)):
        if g is not None:
            cons[:, i] = [
                -integrate(g, nu) / d for nu, d in zip(family.measures, lyap)
            ]
        else:
            ratio = mu.log_mass_words(words_q) / log_d_q
            for c, nu in enumerate(family.measures):
                cons[c, i] = float(np.exp(nu.log_mass_words(words_q)) @ ratio)
    window = tuple(
        (float(np.min(cons[:, i])), float(np.max(cons[:, i]))) for i in range(len(mus))
    )
    checklist = _hypothesis_checklist(mus, certificates)
    feasible_mask = np.all(np.abs(cons - np.asarray(alphas)[None, :]) <= delta, axis=1)
    idx = np.flatnonzero(feasible_mask)
    if idx.size == 0:
        return VariationalSpectrumPoint(
            alpha=alphas,
            feasible=False,
            f=None,
            argmax_parameter=None,
            argmax=None,
            constraints=None,
            constraint_routes=routes,
            constraint_window=window,
            quadrature=None,
            quadrature_stability=None,
            quadrature_depth=quadrature_depth,
            comparison_flagged=False,
            delta=delta,
            family_label=family.label,
            checklist=checklist,
        )
    best = int(idx[int(np.argmax(objective[idx]))])
    nu_best = family.measures[best]
    words_prev = word_array(ts, quadrature_depth - 1)
    log_d_prev = emap.log_diameters(words_prev)
    nu_w_q = np.exp(nu_best.log_mass_words(words_q))
    nu_w_prev = np.exp(nu_best.log_mass_words(words_prev))
    quadrature = []
    stability = []
    flagged = False
    for i, mu in enumerate(mus):
        q_now = float(nu_w_q @ (mu.log_mass_words(words_q) / log_d_q))
        q_prev = float(nu_w_prev @ (mu.log_mass_words(words_prev) / log_d_prev))
        quadrature.append(q_now)
        stability.append(abs(q_now - q_prev))
        if routes[i] == "closed-form" and abs(q_now - cons[best, i]) > comparison_tol:
            flagged = True
    return VariationalSpectrumPoint(
        alpha=alphas,
        feasible=True,
        f=float(objective[best]),
        argmax_parameter=family.parameters[best],
        argmax=nu_best,
        constraints=tuple(float(x) for x in cons[best]),
        constraint_routes=routes,
        constraint_window=window,
        quadrature=tuple(quadrature),
        quadrature_stability=tuple(stability),
        quadrature_depth=quadrature_depth,
        comparison_flagged=flagged,
        delta=delta,
        family_label=family.label,
        checklist=checklist,
    )


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
    over levels feasible for both routes (O(step) by construction).
    """
    if emap.kind != "piecewise_linear" or emap.coding.k != 2:
        raise ValueError("the cross-check targets 2-branch linear maps")
    if any(x != 1 for row in emap.coding.matrix for x in row):
        raise ValueError("the Legendre oracle needs a full shift")
    slopes = emap.slopes
    mu = MarkovMeasure.bernoulli(emap.coding, (p, 1.0 - p))
    family = bernoulli_candidate_family(emap.coding, step)
    lo, hi = legendre_alpha_range(p, slopes)
    grid = np.linspace(lo, hi, alpha_count + 2)[1:-1]
    f_var, f_leg, feas = [], [], []
    worst = 0.0
    for a in grid:
        point = spectrum_variational(
            emap, [mu], float(a), family=family, delta=delta
        )
        oracle_f = legendre_f_at_alpha(p, slopes, float(a))
        f_var.append(point.f)
        f_leg.append(oracle_f if oracle_f is not None else math.nan)
        feas.append(point.feasible)
        if point.feasible and oracle_f is not None:
            worst = max(worst, abs(point.f - oracle_f))
    return CrosscheckReport(
        alphas=tuple(float(a) for a in grid),
        f_variational=tuple(f_var),
        f_legendre=tuple(f_leg),
        feasible=tuple(feas),
        max_deviation=worst,
        step=step,
        delta=delta,
    )
