"""The log-cylinder-mass sequence and its exact verification suite.

Every cylinder-measure oracle μ induces a potential sequence whose n-th
member is ω ↦ log μ(C_{ω₁…ω_n}).  That sequence makes μ a Gibbs measure in
the strongest possible sense — ratio exactly 1, constant exactly 1, pressure
exactly 0 — and inherits quantitative regularity (asymptotic additivity,
almost additivity) from any Gibbs/weak-Gibbs certificate μ carries.  Its
additive approximant ρ is the oracle's ``reference_potential`` and its
periodic sums read the oracle's ``block_chain``.  The checks here verify
each of those claims on every admissible word up to a finite depth, as
arrays: the rows of :func:`~thermoshift.sft.word_array` and the oracle's
``mass_words``/``log_mass_words`` over them.  They share float-for-float
the ratio computations used by
:func:`~thermoshift.measures.certify_weak_gibbs` so that "exact" assertions
survive roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .measures import (
    CylinderMeasureOracle,
    TableMeasure,
    WeakGibbsCertificate,
    ZeroCylinderMassError,
    _first_max,
    _gibbs_ratio_rows,
    _log_kstar_series,
)
from .potentials import (
    LocallyConstantPotential,
    PotentialSequence,
    almost_additivity_defect,
    asymptotic_defect,
)
from .pressure import PressureEstimate, pressure_limit
from .sft import TransitionSystem, Word, word_array


class LogMassSequence(PotentialSequence):
    """phi_n(ω) = log μ(C of first n symbols); dep(n) = n exactly.

    Values are ≤ 0 (masses are probabilities) and finite on admissible
    words whenever μ is positive on cylinders — :func:`build_log_mass_sequence`
    scans for violations up front.  For an oracle whose block chain has
    width 1 the periodic pressure sums collapse to matrix powers of Q in
    ``periodic_log_sums``.
    """

    def __init__(self, oracle: CylinderMeasureOracle):
        self.oracle = oracle

    @property
    def system(self) -> TransitionSystem:
        return self.oracle.system

    def dep(self, n: int) -> int:
        return n

    def value_word(self, n: int, word: Word) -> float:
        if len(word) < n:
            raise ValueError(f"need {n} symbols, got {len(word)}")
        m = self.oracle.mass(tuple(word[:n]))
        if m <= 0:
            raise ZeroCylinderMassError(f"admissible word {word[:n]} has zero mass")
        return math.log(m)

    def values_on_words(self, n: int, words: np.ndarray) -> np.ndarray:
        return self.oracle.log_mass_words(words[:, :n])

    def family_member(self, k: int) -> Optional[LocallyConstantPotential]:
        """The oracle's reference potential, at every accuracy index."""
        return self.oracle.reference_potential()

    def periodic_log_sums(self, n_min: int, n_max: int) -> list[float]:
        """A block chain of width 1 turns the sum into
        pi·(Q^{n−1} ∘ return-mask)·1; other oracles enumerate."""
        view = self.oracle.block_chain()
        if view is None or view[0].width != 1:
            return super().periodic_log_sums(n_min, n_max)
        pi, q = view[1]._arrays
        ts = self.system
        return_mask = ts.as_array.T.astype(float)
        out = []
        power = np.eye(ts.k)
        for n in range(1, n_max + 1):
            if n >= n_min:
                z = float(pi @ ((power * return_mask) @ np.ones(ts.k)))
                out.append(math.log(z) if z > 0 else -math.inf)
            power = power @ q
        return out


def build_log_mass_sequence(oracle: CylinderMeasureOracle) -> LogMassSequence:
    """Wrap an oracle as its log-mass sequence, scanning for zero masses.

    Positivity on admissible cylinders is a standing assumption of every
    downstream check; violations up to length 6 (capped at a table
    oracle's depth) raise :class:`ZeroCylinderMassError` immediately rather
    than surfacing later as −inf values.
    """
    depth = 6
    if isinstance(oracle, TableMeasure):
        depth = min(depth, oracle.depth)
    for n in range(1, depth + 1):
        _positive_masses(oracle, n)
    return LogMassSequence(oracle)


def _positive_masses(
    oracle: CylinderMeasureOracle, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(words, masses) of the admissible n-words; the first word whose mass
    is not positive raises :class:`ZeroCylinderMassError`."""
    words = word_array(oracle.system, n)
    masses = oracle.mass_words(words)
    bad = np.flatnonzero(~(masses > 0))
    if bad.size:
        w = tuple(int(s) for s in words[bad[0]])
        raise ZeroCylinderMassError(f"admissible word {w} has zero mass")
    return words, masses


# ---------------------------------------------------------------------------
# the verification suite


@dataclass(frozen=True)
class GibbsOneReport:
    """Ratio μ(C_w)/exp(phi_n(w)) across all admissible words up to n_max."""

    n_max: int
    max_rel_error: float
    witness: Optional[Word]
    passed: bool


def check_gibbs_one(seq: LogMassSequence, n_max: int) -> GibbsOneReport:
    """μ(C_w) = exp(phi_n(w)) with constant 1 and pressure 0, to 1e-14.

    True by construction — the check guards the plumbing between the oracle's
    linear-scale masses and the sequence's log-scale values, where only an
    exp∘log round-trip (≤ 2 ulp) separates the two.  Runs on the arrays of
    ``mass_words``; the witness is the first worst word in length-then-
    lexicographic order.  A mass that is not positive raises
    :class:`ZeroCylinderMassError`.
    """
    worst = 0.0
    witness: Optional[Word] = None
    for n in range(1, n_max + 1):
        words, masses = _positive_masses(seq.oracle, n)
        # math, not numpy: np.exp differs from math.exp in the last bit on
        # some inputs, and the value of phi_n is math.log of the mass
        errs = np.array([abs(m / math.exp(math.log(m)) - 1.0) for m in masses.tolist()])
        i = _first_max(errs)
        if errs[i] > worst:
            worst, witness = float(errs[i]), tuple(int(s) for s in words[i])
    passed = worst <= 1e-14
    return GibbsOneReport(n_max, worst, None if passed else witness, passed)


@dataclass(frozen=True)
class PressureZeroReport:
    """Extrapolated periodic-route pressure of the log-mass sequence vs 0."""

    estimate: PressureEstimate
    tolerance: float
    passed: bool


def check_pressure_zero(
    seq: LogMassSequence, n_max: int = 20, tol: float = 1e-3
) -> PressureZeroReport:
    """Periodic-route pressure of the log-mass sequence must vanish.

    Each finite-n sum Σ_{cyclic w} μ(C_w) is at most 1, so the raw values
    approach 0 from below; the report passes when |extrapolated| falls
    within the estimate's own error bar plus ``tol``.
    """
    est = pressure_limit("periodic", seq, 1, n_max)
    return PressureZeroReport(est, tol, abs(est.extrapolated) <= est.error_bar + tol)


@dataclass(frozen=True)
class SandwichReport:
    """Per-n slack of the two-sided Gibbs inequality, tightest first to fail.

    slack(n) = log K(n) − max_w |phi_n^μ(w) − phi_n(w) + nP|; nonnegative
    everywhere iff the sandwich holds.  ``first_violation`` names the first
    (n, word) exceeding the bound, lexicographically first within its n.
    """

    p_used: float
    n_values: tuple[int, ...]
    slacks: tuple[float, ...]
    worst_slack: float
    first_violation: Optional[tuple[int, Word]]
    passed: bool


def check_sandwich(
    seq: LogMassSequence,
    target: PotentialSequence,
    p: float,
    k: Union[float, Callable[[int], float], WeakGibbsCertificate],
    n_max: int,
) -> SandwichReport:
    """K(n)⁻¹ ≤ μ(C_w)/exp(phi_n − nP) ≤ K(n) over all words, exactly.

    ``k`` may be a constant, a function of n, or a certificate from
    :func:`~thermoshift.measures.certify_weak_gibbs`.  Passing the
    certificate reuses its stored log K*(n), and the optimal constants come
    from the routine certification itself uses (the block-graph recursion
    where it applies, enumeration elsewhere), so they pass with slack
    exactly 0.0 rather than failing by a rounding ulp.  Only the first
    violating n, if any, is enumerated word by word, to name its first
    violating word.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    def log_k(n: int) -> float:
        if isinstance(k, WeakGibbsCertificate):
            return k.log_k(n)
        bound = k(n) if callable(k) else k
        if bound < 1.0:
            raise ValueError(f"K({n}) = {bound!r} < 1")
        return math.log(bound)

    log_ks = [log_k(n) for n in range(1, n_max + 1)]
    optimal, fold = _log_kstar_series(seq.oracle, target, p, n_max)
    slacks = [lk - best for lk, best in zip(log_ks, optimal)]
    violation: Optional[tuple[int, Word]] = None
    for n, slack in enumerate(slacks, 1):
        if slack < 0:
            words, diffs = _gibbs_ratio_rows(seq.oracle, target, p, n, fold)
            idx = int(np.flatnonzero(np.abs(diffs) > log_ks[n - 1])[0])
            violation = (n, tuple(int(s) for s in words[idx, :n]))
            break
    worst = min(slacks)
    return SandwichReport(
        p_used=p,
        n_values=tuple(range(1, n_max + 1)),
        slacks=tuple(slacks),
        worst_slack=worst,
        first_violation=violation,
        passed=violation is None,
    )


@dataclass(frozen=True)
class AsymptoticAdditivityReport:
    """Normalized defects against the k-th additive approximant.

    bound(n) = 1/k + log K*(n)/n is the triangle-inequality budget: 1/k from
    the family's own accuracy, the certificate term from the Gibbs sandwich.
    The verdict looks at the tail half, where transients have died out.
    """

    family_index: int
    n_values: tuple[int, ...]
    defects: tuple[float, ...]
    bounds: tuple[float, ...]
    tail_from: int
    worst_tail_excess: float
    passed: bool


def check_asymptotic_additivity(
    seq: LogMassSequence,
    target: PotentialSequence,
    p: float,
    k: int,
    n_max: int,
    certificate: WeakGibbsCertificate,
) -> AsymptoticAdditivityReport:
    """(1/n)·sup|log μ(C) − S_n ρ_k + nP| ≤ 1/k + log K*(n)/n on the tail.

    ρ_k is the target's k-th approximating family member; subtracting the
    pressure per symbol (ρ_k − P) recenters the Birkhoff sums on the scale
    of log-masses.  Exhaustive over words of length max(n, n + depth(ρ_k) − 1).
    When ρ_k is the oracle's reference potential, as in psi-verify, the
    defect is log K*(n)/n up to rounding (both are the sup of
    |log μ(C_w) − S_n ρ_k(w) + nP|/n), so the check compares log K*(n)/n
    with 1/k + log K*(n)/n.
    """
    rho = target.family_member(k)
    if rho is None:
        raise ValueError("target sequence declares no approximating family")
    if certificate.n_max < n_max:
        raise ValueError("certificate does not cover the requested range")
    recentred = rho.shifted(-p)
    ns = range(1, n_max + 1)
    defects = [asymptotic_defect(seq, recentred, n) for n in ns]
    bounds = [1.0 / k + certificate.log_k(n) / n for n in ns]
    tail_from = (n_max + 1) // 2
    excess = max(
        d - b for n, d, b in zip(ns, defects, bounds) if n >= tail_from
    )
    return AsymptoticAdditivityReport(
        family_index=k,
        n_values=tuple(ns),
        defects=tuple(defects),
        bounds=tuple(bounds),
        tail_from=tail_from,
        worst_tail_excess=excess,
        passed=excess <= 0.0,
    )


@dataclass(frozen=True)
class AlmostAdditivityReport:
    """Worst |phi_{n+m} − phi_n − phi_m∘shiftⁿ| against the 3·log C budget."""

    total_length: int
    log_constant: float
    worst_defect: float
    worst_split: Optional[tuple[int, int]]
    worst_witness: Optional[Word]
    passed: bool


def check_almost_additivity(
    seq: LogMassSequence,
    gibbs_constant: float,
    total_length: int,
) -> AlmostAdditivityReport:
    """Split defects of the log-mass sequence stay within 3·log C, exactly.

    Enumerates every (n, m) with n + m ≤ ``total_length`` and every
    (n+m)-word.  An absolute 1e-12 absorbs float dust only: product measures have
    mathematical defect 0 and constant C = 1, where a literal comparison
    would fail on a ~1e−16 rounding residue.
    """
    if gibbs_constant < 1.0:
        raise ValueError("a Gibbs constant is >= 1")
    if total_length < 2:
        raise ValueError("need total_length >= 2")
    budget = 3.0 * math.log(gibbs_constant)
    worst = -1.0
    split: Optional[tuple[int, int]] = None
    witness: Optional[Word] = None
    for n in range(1, total_length):
        for m in range(1, total_length - n + 1):
            defect, word = almost_additivity_defect(seq, n, m)
            if defect > worst:
                worst, split, witness = defect, (n, m), word
    return AlmostAdditivityReport(
        total_length=total_length,
        log_constant=math.log(gibbs_constant),
        worst_defect=worst,
        worst_split=split,
        worst_witness=witness,
        passed=worst <= budget + 1e-12,
    )
