"""The log-cylinder-mass sequence and its exact verification suite.

Every cylinder-measure oracle μ induces a potential sequence whose n-th
member is ω ↦ log μ(C_{ω₁…ω_n}).  That sequence makes μ a Gibbs measure in
the strongest possible sense — ratio exactly 1, constant exactly 1, pressure
exactly 0 — and inherits quantitative regularity (asymptotic additivity,
almost additivity) from any Gibbs/weak-Gibbs certificate μ carries.  Its
additive approximant ρ is the oracle's ``reference_potential``.  The
checks here verify each of those claims up to a finite depth, exactly over
all admissible words.  Where the oracle has a ``block_chain`` of width b,
three of them read it in place of the kⁿ words: the periodic sums are
matrix powers of its transition matrix, the asymptotic defects are the
(max,+) path extrema of :func:`~thermoshift.measures.certify_weak_gibbs`,
and a split defect is read off the at most 2b symbols around the cut.
The Gibbs-one check, and every check on an oracle without a chain, runs on
the rows of :func:`~thermoshift.sft.word_array` and the oracle's
``mass_words``/``log_mass_words`` over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .measures import (
    CylinderMeasureOracle,
    WeakGibbsCertificate,
    ZeroCylinderMassError,
    _first_max,
    _gibbs_ratio_rows,
    _log_kstar_series,
)
from .potentials import (
    AdditiveSequence,
    LocallyConstantPotential,
    PotentialSequence,
    almost_additivity_defect,
)
from .pressure import PressureEstimate, pressure_limit, transfer_log_sums
from .sft import TransitionSystem, Word, word_array


class LogMassSequence(PotentialSequence):
    """phi_n(ω) = log μ(C of first n symbols); dep(n) = n exactly.

    Values are ≤ 0 (masses are probabilities) and finite on admissible
    words whenever μ is positive on cylinders — :func:`build_log_mass_sequence`
    scans for violations up front.  For an oracle with a block chain the
    periodic pressure sums collapse to matrix powers of its Q in
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
        """A block chain of width b turns the sum at n ≥ b into
        Σ_{s,t} π_s (Q^{n−b})_{st} A[last(t), first(s)], that is
        pi·(Q^{n−b} ∘ return-mask)·1 over block states, read off the powers
        of Q by :func:`~thermoshift.pressure.transfer_log_sums` as absolute
        logs; n < b, and oracles without a chain, enumerate."""
        view = self.oracle.block_chain()
        if view is None:
            return super().periodic_log_sums(n_min, n_max)
        graph, chain = view
        out = super().periodic_log_sums(n_min, min(n_max, graph.width - 1))
        pi, q = chain._arrays
        states = graph.states - 1
        return_mask = self.system.as_array[np.ix_(states[:, -1], states[:, 0])].T.astype(float)
        sums = transfer_log_sums(
            lambda power: power @ q, np.eye(graph.order),
            lambda power: pi @ ((power * return_mask) @ np.ones(graph.order)),
            n_max - graph.width + 1, telescope=False,
        )
        return out + sums[max(0, n_min - graph.width) :]


def build_log_mass_sequence(oracle: CylinderMeasureOracle) -> LogMassSequence:
    """Wrap an oracle as its log-mass sequence, scanning for zero masses.

    Positivity on admissible cylinders is a standing assumption of every
    downstream check; violations up to length 6 (capped at the oracle's
    ``longest_word``) raise :class:`ZeroCylinderMassError` immediately rather
    than surfacing later as −inf values.
    """
    for n in range(1, min(6, oracle.longest_word() or 6) + 1):
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
    """Ratio μ(C_w)/exp(math.log μ(C_w)) across all admissible words up to n_max."""

    n_max: int
    max_rel_error: float
    witness: Optional[Word]
    passed: bool


def check_gibbs_one(seq: LogMassSequence, n_max: int) -> GibbsOneReport:
    """μ(C_w) = exp(log μ(C_w)) with constant 1 and pressure 0, to 1e-14.

    Each mass m of ``mass_words`` is compared with exp(math.log(m)), the
    per-word value of ``value_word``; only that exp∘log round-trip (≤ 2 ulp)
    separates the two.  The check does not read ``values_on_words``: for an
    oracle with a block chain those are folds of log π and log Q along the
    block path, which can differ from math.log(m) in the last bits.  The
    witness is the first worst word in length-then-lexicographic order.  A
    mass that is not positive raises :class:`ZeroCylinderMassError`.
    """
    worst = 0.0
    witness: Optional[Word] = None
    for n in range(1, n_max + 1):
        words, masses = _positive_masses(seq.oracle, n)
        # math, not numpy: np.exp differs from math.exp in the last bit on
        # some inputs; the log compared is math.log of the mass, as in
        # value_word, not the chain fold of values_on_words
        errs = np.array([abs(m / math.exp(math.log(m)) - 1.0) for m in masses.tolist()])
        i = _first_max(errs)
        if errs[i] > worst:
            worst, witness = float(errs[i]), tuple(int(s) for s in words[i])
    passed = worst <= 1e-14
    return GibbsOneReport(n_max, worst, None if passed else witness, passed)


@dataclass(frozen=True)
class PressureZeroReport:
    """Extrapolated periodic-route pressure of the log-mass sequence vs 0;
    ``route`` is "block-chain" or "enumeration" (see ``periodic_log_sums``)."""

    estimate: PressureEstimate
    tolerance: float
    passed: bool
    route: str


def check_pressure_zero(
    seq: LogMassSequence, n_max: int = 20, tol: float = 1e-3
) -> PressureZeroReport:
    """Periodic-route pressure of the log-mass sequence must vanish.

    Each finite-n sum Σ_{cyclic w} μ(C_w), a matrix power on a block chain,
    is at most 1, so the raw values approach 0 from below; the report passes
    when |extrapolated| is within the estimate's error bar plus ``tol``.
    """
    est = pressure_limit("periodic", seq, 1, n_max)
    route = "enumeration" if seq.oracle.block_chain() is None else "block-chain"
    return PressureZeroReport(est, tol, abs(est.extrapolated) <= est.error_bar + tol, route)


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
    ``route`` says how the defects were found: "max-plus" or "enumeration".
    """

    family_index: int
    n_values: tuple[int, ...]
    defects: tuple[float, ...]
    bounds: tuple[float, ...]
    tail_from: int
    worst_tail_excess: float
    passed: bool
    route: str


def check_asymptotic_additivity(
    seq: LogMassSequence,
    target: PotentialSequence,
    p: float,
    k: int,
    n_max: int,
    certificate: WeakGibbsCertificate,
) -> AsymptoticAdditivityReport:
    """(1/n)·sup|log μ(C) − S_n ρ_k + nP| ≤ 1/k + log K*(n)/n on the tail.

    ρ_k is the target's k-th family member, recentred by P.  n·defect(n) is
    log K*(n) against ρ_k by certification's own routine, so against the
    certificate's target (as in psi-verify) it equals its log K*(n) exactly.
    """
    rho = target.family_member(k)
    if rho is None:
        raise ValueError("target sequence declares no approximating family")
    if certificate.n_max < n_max:
        raise ValueError("certificate does not cover the requested range")
    log_sups, fold = _log_kstar_series(seq.oracle, AdditiveSequence(rho), p, n_max)
    ns = range(1, n_max + 1)
    defects = [s / n for n, s in zip(ns, log_sups)]
    bounds = [1.0 / k + certificate.log_k(n) / n for n in ns]
    tail_from = (n_max + 1) // 2
    excess = max(d - b for n, d, b in zip(ns, defects, bounds) if n >= tail_from)
    return AsymptoticAdditivityReport(
        family_index=k,
        n_values=tuple(ns),
        defects=tuple(defects),
        bounds=tuple(bounds),
        tail_from=tail_from,
        worst_tail_excess=excess,
        passed=excess <= 0.0,
        route="enumeration" if fold is None else "max-plus",
    )


@dataclass(frozen=True)
class AlmostAdditivityReport:
    """Worst |phi_{n+m} − phi_n − phi_m∘shiftⁿ| against the 3·log C budget.

    On a block chain of width b ("cut-window" ``route``) the defect of (n, m)
    is that of (min(n, b), min(m, b)) on the symbols around the cut, so the
    worst split has n, m ≤ b and its witness is n + m symbols long.
    """

    total_length: int
    log_constant: float
    worst_defect: float
    worst_split: Optional[tuple[int, int]]
    worst_witness: Optional[Word]
    passed: bool
    route: str


def check_almost_additivity(
    seq: LogMassSequence,
    gibbs_constant: float,
    total_length: int,
) -> AlmostAdditivityReport:
    """Split defects of the log-mass sequence stay within 3·log C, exactly.

    The worst over every (n, m) with n + m ≤ ``total_length``, which on a
    block chain of width b is the worst over n, m ≤ b.  An absolute 1e-12
    absorbs float dust only: product measures have defect 0 and C = 1,
    where a literal comparison would fail on a ~1e−16 rounding residue.
    """
    if gibbs_constant < 1.0:
        raise ValueError("a Gibbs constant is >= 1")
    if total_length < 2:
        raise ValueError("need total_length >= 2")
    budget = 3.0 * math.log(gibbs_constant)
    view = seq.oracle.block_chain()
    b = total_length if view is None else view[0].width
    worst = -1.0
    split: Optional[tuple[int, int]] = None
    witness: Optional[Word] = None
    for n in range(1, min(b, total_length - 1) + 1):
        for m in range(1, min(b, total_length - n) + 1):
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
        route="enumeration" if view is None else "cut-window",
    )
