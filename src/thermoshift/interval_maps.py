"""Expanding Markov interval maps: coding, inverse branches, diameters.

A map here is a finite family of monotone expanding branches on disjoint
closed subintervals of [0,1], coded by a mixing transition system: branch i
covers exactly the branch domains allowed by row i.  Two subclasses:

* ``piecewise_linear`` — each branch is the affine increasing map onto the
  hull of its targets.  Everything about these maps (cylinder intervals,
  diameters, slopes) is closed-form, and the diameter obeys the product law
  D_n(w) = |I_{w_n}| · Π_{j<n} 1/s_{w_j} exactly.
* ``general`` — branches given as array callables with derivative callables.
  Inverse branches are solved by a bracket-safeguarded Newton iteration
  until the root is bracketed within 1 ulp, and the expansion condition is
  checked on a sample grid only, so these maps are flagged non-certified.

Every reader of log D_n goes through one law, ``log_diameters`` (every
prefix of every row: product law if linear, else the log width of the window
pulled back by :func:`_prefix_windows`, the module's only pull-back).

Real coordinates appear only through interval endpoints; all dynamics runs
on words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .potentials import LocallyConstantPotential
from .sft import TransitionSystem, Word

_GEOMETRY_TOL = 1e-9
# endpoint pairs (rows × n_max²) one chunk of the sampled diameter sweep holds
_SWEEP_CELLS = 1 << 18
# iterations of the safeguarded Newton inverse: bisection alone needs ≤ ~60,
# and a badly wrong derivative can interleave as many Newton steps
_NEWTON_CAP = 200


class InverseBranchError(RuntimeError):
    """Inverse-branch root finding failed to bracket or converge."""


def _branch_values(fns, groups, x: np.ndarray) -> np.ndarray:
    """fns[i](x) elementwise, one call per (i, index) group."""
    out = np.empty(x.shape)
    for i, mask in groups:
        out[mask] = fns[i](x[mask])
    return out


class ExpandingMarkovMap:
    """Branch data plus coding; see the module docstring for the two kinds.

    General branches are solved for many points at once, so every ``fn``
    and ``dfn`` must accept a float64 array and act elementwise (plain
    NumPy arithmetic does; a scalar result stands for a constant, as in
    ``lambda x: 2.0``).  The constructor evaluates each callable on the
    expansion grid in one call and refuses, with ``ValueError``, one that
    only takes Python floats.
    """

    def __init__(
        self,
        coding: TransitionSystem,
        domains: Sequence[tuple[float, float]],
        branch_fns: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None,
        branch_dfns: Optional[Sequence[Callable[[np.ndarray], np.ndarray]]] = None,
    ):
        coding.require_mixing()
        if len(domains) != coding.k:
            raise ValueError("one branch domain per symbol")
        doms = tuple((float(l), float(r)) for l, r in domains)
        for l, r in doms:
            if not (0.0 <= l < r <= 1.0):
                raise ValueError(f"branch domain ({l}, {r}) is not a subinterval of [0,1]")
        for (l0, r0), (l1, r1) in zip(doms, doms[1:]):
            if r0 > l1:
                raise ValueError("branch domains must be disjoint and ordered")
        self.coding = coding
        self.domains = doms
        if branch_fns is None:
            # piecewise-linear: branch i is affine increasing onto the hull
            # of the domains allowed by row i of the transition matrix
            self.kind = "piecewise_linear"
            self.certified = True
            self.branch_fns = None
            self.branch_dfns = None
            images = []
            for i in range(coding.k):
                targets = [j for j in range(coding.k) if coding.matrix[i][j]]
                images.append((doms[targets[0]][0], doms[targets[-1]][1]))
            self.images = tuple(images)
            self.slopes = tuple(
                (b - a) / (r - l) for (a, b), (l, r) in zip(self.images, doms)
            )
            for i, s in enumerate(self.slopes):
                if not s > 1.0:
                    raise ValueError(
                        f"branch {i + 1} has slope {s} <= 1; linear branches must expand"
                    )
        else:
            if branch_dfns is None or len(branch_fns) != coding.k or len(branch_dfns) != coding.k:
                raise ValueError("general maps need one (fn, dfn) pair per symbol")
            self.kind = "general"
            self.certified = False
            self.branch_fns = fns = tuple(branch_fns)
            self.branch_dfns = dfns = tuple(branch_dfns)
            self.slopes = None
            images = []
            for i, (l, r) in enumerate(doms):
                images.append(tuple(sorted((fns[i](l), fns[i](r)))))
                grid = np.linspace(l, r, 101)
                try:
                    _, dfn = (np.broadcast_to(f[i](grid), grid.shape) for f in (fns, dfns))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"branch {i + 1} is not elementwise on arrays: {exc}") from exc
                worst = float(np.min(np.abs(dfn)))
                if not worst >= 1.0 - 1e-12:  # NaN fails too
                    raise ValueError(
                        f"branch {i + 1} does not expand: min |T'| = {worst} on the sample grid"
                    )
            self.images = tuple(images)
        self._check_markov_geometry()

    def _check_markov_geometry(self) -> None:
        """Image hull of branch i must span exactly the domains of row i."""
        for i, (a, b) in enumerate(self.images):
            targets = [j for j in range(self.coding.k) if self.coding.matrix[i][j]]
            lo = self.domains[targets[0]][0]
            hi = self.domains[targets[-1]][1]
            if not (abs(a - lo) <= _GEOMETRY_TOL and abs(b - hi) <= _GEOMETRY_TOL):  # NaN fails
                raise ValueError(
                    f"branch {i + 1} image ({a}, {b}) does not span its allowed "
                    f"domains ({lo}, {hi})"
                )
            for j, (l, r) in enumerate(self.domains):
                overlaps = min(b, r) - max(a, l) > _GEOMETRY_TOL
                if overlaps and j not in targets:
                    raise ValueError(
                        f"branch {i + 1} image covers forbidden domain {j + 1}"
                    )

    def inverse(self, symbols: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Preimages of the points y under the branches ``symbols``, elementwise.

        Linear branches invert affinely.  General branches run a safeguarded
        Newton solve (``rtsafe``): start from the branch's chord, keep a sign
        bracket (monotonicity brackets the root in either orientation), and
        take the Newton step only when it lands inside the bracket and at
        most halves the previous step, else bisect.  Every step is at least
        1 ulp, so a solve that nears the root from one side probes past it.
        The solve stops when f(x) = y or the root is bracketed within 1 ulp
        of x, never on step size alone (a wrong ``dfn`` makes steps small far
        from the root), and raises ``InverseBranchError`` when neither
        happens within ``_NEWTON_CAP`` iterations; one last Newton step,
        clipped to the bracket, then gives the answer.  Each element is
        frozen once it converges and runs the float operations of a lone
        solve, so no result depends on the batch it came in.
        """
        s = np.asarray(symbols, dtype=np.intp).ravel() - 1
        y = np.asarray(y, dtype=float).ravel()
        (lo, hi), (l, r) = np.array(self.images)[s].T, np.array(self.domains)[s].T
        outside = np.flatnonzero(~((lo - 1e-9 <= y) & (y <= hi + 1e-9)))
        if len(outside):
            i = outside[0]
            raise InverseBranchError(
                f"{float(y[i])} is outside the image of branch {int(s[i]) + 1} "
                f"({float(lo[i])}, {float(hi[i])})"
            )
        if self.kind == "piecewise_linear":
            return (l + (y - lo) / np.array(self.slopes)[s]).reshape(np.shape(symbols))
        order = np.argsort(s, kind="stable")  # each branch's elements become one slice
        s, y, l, r = s[order], y[order], l[order], r[order]
        cut = np.searchsorted(s, np.arange(self.coding.k + 1))
        groups = [(i, slice(cut[i], cut[i + 1])) for i in range(self.coding.k)]
        fns, dfns = self.branch_fns, self.branch_dfns
        fl, fr = _branch_values(fns, groups, l), _branch_values(fns, groups, r)
        x = np.minimum(np.maximum(l + (y - fl) / (fr - fl) * (r - l), l), r)
        a, b, last, rising = l, r, r - l, fr >= fl
        for _ in range(_NEWTON_CAP):
            g = _branch_values(fns, groups, x) - y
            up = (g < 0) == rising  # the root lies above x
            a, b, ulp = np.where(up, x, a), np.where(up, b, x), np.spacing(np.abs(x))
            live = (g != 0) & (b - a > ulp)
            if not live.any():
                break
            dx = g / _branch_values(dfns, groups, x)
            dx = np.copysign(np.maximum(np.abs(dx), ulp), dx)  # ≥ 1 ulp: probes past the root
            # steps of 2 ulp always pass the halving test: rounding in f decides them
            newton = (a < x - dx) & (x - dx < b) & (np.abs(dx) <= np.maximum(0.5 * last, 2 * ulp))
            nxt = np.where(newton, x - dx, 0.5 * (a + b))
            last, x = np.abs(nxt - x), np.where(live, nxt, x)
        else:
            raise InverseBranchError(f"Newton solve stalled inverting branch {int(s[live][0]) + 1}")
        # x is a bracket end, biased to the side the solve last stepped to; a
        # last Newton step kept inside the bracket rounds to the root instead
        x = np.minimum(np.maximum(x - g / _branch_values(dfns, groups, x), a), b)
        out = np.empty(x.shape)
        out[order] = x
        return out.reshape(np.shape(symbols))

    def log_diameters(self, words: np.ndarray) -> np.ndarray:
        """log D_n of every prefix of every row: entry [i, n − 1] is log D_n(words[i, :n]).

        Linear maps: the product law log|I_{w_n}| − S_{n−1}γ(w), γ = log slope,
        summed left to right (no underflow or cancellation at any n).  General
        maps: log(hi − lo) of the windows that :func:`_prefix_sweep` pulls back.
        """
        if self.kind == "general":
            return _prefix_sweep(self, words, lambda words, ends, log_d: log_d)
        s = words - 1
        log_slopes = _log(np.array(self.slopes))[s[:, :-1]]
        prior = np.cumsum(np.hstack([np.zeros((len(s), 1)), log_slopes]), axis=1)
        return _log(np.array([r - l for l, r in self.domains]))[s] - prior

    def slope_potential(self) -> LocallyConstantPotential:
        """γ(ω) = log slope(ω₁), the depth-1 expansion potential (linear maps)."""
        if self.kind != "piecewise_linear":
            raise ValueError("only linear maps have a locally constant log-derivative")
        return LocallyConstantPotential(
            self.coding,
            1,
            {(i + 1,): math.log(s) for i, s in enumerate(self.slopes)},
        )


# ---------------------------------------------------------------------------
# ready-made maps


def full_branch_linear(slopes: Sequence[float]) -> ExpandingMarkovMap:
    """Full-shift linear map with the given slopes, branches onto [0,1].

    Domain widths are the inverse slopes; any slack is split into equal
    gaps between consecutive domains (a cookie-cutter when gaps are
    positive).  Needs Σ 1/s_i ≤ 1 and at least two branches.
    """
    s = tuple(float(x) for x in slopes)
    if len(s) < 2:
        raise ValueError("need at least two branches")
    widths = [1.0 / x for x in s]
    slack = 1.0 - sum(widths)
    if slack < -1e-12:
        raise ValueError("inverse slopes exceed unit length")
    gap = max(slack, 0.0) / (len(s) - 1)
    domains = []
    left = 0.0
    for i, w in enumerate(widths):
        right = 1.0 if i == len(s) - 1 else left + w
        domains.append((left, right))
        left = right + gap
    return ExpandingMarkovMap(TransitionSystem.full_shift(len(s)), domains)


def doubling_map() -> ExpandingMarkovMap:
    """Slopes (2,2) on [0,1/2], [1/2,1]: the binary coding workhorse."""
    return full_branch_linear((2.0, 2.0))


def golden_mean_linear() -> ExpandingMarkovMap:
    """Linear map coded by the golden-mean shift.

    Split point a = (√5−1)/2: branch 1 maps [0,a] onto [0,1], branch 2 maps
    [a,1] onto [0,a], both with slope (1+√5)/2.  Its second branch image has
    width a < 1, so the diameter product law carries a last-symbol hull
    factor and the comparison defect decays like |log a|/n instead of
    vanishing.
    """
    a = (math.sqrt(5.0) - 1.0) / 2.0
    return ExpandingMarkovMap(TransitionSystem.golden_mean(), ((0.0, a), (a, 1.0)))


def perturbed_doubling(c: float = 0.8) -> ExpandingMarkovMap:
    """C¹ doubling map with a quadratic kink on the first branch.

    T(x) = 2x + c·x·(1/2 − x) on [0, 1/2] and 2x − 1 on [1/2, 1]; for
    c ∈ (0, 2) both branches expand strictly (min slope 2 − c/2) and map
    onto [0,1].  The first branch has genuinely nonconstant derivative, so
    cylinder diameters pick up a bounded distortion and the comparison
    defect M(n) decays like 1/n without being exactly zero.
    """
    if not 0.0 < c < 2.0:
        raise ValueError("the perturbation parameter must lie in (0, 2)")
    fns = (lambda x: 2.0 * x + c * x * (0.5 - x), lambda x: 2.0 * x - 1.0)
    dfns = (lambda x: 2.0 + 0.5 * c - 2.0 * c * x, lambda x: 2.0)
    return ExpandingMarkovMap(TransitionSystem.full_shift(2), ((0.0, 0.5), (0.5, 1.0)), fns, dfns)


# ---------------------------------------------------------------------------
# diameter-vs-Birkhoff comparison


@dataclass(frozen=True)
class UjrReport:
    """M(n) = (1/n)·max_w |log D_n(w) + S_n γ(w)| with γ = log|T′|.

    The sign convention once and for all: diameters shrink, so log D_n is
    negative and the Birkhoff sum of the positive expansion potential γ
    enters with a plus; |log D_n + S_n γ| = |log D_n − S_n(−γ)|.  Linear
    maps give exact maxima over all admissible n-words (a closed form in the
    last symbol); general maps are evaluated on seeded sample itineraries
    with the per-n spread of sampled defects reported, and are not
    certified.  The verdict requires M(n) nonincreasing on the tail half.
    """

    kind: str
    certified: bool
    n_values: tuple[int, ...]
    m_values: tuple[float, ...]
    sampling_spread: Optional[tuple[float, ...]]
    tail_from: int
    passed: bool


def check_ujr(
    emap: ExpandingMarkovMap,
    n_max: int,
    sample_size: int = 40,
    seed: int = 0,
) -> UjrReport:
    """Exact (linear) or sampled (general) comparison defect per n ≤ n_max.

    For linear maps the product law gives log D_n(w) + S_nγ(w) = log D_1(w_n)
    + log s_{w_n}: M(n) is the largest |entry| of that k-vector over the
    symbols that can end an admissible n-word, tracked by one boolean step
    of the transition matrix per n (O(k²) per n, not kⁿ words).  Full-image
    maps, whose two logs cancel, report exactly 0.0.  For general maps,
    ``sample_size`` itineraries of length n_max are drawn once from the
    seed and every prefix of every itinerary is scored by one batched sweep.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    ns = tuple(range(1, n_max + 1))
    spread: Optional[tuple[float, ...]] = None
    if emap.kind == "piecewise_linear":
        log_d1 = emap.log_diameters(np.arange(1, emap.coding.k + 1)[:, None])[:, 0]
        defect = np.abs(log_d1 + _log(np.array(emap.slopes)))
        step = emap.coding.as_array > 0
        ends = np.ones(emap.coding.k, dtype=bool)
        m_values = []
        for n in ns:
            m_values.append(float(defect[ends].max()) / n)
            ends = step[ends].any(axis=0)
    else:
        rng = np.random.default_rng(seed)
        paths = np.array([_sample_itinerary(emap.coding, n_max, rng) for _ in range(sample_size)])
        per_path = _prefix_sweep(emap, paths, lambda *item: _endpoint_defects(emap, *item))
        top, bottom = per_path.max(axis=0), per_path.min(axis=0)
        m_values = [float(top[i]) / n for i, n in enumerate(ns)]
        spread = tuple(float(top[i] - bottom[i]) / n for i, n in enumerate(ns))
    tail_from = (n_max + 1) // 2
    tail = m_values[tail_from - 1 :]
    passed = all(b <= a for a, b in zip(tail, tail[1:]))
    return UjrReport(
        kind=emap.kind,
        certified=emap.certified,
        n_values=ns,
        m_values=tuple(m_values),
        sampling_spread=spread,
        tail_from=tail_from,
        passed=passed,
    )


def _sample_itinerary(ts: TransitionSystem, n: int, rng: np.random.Generator) -> Word:
    word = [int(rng.integers(1, ts.k + 1))]
    for _ in range(n - 1):
        succ = ts.successors(word[-1])
        word.append(succ[int(rng.integers(0, len(succ)))])
    return tuple(word)


def _prefix_sweep(emap: ExpandingMarkovMap, words: np.ndarray, score) -> np.ndarray:
    """score(item words, ends, log D_n) of the :func:`_prefix_windows` items,
    as entry [i, n − 1] for words[i, :n]; rows go in chunks of at most
    ``_SWEEP_CELLS`` endpoint pairs, so memory grows with n_max², not rows."""
    count, n_max = words.shape
    rows = max(1, _SWEEP_CELLS // n_max**2)
    out = []
    for i in range(0, count, rows):
        item_words, ends = _prefix_windows(emap, words[i : i + rows])
        log_d = _log(ends[:, 0, 1] - ends[:, 0, 0])
        out.append(score(item_words, ends, log_d).reshape(n_max, -1)[::-1].T)
    return np.vstack(out)


def _endpoint_defects(
    emap: ExpandingMarkovMap, words: np.ndarray, ends: np.ndarray, log_d: np.ndarray
) -> np.ndarray:
    """max endpoint-orbit |log D_n + S_n γ| of each :func:`_prefix_windows` item.

    The two representatives are the cylinder's endpoints: their orbits are
    exactly the suffix-window endpoints (an endpoint maps to an endpoint,
    with orientation tracked through decreasing branches), so no forward
    float iteration is needed — forward orbits of points known to ~1e−16
    lose all cylinder information after ~50 doublings.  Taking the max of
    the two endpoint defects tracks the within-cylinder distortion
    envelope, which is the quantity with the clean ~V/n decay; a single
    interior representative sits at an uncontrolled depth inside that
    envelope and wobbles across n by more than the 1/n² decrements tested.
    The log-derivative sums run left to right as vector adds.
    """
    items, n_max = words.shape
    sums = np.zeros((items, 2))
    rising = np.ones(items, dtype=bool)
    for j in range(n_max):
        live = items // n_max * (n_max - j)
        s = np.repeat(words[:live, j, None] - 1, 2, axis=1)
        groups = [(i, s == i) for i in range(emap.coding.k)]
        pair = ends[:live, j]
        x = np.where(rising[:live, None], pair, pair[:, ::-1])
        sums[:live] += _log(np.abs(_branch_values(emap.branch_dfns, groups, x)))
        image = _branch_values(emap.branch_fns, groups, pair)
        rising[:live] ^= image[:, 0] > image[:, 1]
    return np.abs(log_d[:, None] + sums).max(axis=1)


def _prefix_windows(emap: ExpandingMarkovMap, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix windows I(w_j..w_n), as (lo, hi), of every prefix of every row.

    Item (n_max − n)·count + i is row i's prefix of length n.  Longest go
    first, so the items still being pulled back at step t are a leading
    slice, moved by one ``inverse`` call.  Returns item words, ends[item, j].
    """
    count, n_max = words.shape
    lengths = np.repeat(np.arange(n_max, 0, -1), count)
    words = np.tile(words, (n_max, 1))
    items = np.arange(len(lengths))
    ends = np.empty((len(lengths), n_max, 2))
    ends[items, lengths - 1] = cur = np.array(emap.domains)[words[items, lengths - 1] - 1]
    for t in range(1, n_max):
        live = items[: count * (n_max - t)]
        j = lengths[live] - 1 - t
        cur = np.sort(emap.inverse(np.repeat(words[live, j, None], 2, axis=1), cur[live]), axis=1)
        ends[live, j] = cur
    return words, ends


def _log(x: np.ndarray) -> np.ndarray:
    """math.log elementwise: np.log can differ from it by an ulp on SIMD builds."""
    return np.array(list(map(math.log, x.ravel().tolist()))).reshape(x.shape)
