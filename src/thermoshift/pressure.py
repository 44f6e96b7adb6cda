"""Topological pressure by three routes, with sequence extrapolation.

Routes: cylinder sums (1/n) log Σ_C exp(sup_C S_n φ), periodic-point sums
(1/n) log Σ_{Fix σ^n} exp(φ_n), and the spectral oracle log λ where λ is the
Perron root of the weighted transfer matrix on φ's block graph, which lives
in :mod:`~thermoshift.sft`.  The first two are exact finite-n enumerations;
`pressure_limit` produces the n→∞ extrapolation with an error bar.

Extrapolation detail that matters: the raw values (1/n) log Z_n carry a
β/n error term from the log-prefactor of Z_n ≈ c·λ^n, so accelerating them
directly stalls at that term.  The increments log Z_{n+1} − log Z_n have the
prefactor cancelled and converge geometrically (rate |λ₂/λ₁|), which is the
regime Aitken-type acceleration actually handles; we run the full Wynn
ε-table (iterated Aitken Δ²) on the increments because second eigenvalues
of 3-symbol systems are routinely complex pairs that a single Δ² pass
misfits.  The returned error bar is the spread of the last three raw values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .potentials import (
    AdditiveSequence,
    InexactSequenceError,
    LocallyConstantPotential,
    PotentialSequence,
    _prefix_group_starts,
    asymptotic_defect,
)
from .sft import BlockGraph, Word, block_graph, cyclic_mask, word_array


class EigensolverError(RuntimeError):
    """The Perron solve found no simple dominant eigenvalue with a positive
    eigenvector: a zero image, a residual above tolerance, or a second
    eigenvalue on the spectral circle (an imprimitive matrix)."""


def log_sum_exp(values: np.ndarray) -> float:
    """log Σ exp(v), overflow-safe and permutation-invariant.

    Values are sorted before summation, so any reordering of the input
    produces the bit-identical result.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return -math.inf
    m = float(np.max(v))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.sort(np.exp(v - m)))))


# ---------------------------------------------------------------------------
# Perron solve (shared with the RPF and Parry constructions in module measures)


def power_iteration(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and positive right eigenvector of a primitive matrix.

    One dense eigensolve, no iteration: the eigenvector of the eigenvalue
    with the largest real part is taken as |v| with ||v||_1 = 1, then one
    multiply w = m v gives λ = Σw and the returned vector w/λ.  The answer
    is accepted when ||m ŵ − λ ŵ||_inf ≤ 1e−13·λ.  A second eigenvalue of
    modulus within 1e−9·λ of λ (a periodic or reducible matrix, which the
    residual test alone would pass) raises :class:`EigensolverError`, as do
    a larger residual and a zero image.

    ``m`` must be nonnegative and square; it is assumed primitive (some
    power entrywise positive).  Returns (λ, v) with v > 0 and ||v||_1 = 1.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(m < 0):
        raise ValueError("matrix must be nonnegative")
    values, vectors = np.linalg.eig(m)
    top = int(np.argmax(values.real))
    v = np.abs(vectors[:, top])
    w = m @ (v / v.sum())
    lam = float(w.sum())
    if lam <= 0:
        raise EigensolverError("Perron vector has a zero image")
    # a gap below 1e-9·λ cannot be told from a tie at double precision
    moduli = np.sort(np.abs(values))
    if moduli.size > 1 and moduli[-2] >= (1.0 - 1e-9) * moduli[-1]:
        raise EigensolverError("second eigenvalue on the spectral circle (imprimitive)")
    w /= lam
    if float(np.max(np.abs(m @ w - lam * w))) > 1e-13 * lam:
        raise EigensolverError("Perron residual exceeds 1e-13·λ")
    return lam, w


# ---------------------------------------------------------------------------
# block transfer matrix


@dataclass(frozen=True)
class BlockTransfer:
    """Weighted transfer matrix of a potential on its block graph.

    The graph has width max(depth − 1, 1); the edge u→v carries weight
    exp(φ(first depth symbols of the edge word)).  Row/column order is the
    lexicographic block order, fixed for reproducibility.
    """

    potential: LocallyConstantPotential
    graph: BlockGraph
    weights: np.ndarray  # φ on each edge, in the graph's edge order
    log_edges: np.ndarray  # weights at [src, dst], -inf where no edge
    matrix: np.ndarray  # exp(log_edges), 0 where no edge

    @property
    def blocks(self) -> tuple[Word, ...]:
        return tuple(map(tuple, self.graph.states.tolist()))

    @property
    def order(self) -> int:
        return self.graph.order


def block_transfer(phi: LocallyConstantPotential) -> BlockTransfer:
    graph = block_graph(phi.system, max(phi.depth - 1, 1))
    weights = phi.dense[tuple(graph.edges[:, : phi.depth].T - 1)]
    log_edges = np.full((graph.order, graph.order), -math.inf)
    log_edges[graph.src, graph.dst] = weights
    with np.errstate(over="raise"):
        matrix = np.where(np.isfinite(log_edges), np.exp(log_edges), 0.0)
    return BlockTransfer(phi, graph, weights, log_edges, matrix)


def _row_weight_split(bt: BlockTransfer) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(a, A) with matrix = diag(a)·A when every row's finite entries agree.

    True for depth-1 potentials (the edge weight reads only the source
    symbol).  The factored product a ∘ (A v) sums the iterate *before* the
    single multiply, so weight systems with Σa exactly 1.0 keep their
    iterates bit-exact — the per-entry products of diag(a)·A @ v would
    scatter 1-ulp dust into every step.
    """
    finite = np.isfinite(bt.log_edges)
    top = bt.log_edges.max(axis=1)
    if np.any(top != np.where(finite, bt.log_edges, math.inf).min(axis=1)):
        return None
    # math.exp, not np.exp: the two can differ in the last bit
    return np.array([math.exp(x) for x in top.tolist()]), finite.astype(float)


def _step(w: np.ndarray, split: Optional[tuple[np.ndarray, np.ndarray]], v: np.ndarray) -> np.ndarray:
    if split is None:
        return w @ v
    a, adj = split
    return a * (adj @ v) if v.ndim == 1 else a[:, None] * (adj @ v)


_RESCALE = 2.0**512


def _ratio_vector_logs(
    w: np.ndarray, split, v0: np.ndarray, base: float, steps: int
) -> list[float]:
    """[log(1ᵀ wʳ v₀)]_{r=0..steps} via telescoped per-step growth ratios.

    Each log Z is assembled by fsum over [base, log c₁, …], so windows whose
    ratios are exact constants (φ = 0, Bernoulli log-weights) yield log Z_n
    that divide back to the constant bit-exactly.  Rescaling, when the
    iterate leaves the comfortable range, is by powers of two — exact, and
    invisible to the ratios since numerator and denominator share the scale.
    """
    v = v0.copy()
    terms = [base + math.log(float(v.sum()))]
    out = [math.fsum(terms)]
    for _ in range(steps):
        prev = float(v.sum())
        v = _step(w, split, v)
        cur = float(v.sum())
        if cur <= 0:
            raise ValueError("transfer iterate vanished (disconnected block graph?)")
        terms.append(math.log(cur / prev))
        out.append(math.fsum(terms))
        peak = float(np.max(v))
        if peak > _RESCALE or peak < 1.0 / _RESCALE:
            v = v * math.ldexp(1.0, -math.frexp(peak)[1])
    return out


def _power_trace_logs(w: np.ndarray, split, n_max: int) -> list[float]:
    """[log trace(wⁿ)]_{n=1..n_max}, ratio-telescoped when no trace vanishes.

    Vanishing traces (mixing systems without low-period points) force the
    absolute form log(trace) + exponent·log 2 for every n; otherwise the
    fsum-of-ratios form is used for the same exactness reason as the
    cylinder path.
    """
    traces: list[float] = []
    exponents: list[int] = []
    a = w.copy()
    shift = 0
    for _ in range(n_max):
        traces.append(float(np.trace(a)))
        exponents.append(shift)
        a = _step(w, split, a)
        peak = float(np.max(a))
        if peak <= 0:
            raise ValueError("transfer power vanished")
        if peak > _RESCALE or peak < 1.0 / _RESCALE:
            exponent = math.frexp(peak)[1]
            a *= math.ldexp(1.0, -exponent)
            shift += exponent
    if all(t > 0 for t in traces):
        terms = [math.log(traces[0]) + exponents[0] * math.log(2)]
        out = [math.fsum(terms)]
        for i in range(1, n_max):
            terms.append(
                math.log(traces[i] / traces[i - 1])
                + (exponents[i] - exponents[i - 1]) * math.log(2)
            )
            out.append(math.fsum(terms))
        return out
    return [
        math.log(t) + e * math.log(2) if t > 0 else -math.inf
        for t, e in zip(traces, exponents)
    ]


# ---------------------------------------------------------------------------
# the three pressure routes (exact finite-n contracts)


def pressure_cylinder(phi: LocallyConstantPotential, n: int) -> float:
    """(1/n) log Σ over admissible n-words of exp(sup over the cylinder of S_n φ).

    The sup is exact: S_n φ reads n + depth − 1 symbols, so it is maximized
    over the (depth−1)-symbol admissible extensions of each n-word.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = phi.system
    d = phi.depth
    words = word_array(ts, n + d - 1)
    sums = phi.values_on_windows(words, n)
    if d > 1:
        sums = np.maximum.reduceat(sums, _prefix_group_starts(words, n))
    return log_sum_exp(sums) / n


def pressure_periodic(seq: Union[PotentialSequence, LocallyConstantPotential], n: int) -> float:
    """(1/n) log Σ over points of period n of exp(φ_n), exact enumeration.

    Defined only on topologically mixing systems (refused otherwise); this
    is the periodic-point route to P(Φ) and the only route available to
    non-additive sequences.  Returns −inf when Fix(σⁿ) is empty (possible
    at small n on mixing systems without fixed points).
    """
    if isinstance(seq, LocallyConstantPotential):
        seq = AdditiveSequence(seq)
    if n < 1:
        raise ValueError("n must be >= 1")
    L = seq.dep(n)
    if L is None:
        raise InexactSequenceError("periodic pressure needs a dependence length")
    ts = seq.system
    ts.require_mixing()
    words = word_array(ts, n)
    cyc = words[cyclic_mask(ts, words)]
    if cyc.shape[0] == 0:
        return -math.inf
    if L > n:
        # the point of period n repeats its cyclic word out to the dep(n)
        # symbols phi_n reads
        cyc = cyc[:, np.arange(L) % n]
    return log_sum_exp(seq.values_on_words(n, cyc)) / n


def pressure_spectral(phi: LocallyConstantPotential) -> float:
    """log of the Perron root of the block transfer matrix (the exact limit).

    Requires a mixing system; the root comes from one direct Perron solve
    (:func:`power_iteration`), which raises :class:`EigensolverError` when
    its residual or spectral-gap test fails.
    """
    phi.system.require_mixing()
    lam, _ = power_iteration(block_transfer(phi).matrix)
    return math.log(lam)


# ---------------------------------------------------------------------------
# extrapolation


def _wynn_even_tails(q: Sequence[float]) -> list[float]:
    """Last entries of the even ε-table columns built over q.

    Column 2 is classical Aitken Δ²; higher even columns iterate it.  The
    walk stops as soon as a difference underflows 1e-300 (the remaining
    columns would amplify noise).
    """
    e_prev = [0.0] * (len(q) + 1)
    e_cur = [float(x) for x in q]
    tails = [e_cur[-1]]
    col = 0
    while len(e_cur) >= 2:
        nxt = []
        for i in range(len(e_cur) - 1):
            d = e_cur[i + 1] - e_cur[i]
            if abs(d) < 1e-300:
                return tails
            nxt.append(e_prev[i + 1] + 1.0 / d)
        e_prev, e_cur = e_cur, nxt
        col += 1
        if col % 2 == 0 and e_cur:
            tails.append(e_cur[-1])
    return tails


def _accelerate(q: Sequence[float]) -> float:
    """Limit estimate for a convergent sequence q via the ε-table.

    Candidate per even column; the winner is the one that moved least from
    its predecessor (consecutive-agreement selection), which keeps the
    deep-column noise amplification from being mistaken for convergence.
    """
    if len(q) == 1:
        return float(q[0])
    tails = _wynn_even_tails(q)
    if len(tails) == 1:
        return tails[0]
    agreement = [abs(q[-1] - q[-2])]
    agreement += [abs(b - a) for a, b in zip(tails, tails[1:])]
    return tails[int(np.argmin(agreement))]


@dataclass(frozen=True)
class PressureEstimate:
    """Finite-n pressure values with an extrapolated limit and error bar.

    ``method`` is one of cylinder/periodic/spectral; the spectral route is
    already the limit, so it carries no finite-n values and a zero bar.
    """

    method: str
    finite_n_values: tuple[tuple[int, float], ...]
    extrapolated: float
    error_bar: float

    def __post_init__(self) -> None:
        if self.method not in ("cylinder", "periodic", "spectral"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "spectral":
            if self.finite_n_values or self.error_bar != 0.0:
                raise ValueError("spectral estimates are exact: no finite-n data")
        elif not self.finite_n_values:
            raise ValueError("finite-n methods need at least one value")
        if self.error_bar < 0:
            raise ValueError("error_bar must be >= 0")


def _estimate_from_log_sums(method: str, ns: list[int], log_z: list[float]) -> PressureEstimate:
    """Assemble a PressureEstimate from log Z_n values.

    Extrapolates the increments of the longest finite, consecutive-n suffix;
    with a single usable value the estimate falls back to that raw value.
    """
    raw = tuple((n, lz / n) for n, lz in zip(ns, log_z))
    start = len(ns) - 1
    while (
        start > 0
        and math.isfinite(log_z[start - 1])
        and ns[start] - ns[start - 1] == 1
    ):
        start -= 1
    usable = log_z[start:]
    if not math.isfinite(usable[-1]):
        raise ValueError("no usable finite values (empty periodic sums throughout)")
    finite_raw = [p for _, p in raw if math.isfinite(p)]
    if finite_raw and all(p == finite_raw[0] for p in finite_raw):
        # a constant sequence is its own limit; taking increments of the
        # rounded log Z_n would reintroduce the ulp dust the ratio route
        # was built to avoid
        extrapolated = finite_raw[0]
    elif len(usable) >= 2:
        increments = [b - a for a, b in zip(usable, usable[1:])]
        extrapolated = _accelerate(increments)
    else:
        extrapolated = raw[-1][1]
    last = finite_raw[-3:]
    error_bar = max(last) - min(last) if last else math.inf
    return PressureEstimate(method, raw, extrapolated, error_bar)


def _additive_log_sums(
    phi: LocallyConstantPotential, method: str, n_min: int, n_max: int
) -> tuple[list[int], list[float]]:
    """log Z_n for n in [n_min, n_max] via scaled transfer-matrix products.

    Exact-equivalent to the enumeration ops (tested against them), but
    O(n·k^{2(d−1)}) instead of O(kⁿ).
    """
    bt = block_transfer(phi)
    split = _row_weight_split(bt)
    ns = list(range(n_min, n_max + 1))
    if method == "cylinder":
        # g(u) = max over D further edges out of u of their φ sum: the sup
        # over cylinder extensions of the trailing windows of S_n φ
        lead = bt.graph.width  # D, the symbols inside the end weights
        g = np.zeros(bt.order)
        for _ in range(lead):
            g = bt.graph.step(g, bt.weights, backward=True)
        scale = float(np.max(g)) if abs(float(np.max(g))) > 300.0 else 0.0
        v0 = np.exp(g - scale)
        sums = _ratio_vector_logs(bt.matrix, split, v0, scale, max(0, n_max - lead))
        # sums[r] = log Z_{lead + r}; for n < lead fall back to enumeration
        out = []
        for n in ns:
            if n < lead:
                out.append(n * pressure_cylinder(phi, n))
            else:
                out.append(sums[n - lead])
        return ns, out
    if method == "periodic":
        phi.system.require_mixing()
        traces = _power_trace_logs(bt.matrix, split, n_max)
        return ns, [traces[n - 1] for n in ns]
    raise ValueError(f"unknown finite-n method {method!r}")


def pressure_limit(
    method: str,
    target: Union[LocallyConstantPotential, PotentialSequence],
    n_min: int = 1,
    n_max: int = 20,
) -> PressureEstimate:
    """Finite-n pressure sequence plus extrapolated limit and error bar.

    method "spectral" (additive targets only) returns the eigenvalue route
    directly.  For "cylinder" and "periodic", additive targets use the
    transfer-matrix fast path; other sequences give their own
    ``periodic_log_sums`` (an exact enumeration per n unless they override it).
    """
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    if isinstance(target, AdditiveSequence):
        phi: Optional[LocallyConstantPotential] = target.potential
    elif isinstance(target, LocallyConstantPotential):
        phi = target
    else:
        phi = None
    if method == "spectral":
        if phi is None:
            raise ValueError("spectral pressure requires an additive target")
        return PressureEstimate("spectral", (), pressure_spectral(phi), 0.0)
    if phi is not None:
        ns, log_z = _additive_log_sums(phi, method, n_min, n_max)
        return _estimate_from_log_sums(method, ns, log_z)
    if method == "cylinder":
        raise ValueError(
            "cylinder pressure needs exact cylinder suprema and is defined "
            "here for additive targets only; use the periodic route for "
            "general sequences"
        )
    if method != "periodic":
        raise ValueError(f"unknown method {method!r}")
    ns = list(range(n_min, n_max + 1))
    return _estimate_from_log_sums(method, ns, target.periodic_log_sums(n_min, n_max))


# ---------------------------------------------------------------------------
# approximation bracket (additive-family comparison)


@dataclass(frozen=True)
class FamilyBracketReport:
    """P(ρ_k) ± 2ε̄ bracket test for a sequence with an approximating family.

    ε̄ is the worst normalized defect (1/n)·sup|φ_n − S_nρ_k| over the tail
    half of the window; ``passed`` means the extrapolated sequence pressure
    lies within the bracket widened by the estimate's own error bar.
    """

    family_index: int
    epsilon_bar: float
    family_pressure: float
    sequence_estimate: PressureEstimate
    passed: bool


def family_pressure_bracket(
    seq: PotentialSequence, family_index: int, n_max: int
) -> FamilyBracketReport:
    """Check P(ρ_k) − 2ε̄ ≤ P(Φ) ≤ P(ρ_k) + 2ε̄ at finite horizon."""
    rho = seq.family_member(family_index)
    if rho is None:
        raise ValueError("sequence declares no approximating family")
    lo = max(1, n_max // 2)
    eps = max(asymptotic_defect(seq, rho, n) for n in range(lo, n_max + 1))
    p_rho = pressure_spectral(rho)
    est = pressure_limit("periodic", seq, 1, n_max)
    slack = 2.0 * eps + est.error_bar + 1e-12
    passed = p_rho - slack <= est.extrapolated <= p_rho + slack
    return FamilyBracketReport(family_index, eps, p_rho, est, passed)
