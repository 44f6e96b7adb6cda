"""Topological pressure by three routes, with sequence extrapolation.

Routes: cylinder sums (1/n) log Σ_C exp(sup_C S_n φ), periodic-point sums
(1/n) log Σ_{Fix σ^n} exp(φ_n), and the spectral oracle log λ where λ is the
Perron root of the weighted transfer matrix on φ's block graph, which lives
in :mod:`~thermoshift.sft`.  The first two are exact finite-n enumerations;
`pressure_limit` produces the n→∞ extrapolation with an error bar.

On additive targets both finite-n routes, and the log-mass chain powers of
:mod:`~thermoshift.log_mass`, run one rescaled sum-product loop,
:func:`transfer_log_sums`, on the dense block transfer matrix.  When
|max φ| > 300 that matrix is exp(φ − max φ), which can neither overflow nor
vanish, and every route adds max φ back once per step.

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
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .potentials import (
    AdditiveSequence,
    InexactSequenceError,
    LocallyConstantPotential,
    PotentialSequence,
    _edge_weights,
    _prefix_group_starts,
)
from .sft import BlockGraph, _wielandt_bound, cyclic_mask, word_array


class EigensolverError(RuntimeError):
    """The Perron solve found no simple dominant eigenvalue with a positive
    eigenvector: a zero image, or a residual above tolerance or a second
    eigenvalue on the spectral circle that no Collatz–Wielandt bracket on a
    primitive support overrules."""


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
# Perron solve (read by pressure_spectral here and by build_rpf in measures)


# the least order at which iterating first beats one dense eig (BENCH_perron.json)
_ITERATE_ORDER = 32
# bracketed steps from eig's vector where its own tests refuse
_RESCUE_STEPS = 100


def _primitive_support(m: np.ndarray) -> bool:
    """Whether some power of m is entrywise positive: Boolean squaring up to
    the least power of two at or above the Wielandt bound, stopping at the
    first positive one."""
    b = (m > 0).astype(float)
    for _ in range((_wielandt_bound(m.shape[0]) - 1).bit_length()):
        if b.all():
            return True
        b = ((b @ b) > 0).astype(float)
    return bool(b.all())


def _bracketed(m: np.ndarray, v: np.ndarray, steps: int) -> Optional[tuple[float, np.ndarray]]:
    """(λ, w/λ) with w = m v and λ = Σw at the first of ``steps`` iterates
    v ← w/λ whose Collatz–Wielandt bracket (Collatz 1942; Wielandt 1950)
    min ≤ λ ≤ max of wᵢ/vᵢ is within 1e−13·λ and whose w/λ passes the residual
    test; None when no iterate does, or one leaves v > 0.  ``v`` sums to 1.
    """
    if not np.all(v > 0):
        return None
    for _ in range(steps):
        w = m @ v
        lam = float(w.sum())
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        if lo <= 0:  # w, the next v, has a zero entry
            return None
        w /= lam
        if hi - lo <= 1e-13 * lam and float(np.max(np.abs(m @ w - lam * w))) <= 1e-13 * lam:
            return lam, w
        v = w
    return None


def power_iteration(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and right eigenvector of a primitive matrix.

    From order ``_ITERATE_ORDER`` on, a matrix with a primitive support is
    first iterated from the uniform vector.  Otherwise, and when that gives
    out, one dense eigensolve: the eigenvector of the eigenvalue with the
    largest real part is taken as |v| with ||v||_1 = 1, then one multiply
    w = m v gives λ = Σw and the returned vector w/λ.  It is accepted when
    ||m ŵ − λ ŵ||_inf ≤ 1e−13·λ and no second eigenvalue has modulus within
    1e−9·λ of λ.  Where either test fails, a primitive support may still be
    certified by ``_RESCUE_STEPS`` bracketed steps from |v|; the first try
    takes at most ``order`` (:func:`_bracketed`).  :class:`EigensolverError`
    for a zero image and for a failed test that no bracket overrules (a
    periodic or reducible matrix, or a root too close to the next one).

    ``m`` must be nonnegative and square.  Returns (λ, v) with v ≥ 0 and
    ||v||_1 = 1: entries far below the peak can underflow to 0 (φ = (800, 0)
    on the full 2-shift), and :func:`~thermoshift.measures.build_rpf`
    refuses such a vector.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(m < 0):
        raise ValueError("matrix must be nonnegative")
    order = m.shape[0]
    if order >= _ITERATE_ORDER and _primitive_support(m):
        found = _bracketed(m, np.full(order, 1.0 / order), order)
        if found:
            return found
    values, vectors = np.linalg.eig(m)
    top = int(np.argmax(values.real))
    v = np.abs(vectors[:, top])
    v /= v.sum()
    w = m @ v
    lam = float(w.sum())
    if lam <= 0:
        raise EigensolverError("Perron vector has a zero image")
    w /= lam
    # a gap below 1e-9·λ cannot be told from a tie at double precision
    moduli = np.sort(np.abs(values))
    if moduli.size > 1 and moduli[-2] >= (1.0 - 1e-9) * moduli[-1]:
        fault = "second eigenvalue on the spectral circle (imprimitive)"
    elif float(np.max(np.abs(m @ w - lam * w))) > 1e-13 * lam:
        fault = "Perron residual exceeds 1e-13·λ"
    else:
        return lam, w
    found = _primitive_support(m) and _bracketed(m, v, _RESCUE_STEPS)
    if not found:
        raise EigensolverError(fault)
    return found


# ---------------------------------------------------------------------------
# block transfer matrix


@dataclass(frozen=True)
class BlockTransfer:
    """Weighted transfer matrix of a potential on its block graph.

    The graph has width max(depth − 1, 1); the edge u→v carries weight
    exp(φ(first depth symbols of the edge word) − shift).  Row/column order
    is the lexicographic block order, fixed for reproducibility.  ``shift``
    is 0.0 when |max φ| ≤ 300, else c = max(max φ − 300, (max φ + min φ)/2):
    entries stay in [e⁻⁴⁴⁵, e³⁰⁰] while max − min ≤ 745 (eig loses the Perron
    vector of a matrix with entries below about e⁻⁶⁷⁰); every reader of
    ``matrix`` adds c back once per step, by P(φ) = P(φ − c) + c.
    """

    graph: BlockGraph
    weights: np.ndarray  # φ on each edge, in the graph's edge order
    matrix: np.ndarray  # exp(weights − shift) at [src, dst], 0 where no edge
    shift: float

    @property
    def order(self) -> int:
        return self.graph.order

    @cached_property
    def _row_split(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(a, A) with matrix = diag(a)·A when every row's edge weights agree.

        True for depth-1 potentials (the edge weight reads only the source
        symbol).  The factored product a ∘ (A x) sums the iterate *before*
        the single multiply, so weight systems with Σa exactly 1.0 keep their
        iterates bit-exact — the per-entry products of diag(a)·A @ x would
        scatter 1-ulp dust into every step.
        """
        starts = self.graph._src_starts  # one edge group per source state
        top = np.maximum.reduceat(self.weights, starts)
        if np.any(top != np.minimum.reduceat(self.weights, starts)):
            return None
        adjacency = np.zeros((self.order, self.order))
        adjacency[self.graph.src, self.graph.dst] = 1.0
        # math.exp, not np.exp: the two can differ in the last bit
        return np.array([math.exp(x - self.shift) for x in top.tolist()]), adjacency

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``matrix`` times a vector, or times each column of a matrix."""
        split = self._row_split
        if split is None:
            return self.matrix @ x
        a, adjacency = split
        return a * (adjacency @ x) if x.ndim == 1 else a[:, None] * (adjacency @ x)


def block_transfer(phi: LocallyConstantPotential) -> BlockTransfer:
    graph, weights = _edge_weights(phi)
    top = float(np.max(weights))
    shift = max(top - 300.0, (top + float(np.min(weights))) / 2) if abs(top) > 300.0 else 0.0
    matrix = np.zeros((graph.order, graph.order))
    matrix[graph.src, graph.dst] = np.exp(weights - shift)
    return BlockTransfer(graph, weights, matrix, shift)


_RESCALE = 2.0**512


def transfer_log_sums(
    apply: Callable[[np.ndarray], np.ndarray], x: np.ndarray, read: Callable[[np.ndarray], float],
    count: int, base: float = 0.0, growth: float = 0.0, telescope: bool = True,
) -> list[float]:
    """[base + r·growth + log read(x_r)] for r < count, where x_{r+1} = apply(x_r).

    The iterate is rescaled by a power of two (exact) whenever its peak
    leaves [2⁻⁵¹², 2⁵¹²], and a vanishing iterate raises ValueError.  When
    every read is positive (and ``telescope`` is on) the log sums are fsums
    of [base + log read(x₀), log(read(x₁)/read(x₀)) + Δe·log 2 + growth, …]:
    exact constant ratios (φ = 0, Bernoulli log-weights) divide back to the
    constant bit-exactly.  Otherwise each is base + r·growth + log read +
    e·log 2, with e the exponent taken out so far, and −inf for a zero read.
    """
    reads: list[float] = []
    exponents: list[int] = []
    exponent = 0
    for r in range(count):
        if r:
            x = apply(x)
            peak = float(np.max(x))
            if peak <= 0:
                raise ValueError("transfer iterate vanished (disconnected block graph?)")
            if peak > _RESCALE or peak < 1.0 / _RESCALE:
                e = math.frexp(peak)[1]
                x, exponent = x * math.ldexp(1.0, -e), exponent + e
        reads.append(float(read(x)))
        exponents.append(exponent)
    log2 = math.log(2)
    if telescope and reads and all(t > 0 for t in reads):
        terms = [base + math.log(reads[0])] + [
            math.log(b / a) + (f - e) * log2 + growth
            for a, b, e, f in zip(reads, reads[1:], exponents, exponents[1:])
        ]
        return [math.fsum(terms[: r + 1]) for r in range(count)]
    return [
        base + r * growth + math.log(t) + e * log2 if t > 0 else -math.inf
        for r, (t, e) in enumerate(zip(reads, exponents))
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

    Requires a mixing system; the root comes from one Perron solve
    (:func:`power_iteration`: a bracketed iteration or a dense eigensolve),
    which raises :class:`EigensolverError` when it can certify no root.  The
    one reader of a Perron root; :func:`~thermoshift.measures.build_rpf` is
    the one builder of a Perron chain.
    """
    bt = block_transfer(phi)
    phi.system.require_mixing()
    return math.log(power_iteration(bt.matrix)[0]) + bt.shift


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


def _estimate_from_log_sums(method: str, n_min: int, log_z: list[float]) -> PressureEstimate:
    """Assemble a PressureEstimate from log Z_n values, n = n_min, n_min + 1, ….

    Extrapolates the increments of the longest finite suffix; with a single
    usable value the estimate falls back to that raw value.
    """
    raw = tuple((n, lz / n) for n, lz in enumerate(log_z, n_min))
    start = len(log_z) - 1
    while start > 0 and math.isfinite(log_z[start - 1]):
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
) -> list[float]:
    """log Z_n for n in [n_min, n_max] via scaled transfer-matrix products,
    by the cylinder route or else the periodic one.

    Exact-equivalent to the enumeration ops (tested against them), but
    O(n·k^{2(d−1)}) instead of O(kⁿ).
    """
    bt = block_transfer(phi)
    if method == "cylinder":
        # g(u) = max over D further edges out of u of their φ sum: the sup
        # over cylinder extensions of the trailing windows of S_n φ
        lead = bt.graph.width  # D, the symbols inside the end weights
        g = np.zeros(bt.order)
        for _ in range(lead):
            g = bt.graph.step(g, bt.weights, backward=True)
        scale = float(np.max(g)) if abs(float(np.max(g))) > 300.0 else 0.0
        sums = transfer_log_sums(
            bt.apply, np.exp(g - scale), np.ndarray.sum, max(0, n_max - lead) + 1, scale, bt.shift
        )
        # sums[r] = log Z_{lead + r}; for n < lead fall back to enumeration
        ns = range(n_min, n_max + 1)
        return [n * pressure_cylinder(phi, n) if n < lead else sums[n - lead] for n in ns]
    phi.system.require_mixing()  # the periodic route
    # trace(Mⁿ) from the iterate Mⁿ, started at M itself
    traces = transfer_log_sums(bt.apply, bt.matrix, np.ndarray.trace, n_max, bt.shift, bt.shift)
    return traces[n_min - 1 :]


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
    if method not in ("cylinder", "periodic", "spectral"):
        raise ValueError(f"unknown method {method!r}")
    if n_min < 1 or n_max <= n_min:
        raise ValueError("need 1 <= n_min < n_max: a window of one value has no error bar")
    if isinstance(target, AdditiveSequence):
        target = target.potential
    phi = target if isinstance(target, LocallyConstantPotential) else None
    if method == "spectral":
        if phi is None:
            raise ValueError("spectral pressure requires an additive target")
        return PressureEstimate("spectral", (), pressure_spectral(phi), 0.0)
    if phi is not None:
        return _estimate_from_log_sums(method, n_min, _additive_log_sums(phi, method, n_min, n_max))
    if method == "cylinder":
        raise ValueError(
            "cylinder pressure needs exact cylinder suprema and is defined "
            "here for additive targets only; use the periodic route for "
            "general sequences"
        )
    return _estimate_from_log_sums(method, n_min, target.periodic_log_sums(n_min, n_max))
