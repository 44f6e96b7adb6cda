"""Cylinder-measure oracles and Gibbs/weak-Gibbs certification.

An oracle answers μ(C_w) for admissible words w.  Concrete oracles: exact
Markov chains (:class:`MarkovMeasure`), the RPF construction giving the
exact Gibbs measure of a locally constant potential (:class:`RpfGibbsData`),
and document-backed mass tables (:class:`TableMeasure`) for externally
supplied data.  Markov and RPF oracles answer one view, ``block_chain`` (a
stationary chain on a block graph of width b, 1 for Markov) and
``reference_potential`` (the pressure-0 potential μ is Gibbs for).
Certification finds, for each n, the exact optimal two-sided constant K*(n)
relating cylinder masses to exp(φ_n − nP), and classifies its growth: with a
block chain and an additive target, by one (max,+) recursion on the block
graph of :mod:`~thermoshift.sft` (as :func:`atomfree_check` finds sup S_n φ),
else by enumerating the admissible words at each n.
"""

from __future__ import annotations

import abc
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Optional, Sequence

import numpy as np

from .potentials import (
    AdditiveSequence,
    LocallyConstantPotential,
    PotentialSequence,
    _edge_weights,
    eta,
)
from .pressure import EigensolverError, block_transfer, power_iteration, pressure_spectral
from .sft import (
    BlockGraph,
    TransitionSystem,
    Word,
    _window_ranks,
    block_graph,
    word_array,
)


class ZeroCylinderMassError(ValueError):
    """An admissible cylinder has zero mass (positivity violated)."""


class CylinderMeasureOracle(abc.ABC):
    """Query contract for cylinder masses.

    ``mass(w)`` must be additive (mass of w equals the sum over admissible
    one-symbol extensions), normalized (empty word has mass 1), and positive
    on admissible words to serve as a weak-Gibbs candidate.  None of that is
    enforced per call — :func:`validate_oracle` checks it, and the CLI
    refuses oracles that fail.  ``mass_words`` answers every row of a word
    array at once, with the same bits as ``mass``, row for row; the
    validation and log-mass checks read masses only through it.
    """

    @property
    @abc.abstractmethod
    def system(self) -> TransitionSystem: ...

    @abc.abstractmethod
    def mass(self, word: Word) -> float: ...

    def block_chain(self) -> Optional[tuple[BlockGraph, "MarkovMeasure"]]:
        """(G, chain): μ as a stationary chain on the states of the block
        graph G, so that a word's mass is that of its block path."""
        return None

    def reference_potential(self) -> Optional[LocallyConstantPotential]:
        """A potential of pressure 0 for which μ is a Gibbs measure."""
        return None

    def longest_word(self) -> Optional[int]:
        """The longest word length ``mass`` answers; None for every length."""
        return None

    def mass_words(self, words: np.ndarray) -> np.ndarray:
        """μ(C_w) for each row of a word array of admissible words, with the
        bits of ``mass``: a row at least one block long is the block chain's
        fold along its path, a shorter one the stationary weights of the
        blocks it begins, added in block order from 0.0 (no chain: ``mass``)."""
        view = self.block_chain()
        if view is None:
            return np.array([self.mass(tuple(int(s) for s in row)) for row in words], dtype=float)
        graph, chain = view
        n = words.shape[1]
        if n >= graph.width:
            return _chain_fold(*chain._arrays, graph.path(words), np.multiply)
        sums = _extension_sums(self.system, graph.states, chain.stationary, n)
        return sums[next(_window_ranks(self.system, words, n))]

    def log_mass_words(self, words: np.ndarray) -> np.ndarray:
        """log mass for each row of a word array: the block chain's fold of
        logs, or ``math.log`` of each ``mass_words`` value (log 0 = −inf)."""
        view = self.block_chain()
        if view is not None and words.shape[1] >= view[0].width:
            return _chain_fold(*view[1]._log_arrays, view[0].path(words), np.add)
        return np.array(
            [math.log(m) if m > 0 else -math.inf for m in self.mass_words(words).tolist()]
        )


def _block_chain_mass(oracle: CylinderMeasureOracle, word: Word) -> float:
    """``mass`` of an oracle with a block chain: one row of ``mass_words``."""
    if len(word) == 0:
        return 1.0
    if not oracle.system.is_admissible(word):
        raise ValueError(f"word {tuple(word)} is not admissible")
    return float(oracle.mass_words(np.array([word], dtype=np.int64))[0])


def _extension_sums(
    ts: TransitionSystem, longer: np.ndarray, masses: np.ndarray, n: int, suffix: bool = False
) -> np.ndarray:
    """Σ of ``masses`` over the rows of ``longer`` (words longer than n)
    whose n-prefix (n-suffix) is each row of ``word_array(ts, n)``, added in
    row order from 0.0; no row or column is dead, so every n-word has one."""
    windows = longer[:, -n:] if suffix else longer
    return np.bincount(next(_window_ranks(ts, windows, n)), weights=masses)


@dataclass(frozen=True)
class MarkovMeasure(CylinderMeasureOracle):
    """Stationary Markov chain as an exact cylinder-measure oracle.

    ``rows`` is the transition matrix Q (row-stochastic, supported on the
    allowed transitions), ``stationary`` the invariant distribution pi.
    Cylinder mass is pi_{w1} · Π Q_{w_j w_{j+1}}, folded left to right.
    """

    ts: TransitionSystem
    rows: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]

    def __post_init__(self) -> None:
        k = self.ts.k
        if len(self.rows) != k or any(len(r) != k for r in self.rows):
            raise ValueError("Q must be k x k")
        if len(self.stationary) != k:
            raise ValueError("pi must have one entry per symbol")
        fault = _chain_fault(
            self.ts,
            np.asarray(self.rows, dtype=float)[None],
            np.asarray(self.stationary, dtype=float)[None],
        )
        if fault is not None:
            raise ValueError(fault[1])

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_stochastic(
        cls, ts: TransitionSystem, rows: Sequence[Sequence[float]]
    ) -> "MarkovMeasure":
        """Markov measure from a stochastic matrix; pi solved exactly
        (see :func:`_stationary`)."""
        q = np.asarray(rows, dtype=float)
        pi = _stationary(q[None])[0]
        return cls(ts, tuple(tuple(map(float, r)) for r in q), tuple(map(float, pi)))

    @classmethod
    def bernoulli(cls, ts: TransitionSystem, probs: Sequence[float]) -> "MarkovMeasure":
        """Product measure with the given symbol probabilities (full shifts only)."""
        if not ts.is_full:
            raise ValueError("Bernoulli measures live on full shifts")
        p = tuple(float(x) for x in probs)
        return cls(ts, tuple(p for _ in range(ts.k)), p)

    @classmethod
    def maximal_entropy(cls, ts: TransitionSystem) -> "MarkovMeasure":
        """The maximal-entropy (Parry) measure: the equilibrium state of
        φ ≡ 0, whose transfer matrix is the 0/1 transition matrix."""
        return build_rpf(LocallyConstantPotential.constant(ts, 0.0)).chain

    # -- oracle ----------------------------------------------------------

    @property
    def system(self) -> TransitionSystem:
        return self.ts

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.stationary), np.asarray(self.rows)

    @cached_property
    def _log_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return _chain_logs(*self._arrays)

    mass = _block_chain_mass

    def block_chain(self) -> tuple[BlockGraph, "MarkovMeasure"]:
        """The chain itself, on the block graph of width 1."""
        return block_graph(self.ts, 1), self

    def reference_potential(self) -> LocallyConstantPotential:
        """log Q, by :meth:`transition_log_potential`."""
        return self.transition_log_potential()

    def transition_log_potential(self) -> LocallyConstantPotential:
        """Depth-2 potential w ↦ log Q_{w1 w2}; the chain is its exact Gibbs
        measure at pressure 0.  Requires positive weights on allowed edges."""
        table = {}
        for a, b in word_array(self.ts, 2).tolist():
            q = self.rows[a - 1][b - 1]
            if q <= 0:
                raise ZeroCylinderMassError(
                    f"transition {(a, b)} is allowed but carries zero weight"
                )
            table[a, b] = math.log(q)
        return LocallyConstantPotential(self.ts, 2, table)


def _chain_fault(
    ts: TransitionSystem, q: np.ndarray, pi: np.ndarray
) -> Optional[tuple[int, str]]:
    """The first failed check over a stack of chains, as (index, message).

    ``q`` is (N, k, k) and ``pi`` is (N, k).  Each check runs on the whole
    stack at once; for N = 1 the order, tolerances and messages are those
    :class:`MarkovMeasure` reports.  None when every chain passes.
    """
    with np.errstate(invalid="ignore"):  # NaN and inf are reported first
        row_sums = np.zeros(q.shape[:2])
        for j in range(ts.k):  # left to right, as sum() adds a row
            row_sums = row_sums + q[:, :, j]
        pi_sums = np.zeros(pi.shape[0])
        for j in range(ts.k):
            pi_sums = pi_sums + pi[:, j]
        residual = np.abs(pi[:, None, :] @ q - pi[:, None, :]).max(axis=(1, 2))
    # per chain and row, in the order a row is checked: sign, sum, support
    row_faults = np.stack(
        [
            (q < 0).any(axis=2),
            np.abs(row_sums - 1.0) > 1e-12,
            ((q > 0) & (ts.as_array == 0)).any(axis=2),
        ],
        axis=2,
    ).reshape(q.shape[0], -1)
    checks = [
        (~np.isfinite(q).all(axis=(1, 2)), "Q has a non-finite entry"),
        (~np.isfinite(pi).all(axis=1), "pi has a non-finite entry"),
        (row_faults.any(axis=1), None),  # the message names the row
        ((pi < 0).any(axis=1), "pi has a negative entry"),
        (np.abs(pi_sums - 1.0) > 1e-12, "pi does not sum to 1"),
        (residual > 1e-10, "pi is not stationary for Q"),
    ]
    for bad, message in checks:
        if not bad.any():
            continue
        c = int(np.flatnonzero(bad)[0])
        if message is not None:
            return c, message
        i, check = divmod(int(np.flatnonzero(row_faults[c])[0]), 3)
        if check == 0:
            return c, f"negative transition weight in row {i + 1}"
        if check == 1:
            return c, f"row {i + 1} of Q sums to {float(row_sums[c, i])!r}, not 1"
        j = int(np.flatnonzero((q[c, i] > 0) & (ts.as_array[i] == 0))[0])
        return c, f"Q[{i + 1},{j + 1}] > 0 on a forbidden transition"
    return None


def _stationary(q: np.ndarray) -> np.ndarray:
    """Stationary vectors of a stack of stochastic matrices (N, k, k) -> (N, k).

    Each solves pi(Q − I) = 0 with Σ pi = 1 by a dense linear solve, the
    last equation replaced by the normalization; the stack is one batched
    ``numpy.linalg.solve``, which gives each chain the bits a solve of it
    alone gives.
    """
    n, k = q.shape[0], q.shape[-1]
    a = q.transpose(0, 2, 1) - np.eye(k)
    a[:, -1, :] = 1.0
    # one right-hand side per chain, as an (N, k, 1) stack: NumPy 1.x and
    # 2.x read a 1-D b against a stacked a differently
    b = np.zeros((n, k, 1))
    b[:, -1, 0] = 1.0
    return np.linalg.solve(a, b)[:, :, 0]


def _chain_logs(pi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log pi, log Q) of one chain, with log 0 = −inf for zero entries."""
    with np.errstate(divide="ignore"):
        return np.log(pi), np.log(q)


def _chain_entropies(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """−Σ pi_i Q_ij log Q_ij per chain of a stack (N, k, k), (N, k) -> (N,).

    Terms are added in row-major order, each as (pi_i · Q_ij) · log Q_ij.
    A zero entry adds the term 0 (0·log 0 = 0), which leaves the sum's bits
    unchanged.  Logs are ``math.log`` of each distinct entry: ``np.log``
    differs from it in the last bit on some values.
    """
    values, inverse = np.unique(q, return_inverse=True)
    logs = np.array([math.log(v) if v > 0 else 0.0 for v in values])
    log_q = logs[inverse].reshape(q.shape)
    total = np.zeros(q.shape[0])
    for i in range(q.shape[1]):
        for j in range(q.shape[2]):
            total = total - pi[:, i] * q[:, i, j] * log_q[:, i, j]
    return total


def _chain_fold(
    head: np.ndarray, steps: np.ndarray, states: Iterator[np.ndarray], op: np.ufunc
) -> np.ndarray:
    """head[…, s₁] op steps[…, s₁, s₂] op steps[…, s₂, s₃] … per path, left
    to right, so each value has the bits of the scalar loop; ``head`` and
    ``steps`` are (m,) and (m, m) for one chain, (N, m) and (N, m, m) for N.
    ``states`` yields the 0-based states of all paths, one new int64 column
    per position, which the fold may overwrite."""
    m = steps.shape[-1]
    flat = steps.reshape(*steps.shape[:-2], m * m)
    prev = next(states)
    out = head[..., prev]
    for cur in states:
        prev *= m  # the flat index of each step, built in the column just used
        prev += cur
        op(out, flat[..., prev], out=out)
        prev = cur
    return out


class TableMeasure(CylinderMeasureOracle):
    """Masses listed explicitly for every admissible word up to a depth.

    The document-backed oracle: nothing is derived, nothing is validated at
    construction beyond shape and finiteness — run :func:`validate_oracle`
    to test additivity/positivity (the CLI does, and rejects violations).
    """

    def __init__(self, ts: TransitionSystem, depth: int, masses: dict[Word, float]):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        # each length has a word, so the table's size bounds the depth; the
        # words are enumerated only when they are as many as the entries
        if (
            depth > len(masses)
            or len(masses) != sum(ts.count_words(n) for n in range(1, depth + 1))
            or set(masses)
            != {tuple(w) for n in range(1, depth + 1) for w in word_array(ts, n).tolist()}
        ):
            raise ValueError(
                "mass table must list every admissible word of length "
                f"1..{depth}, exactly"
            )
        for w, m in masses.items():
            if not math.isfinite(m):
                raise ValueError(f"mass of word {w} is not finite: {m!r}")
        self._ts = ts
        self.depth = depth
        self.masses = dict(masses)

    @property
    def system(self) -> TransitionSystem:
        return self._ts

    def longest_word(self) -> int:
        return self.depth

    def mass(self, word: Word) -> float:
        if len(word) == 0:
            return 1.0
        if len(word) > self.depth:
            raise ValueError(
                f"mass table only covers words up to length {self.depth}"
            )
        try:
            return self.masses[tuple(word)]
        except KeyError:
            raise ValueError(f"word {tuple(word)} is not admissible") from None


# ---------------------------------------------------------------------------
# RPF construction


@dataclass(frozen=True, eq=False)
class RpfGibbsData(CylinderMeasureOracle):
    """Exact Gibbs measure of a locally constant potential via Perron data.

    Built by :func:`build_rpf`.  Holds the Perron root λ (pressure = log λ),
    both eigenvectors of the block transfer matrix (normalized ν·h = 1) and
    the induced stationary block chain; it carries no Gibbs constant —
    :func:`certify_weak_gibbs` measures that.  As an oracle it answers
    masses of words over the *original* alphabet by translating them to
    block paths.
    """

    potential: LocallyConstantPotential
    lam: float
    graph: BlockGraph
    h: np.ndarray
    nu: np.ndarray
    chain: MarkovMeasure

    @property
    def system(self) -> TransitionSystem:
        return self.potential.system

    @property
    def pressure(self) -> float:
        """P(φ) = log λ."""
        return math.log(self.lam)

    mass = _block_chain_mass

    def block_chain(self) -> tuple[BlockGraph, MarkovMeasure]:
        """The induced chain on φ's block graph, of width max(depth − 1, 1)."""
        return self.graph, self.chain

    def reference_potential(self) -> LocallyConstantPotential:
        """φ − P(φ), by the Gibbs sandwich."""
        return self.potential.shifted(-self.pressure)


def build_rpf(phi: LocallyConstantPotential) -> RpfGibbsData:
    """Exact Gibbs measure of φ: Perron eigendata of the block transfer matrix.

    The one builder of a Perron chain.  λ and the right/left eigenvectors
    h, ν of the block transfer matrix m come from :func:`power_iteration`
    on m and mᵀ, with ν rescaled to ν·h = 1.  The chain on the block graph
    has Q_{uv} = m_{uv} h_v/(λ h_u) and stationary vector ν∘h.  Nothing is
    certified here; :func:`certify_weak_gibbs` computes the Gibbs constants.
    """
    phi.system.require_mixing()
    bt = block_transfer(phi)
    m = bt.matrix
    lam, h = power_iteration(m)
    _, nu = power_iteration(m.T)
    if not (np.all(h > 0) and np.all(nu > 0)):  # weights that underflowed to 0
        raise EigensolverError("Perron vector has a zero entry (matrix reducible in floats)")
    nu = nu / float(nu @ h)
    f, e = np.frexp(h)  # h = f·2^e: m·f_v/(λ·f_u) stays normal however small h is
    q = np.ldexp(m * f[None, :] / (lam * f[:, None]), e[None, :] - e[:, None])
    # rows sum to 1 only in exact arithmetic; the eigenvector dust must not
    # leak into the chain's contract
    q = q / q.sum(axis=1)[:, None]
    chain = MarkovMeasure(
        bt.graph.system, tuple(tuple(map(float, row)) for row in q), tuple(map(float, nu * h))
    )
    if bt.shift:  # λ = e^c·λ' for the matrix shifted by c
        log_lam = math.log(lam) + bt.shift
        if not math.log(sys.float_info.min) <= log_lam < math.log(sys.float_info.max):
            raise ValueError(f"the Perron root exp({log_lam!r}) is outside the range of a double")
        lam = math.exp(log_lam)
    return RpfGibbsData(phi, lam, bt.graph, h, nu, chain)


# ---------------------------------------------------------------------------
# certification


def _log_gibbs_ratios(
    oracle: CylinderMeasureOracle, seq: PotentialSequence, p: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(words, log r) over n-cylinders and extension representatives, with
    r = μ(w)/exp(φ_n − nP), by enumeration; max |log r| is log K*(n), the
    exact optimal constant.  The enumeration route of :func:`_gibbs_ratio_rows`.
    """
    dep = seq.dep(n)
    if dep is None:
        raise ValueError("the target sequence declares no dependence length")
    words = word_array(oracle.system, max(n, dep))
    log_mass = oracle.log_mass_words(words[:, :n])
    return words, log_mass - seq.values_on_words(n, words) + n * p


@dataclass(frozen=True)
class _BlockGraphFold:
    """log r(w) of a Markov or RPF oracle against an additive target, as a
    fold along the block graph.

    With b the oracle's block length (1 for Markov) and d the target's
    depth, the graph has width D = max(b, d − 1).  A word w of length
    n + d − 1 ≥ D is folded left to right over its positions t: position t
    adds fl(log Q(block step ending at t) − φ(window ending at t)), leaving
    out a part that does not exist there; log π of the first block comes in
    at t = b, and n·P is added last.  ``head`` holds each state's fold over
    the positions 1..D, ``body`` each edge's term for D < t ≤ n and ``tail``
    its term for n < t < n + d, in the graph's edge order.

    Floating-point addition is monotone, so the forward (max,+) recursion of
    :meth:`log_kstar` returns the largest and smallest fold over all words
    bit for bit, and :meth:`rows`, which folds each word, agrees with it.
    """

    graph: BlockGraph
    depth: int  # d
    head: np.ndarray
    body: np.ndarray
    tail: np.ndarray

    @property
    def width(self) -> int:
        return self.graph.width

    def log_kstar(self, p: float, n_max: int) -> list[float]:
        """[log K*(n)] for n = D..n_max in one forward pass.

        Row 0 of the recursion carries the largest fold into each state, row
        1 the largest negated fold (−fl(a + b) = fl(−a − b) exactly), so one
        (max,+) step serves both extrema.  A zero-mass step is −inf in row 0
        and +inf in row 1, and the rows never mix, so no NaN can arise.
        Each n runs the d − 1 tail steps from the running state, which the
        next n continues unchanged.
        """
        body = np.stack([self.body, -self.body])
        tail = np.stack([self.tail, -self.tail])
        acc = np.stack([self.head, -self.head])
        out = []
        for n in range(self.width, n_max + 1):
            if n > self.width:
                acc = self.graph.step(acc, body)
            end = acc
            for _ in range(self.depth - 1):
                end = self.graph.step(end, tail)
            top, neg_bottom = end.max(axis=1).tolist()
            out.append(max(abs(top + n * p), abs(-neg_bottom + n * p)))
        return out

    def rows(self, p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(words, log r) for every word of length n + d − 1, by the same fold."""
        words = word_array(self.graph.ts, n + self.depth - 1)
        acc = self.head[next(self.graph.path(words))]
        for t, edge in enumerate(self.graph.path(words, edges=True), self.width + 1):
            acc = acc + (self.body if t <= n else self.tail)[edge]
        return words, acc + n * p


def _block_graph_fold(
    oracle: CylinderMeasureOracle, seq: PotentialSequence
) -> Optional[_BlockGraphFold]:
    """The block-graph fold of an oracle with a block chain against an
    additive target on its own system; None for every other pair."""
    view = oracle.block_chain()
    if view is None or not isinstance(seq, AdditiveSequence) or seq.system != oracle.system:
        return None
    blocks, chain = view
    phi, b, d = seq.potential, blocks.width, seq.potential.depth
    graph = block_graph(oracle.system, max(b, d - 1))
    log_pi, log_q = chain._log_arrays

    def term(y: np.ndarray, t: int, mass: bool) -> np.ndarray:
        """Position t's term on words y ending at t (mass: t ≤ n)."""
        window = phi.dense[tuple(y[:, -d:].T - 1)] if t >= d else None
        if not mass or t < b:
            return -window
        # the oracle's blocks ending at t − 1 and t (only t's when t = b)
        path = list(blocks.path(y[:, -b - 1 :]))
        m = log_pi[path[0]] if t == b else log_q[path[0], path[1]]
        return m if window is None else m - window

    head = np.zeros(graph.order)
    for t in range(1, graph.width + 1):
        if t >= min(b, d):
            head = head + term(graph.states[:, :t], t, True)
    t = graph.width + 1  # the position an edge ends at
    return _BlockGraphFold(graph, d, head, term(graph.edges, t, True), term(graph.edges, t, False))


def _log_kstar_series(
    oracle: CylinderMeasureOracle, seq: PotentialSequence, p: float, n_max: int
) -> tuple[list[float], Optional[_BlockGraphFold]]:
    """[log K*(n)] for n = 1..n_max, and the block-graph fold that gave the
    values from n = D on (None: every n was enumerated).

    The one place these numbers come from: certification and
    :func:`~thermoshift.log_mass.check_sandwich` both read them, so a
    certificate's constants pass the sandwich with slack exactly 0.0.
    """
    fold = _block_graph_fold(oracle, seq)
    enumerated = n_max if fold is None else min(fold.width - 1, n_max)
    log_ks = [
        float(np.max(np.abs(_log_gibbs_ratios(oracle, seq, p, n)[1])))
        for n in range(1, enumerated + 1)
    ]
    if fold is not None:
        log_ks += fold.log_kstar(p, n_max)
    return log_ks, fold


def _gibbs_ratio_rows(
    oracle: CylinderMeasureOracle,
    seq: PotentialSequence,
    p: float,
    n: int,
    fold: Optional[_BlockGraphFold],
) -> tuple[np.ndarray, np.ndarray]:
    """(words, log r) at one n by the route :func:`_log_kstar_series` took
    there, so the max of |log r| is its value; for naming witnesses."""
    if fold is None or n < fold.width:
        return _log_gibbs_ratios(oracle, seq, p, n)
    return fold.rows(p, n)


@dataclass(frozen=True)
class WeakGibbsCertificate:
    """Exact K*(n) data and a three-valued verdict.

    verdict "gibbs": the K*(n) tail is flat (log-range ≤ 1e−9 over the last
    half), and ``gibbs_constant`` = max_n K*(n) is the certified two-sided
    constant.  verdict "consistent-weak-gibbs": log K*(n)/n is nonincreasing
    on the tail and ends below the threshold τ — evidence of subexponential
    growth, explicitly not a proof.  Anything else: "rejected".

    ``rate`` is the least-squares line through the tail of (n, log K*(n)/n)
    evaluated at n_max; ``implied_pressure_shift`` is the fitted slope of
    log K*(n) itself, which estimates |P_supplied − P_true| when a wrong
    pressure made K* grow exponentially.

    ``route`` says how K*(n) was found: "max-plus" (the block-graph
    recursion, with ``block_order`` states, for every n ≥ its word length D)
    or "enumeration" (every word at every n; ``block_order`` is None).
    """

    p_used: float
    kstar: tuple[tuple[int, float], ...]
    log_kstar: tuple[tuple[int, float], ...]
    rate: float
    implied_pressure_shift: float
    verdict: str
    gibbs_constant: Optional[float]
    threshold: Optional[float]
    route: str
    block_order: Optional[int]

    def log_k(self, n: int) -> float:
        for m, v in self.log_kstar:
            if m == n:
                return v
        raise KeyError(f"certificate has no entry for n={n}")

    @property
    def n_max(self) -> int:
        return self.kstar[-1][0]


def certify_weak_gibbs(
    oracle: CylinderMeasureOracle,
    seq: PotentialSequence,
    p: float,
    n_max: int,
    tau: float = 1e-3,
) -> WeakGibbsCertificate:
    """Exact per-n Gibbs constants K*(n) and growth classification.

    K*(n) = max |log μ(w) − φ_n(w) + nP| over every admissible n-word and
    every extension needed to settle φ_n, so it is the optimal constant for
    that n, not an estimate.  A Markov or RPF oracle against an additive
    target gets it as a path extremum on the block graph, in one (max,+)
    pass over n (see :class:`_BlockGraphFold`); any other pair, and n below
    the graph's word length, enumerates the words.  Raises
    :class:`ZeroCylinderMassError` on an admissible zero-mass cylinder,
    naming the first one of the first such n; everything else is a verdict,
    not an exception.
    """
    if n_max < 4:
        raise ValueError("certification needs n_max >= 4")
    if tau <= 0:
        raise ValueError("threshold must be positive")
    log_ks, fold = _log_kstar_series(oracle, seq, p, n_max)
    for n, lk in enumerate(log_ks, 1):
        if not math.isfinite(lk):
            words, log_ratios = _gibbs_ratio_rows(oracle, seq, p, n, fold)
            bad = np.flatnonzero(~np.isfinite(log_ratios))
            w = tuple(int(s) for s in words[bad[0], :n])
            raise ZeroCylinderMassError(f"admissible word {w} has zero mass")
    ns = np.arange(1, n_max + 1)
    tail_from = (n_max + 1) // 2
    tail = slice(tail_from - 1, None)
    ratios = np.array(log_ks) / ns
    rate_fit = np.polyfit(ns[tail], ratios[tail], 1)
    rate = float(np.polyval(rate_fit, n_max))
    shift = float(np.polyfit(ns[tail], np.array(log_ks)[tail], 1)[0])
    tail_logs = log_ks[tail_from - 1 :]
    verdict = "rejected"
    constant: Optional[float] = None
    threshold: Optional[float] = None
    if max(tail_logs) - min(tail_logs) <= 1e-9:
        verdict = "gibbs"
        # exp can round one ulp low; step up so that log C >= max log K*(n)
        # and the constant passes check_sandwich against its own K*
        top = max(log_ks)
        constant = math.exp(top)
        while math.log(constant) < top:
            constant = math.nextafter(constant, math.inf)
    else:
        tail_ratios = ratios[tail]
        nonincreasing = bool(
            np.all(tail_ratios[1:] <= tail_ratios[:-1] + 1e-12)
        )
        if nonincreasing and ratios[-1] < tau:
            verdict = "consistent-weak-gibbs"
            threshold = tau
    return WeakGibbsCertificate(
        p_used=p,
        kstar=tuple((int(n), math.exp(lk)) for n, lk in zip(ns, log_ks)),
        log_kstar=tuple((int(n), lk) for n, lk in zip(ns, log_ks)),
        rate=rate,
        implied_pressure_shift=shift,
        verdict=verdict,
        gibbs_constant=constant,
        threshold=threshold,
        route="enumeration" if fold is None else "max-plus",
        block_order=None if fold is None else fold.graph.order,
    )


def oscillation_bound(phi: LocallyConstantPotential, n: int) -> float:
    """The theoretical weak-Gibbs envelope exp(var_n(S_n φ)) = exp(eta(φ, n)).

    A weak Gibbs measure for φ exists with K(n) equal to this value.  It is
    exactly 1 at depth 1; at depth d ≥ 2 the trailing d − 1 windows keep
    oscillating, and :func:`eta` reads one positive constant for all n ≥ d − 1
    off the block graph in O(d·E).
    """
    return math.exp(eta(phi, n))


def atomfree_check(phi: LocallyConstantPotential, n_max: int) -> Optional[int]:
    """Smallest n ≤ n_max with sup (1/n) S_n φ < P(φ) − 1e−12, else None.

    The strict inequality at any single n certifies that weak Gibbs
    measures for φ are atom-free.  A witness can first appear at some
    n > 1 even when n = 1 fails — averaging can pull the sup below the
    pressure only once orbits mix the large and small values of φ.

    sup S_n φ is the n-th forward (max,+) step on φ's block graph from 0.0:
    bit for bit the largest left-to-right sum over the (n + d − 1)-words.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = pressure_spectral(phi)
    graph, weights = _edge_weights(phi)
    sums = np.zeros(graph.order)
    for n in range(1, n_max + 1):
        sums = graph.step(sums, weights)
        if float(np.max(sums)) / n < p - 1e-12:
            return n
    return None


# ---------------------------------------------------------------------------
# entropy, integrals, validation


def entropy(mu: MarkovMeasure) -> float:
    """Entropy of a stationary Markov chain: −Σ pi_i Q_ij log Q_ij (0·log 0 = 0)."""
    return float(
        _chain_entropies(np.asarray(mu.rows)[None], np.asarray(mu.stationary)[None])[0]
    )


def integrate(
    phi: LocallyConstantPotential, oracle: CylinderMeasureOracle
) -> float:
    """∫ φ dμ = Σ over admissible depth-words of μ(w)·φ(w), exact; the
    products are added in word order from 0.0."""
    if phi.system.matrix != oracle.system.matrix:
        raise ValueError("potential and measure live on different systems")
    words = word_array(phi.system, phi.depth)
    values = phi.dense[tuple(words.T - 1)]
    return reduce(operator.add, (oracle.mass_words(words) * values).tolist(), 0.0)


@dataclass(frozen=True)
class OracleValidation:
    """Outcome of the structural oracle checks (never raises)."""

    total_mass_ok: bool
    additivity_gap: float
    additivity_witness: Optional[Word]
    positivity_ok: bool
    zero_mass_witness: Optional[Word]
    checked_to: int

    @property
    def passed(self) -> bool:
        return self.total_mass_ok and self.additivity_witness is None and self.positivity_ok


def validate_oracle(oracle: CylinderMeasureOracle, n_max: int = 10) -> OracleValidation:
    """Check normalization, additivity, and positivity up to length n_max.

    Additivity: μ(w) = Σ_s μ(w·s) over admissible extensions, within 1e-12.
    The worst gap and its witness (the first in length-then-lexicographic
    order) are reported whether or not they pass.  The checks run on arrays:
    ``mass_words`` over each level's ``word_array``, and the extensions of
    each word added by :func:`_extension_sums`, in successor order from 0.0.
    """
    ts = oracle.system
    total_ok = abs(oracle.mass(()) - 1.0) <= 1e-12
    levels = [oracle.mass_words(word_array(ts, n)) for n in range(1, max(n_max, 1) + 1)]
    worst = 0.0
    witness: Optional[Word] = None
    zero_witness: Optional[Word] = None
    # length-0 additivity: symbol masses must sum to 1
    gap = abs(reduce(operator.add, levels[0].tolist(), 0.0) - 1.0)
    if gap > worst:
        worst, witness = gap, ()
    for n in range(1, n_max):
        gaps = np.abs(levels[n - 1] - _extension_sums(ts, word_array(ts, n + 1), levels[n], n))
        i = _first_max(gaps)
        if gaps[i] > worst:
            worst, witness = float(gaps[i]), tuple(int(s) for s in word_array(ts, n)[i])
    for n in range(1, n_max + 1):
        bad = np.flatnonzero(~(levels[n - 1] > 0))
        if bad.size:
            zero_witness = tuple(int(s) for s in word_array(ts, n)[bad[0]])
            break
    return OracleValidation(
        total_mass_ok=total_ok,
        additivity_gap=worst,
        additivity_witness=witness if worst > 1e-12 else None,
        positivity_ok=zero_witness is None,
        zero_mass_witness=zero_witness,
        checked_to=n_max,
    )


def _first_max(values: np.ndarray) -> int:
    """Index of the first largest value; NaN never wins, as under ``>``."""
    return int(np.argmax(np.where(np.isnan(values), -np.inf, values)))


def shift_invariance_gap(oracle: CylinderMeasureOracle, n_max: int) -> float:
    """max over words up to n_max of |Σ_s μ(s·w) − μ(w)| (invariance test).

    On arrays, as :func:`validate_oracle`: :func:`_extension_sums` adds the
    masses μ(s·w) over the n-suffixes w, in symbol order from 0.0.
    """
    ts = oracle.system
    worst = 0.0
    masses = oracle.mass_words(word_array(ts, 1))
    for n in range(1, n_max + 1):
        longer = word_array(ts, n + 1)
        longer_masses = oracle.mass_words(longer)
        gaps = np.abs(_extension_sums(ts, longer, longer_masses, n, suffix=True) - masses)
        worst = max(worst, float(gaps[_first_max(gaps)]))
        masses = longer_masses
    return worst
