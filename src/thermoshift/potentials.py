"""Potentials on subshifts: locally constant tables and sequence protocols.

Two kinds of object live here.  A :class:`LocallyConstantPotential` is a
single function determined by the first ``depth`` symbols — the additive
theory's raw material.  A :class:`PotentialSequence` is the non-additive
generalization: one function per time n, with Birkhoff sums of a fixed
potential as the special case :class:`AdditiveSequence`.

Variation diagnostics (``variation``, ``eta``, ``gamma``,
``almost_additivity_defect``, ``asymptotic_defect``) quantify how far a
sequence is from depending on finitely many coordinates and from being
additive.  All enumerate words but ``eta``, a path extremum on the block
graph in O(d·E) that is the same for every n >= d - 1.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .sft import (
    BlockGraph,
    SymbolicPoint,
    TransitionSystem,
    Word,
    block_graph,
    enumerate_words,
    word_array,
)


class InexactSequenceError(ValueError):
    """Raised when an exact computation is requested for a sequence that
    does not declare a finite dependence length."""


@dataclass(frozen=True)
class LocallyConstantPotential:
    """A real function on the shift depending on the first ``depth`` symbols.

    ``table`` maps every admissible word of length ``depth`` to its value;
    missing or extra words are rejected so that a table always matches its
    system.
    """

    system: TransitionSystem
    depth: int
    table: dict[Word, float]

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        d = self.depth
        # the d-words are enumerated only when they are as many as the
        # entries; the search for missing ones visits len(table) + 3 at most
        if len(self.table) != self.system.count_words(d) or set(self.table) != set(
            enumerate_words(self.system, d)
        ):
            unlisted = (w for w in enumerate_words(self.system, d) if w not in self.table)
            missing = list(itertools.islice(unlisted, 3))
            extra = sorted(
                w for w in self.table if len(w) != d or not self.system.is_admissible(w)
            )[:3]
            raise ValueError(
                f"table does not match admissible {d}-words "
                f"(missing {missing}, extra {extra})"
            )
        for w, v in self.table.items():
            if not math.isfinite(v):
                raise ValueError(f"non-finite value at {w}: {v!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, ts: TransitionSystem, c: float, depth: int = 1) -> "LocallyConstantPotential":
        return cls(ts, depth, {w: float(c) for w in enumerate_words(ts, depth)})

    @classmethod
    def from_symbol_values(cls, ts: TransitionSystem, values: Sequence[float]) -> "LocallyConstantPotential":
        """Depth-1 potential from one value per symbol."""
        if len(values) != ts.k:
            raise ValueError("need exactly one value per symbol")
        return cls(ts, 1, {(i + 1,): float(v) for i, v in enumerate(values)})

    def shifted(self, c: float) -> "LocallyConstantPotential":
        """The potential plus a constant (e.g. ``phi.shifted(pressure)``)."""
        return LocallyConstantPotential(
            self.system, self.depth, {w: v + c for w, v in self.table.items()}
        )

    # -- evaluation -------------------------------------------------------

    @cached_property
    def dense(self) -> np.ndarray:
        """k**depth array indexed by 0-based symbol digits; nan off-support."""
        k = self.system.k
        a = np.full((k,) * self.depth, np.nan)
        for w, v in self.table.items():
            a[tuple(s - 1 for s in w)] = v
        a.setflags(write=False)
        return a

    def values_on_windows(self, words: np.ndarray, n: int) -> np.ndarray:
        """Vectorized Birkhoff sums S_n over rows of a word array.

        Rows must have at least ``n + depth - 1`` columns.
        """
        d = self.depth
        dense = self.dense
        total = np.zeros(words.shape[0])
        for j in range(n):
            total += dense[tuple(words[:, j + r] - 1 for r in range(d))]
        return total


def birkhoff_sum(phi: LocallyConstantPotential, point: SymbolicPoint, n: int) -> float:
    """S_n(phi) at the point: sum of phi along the first n shifts."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = np.array([point.word(n + phi.depth - 1)], dtype=np.int64)
    return float(phi.values_on_windows(row, n)[0])


def _edge_weights(phi: LocallyConstantPotential) -> tuple[BlockGraph, np.ndarray]:
    """phi laid on its block graph of width max(d - 1, 1): the graph and
    phi's value on each edge, read from the edge's first d symbols."""
    graph = block_graph(phi.system, max(phi.depth - 1, 1))
    return graph, phi.dense[tuple(graph.edges[:, : phi.depth].T - 1)]


def variation(phi: LocallyConstantPotential, n: int) -> float:
    """var_n(phi): largest gap of phi over any n-cylinder.

    Exactly 0.0 for n >= depth; below depth it maximizes the spread of
    table values over admissible completions of each n-word.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= phi.depth:
        return 0.0
    graph, values = _edge_weights(phi)  # depth >= 2: the edges are the d-words
    return _prefix_group_spread(graph.edges, n, values, values)


def eta(phi: LocallyConstantPotential, n: int) -> float:
    """var_n(S_n phi): the oscillation of the n-step sum over n-cylinders.

    Only the last r = min(n, d - 1) windows of S_n phi (d the depth) reach
    past the cylinder, so eta is 0.0 at d = 1 and eta_n = eta_{d-1} for all
    n >= d - 1 (every (d - 1)-word ends an n-word and extends to the right).
    r backward (max,+) and (min,+) steps on phi's block graph give it in
    O(d·E) for E edges, bit for bit :func:`gamma`'s enumeration for n < d <= 3
    and within its last bits otherwise (other sum order).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    graph, weights = _edge_weights(phi)
    r, hi, lo = min(n, phi.depth - 1), np.zeros(graph.order), np.zeros(graph.order)
    for _ in range(r):  # the (min,+) step is the negated (max,+) step
        hi, lo = graph.step(hi, weights, backward=True), -graph.step(-lo, -weights, backward=True)
    return _prefix_group_spread(graph.states, r, hi, lo)


def _prefix_group_starts(words: np.ndarray, n: int) -> np.ndarray:
    """Row indices where the n-prefix of a word array changes.

    Rows are lexicographic, so each n-prefix group is contiguous; the result
    is the ``indices`` argument of a per-prefix ``ufunc.reduceat``.
    """
    prefixes = words[:, :n]
    change = np.any(prefixes[1:] != prefixes[:-1], axis=1)
    return np.concatenate(([0], np.flatnonzero(change) + 1))


def _prefix_group_spread(words: np.ndarray, n: int, hi: np.ndarray, lo: np.ndarray) -> float:
    """Max over n-word prefixes of (max of hi - min of lo) within the group."""
    starts = _prefix_group_starts(words, n)
    return float(np.max(np.maximum.reduceat(hi, starts) - np.minimum.reduceat(lo, starts)))


# ---------------------------------------------------------------------------
# potential sequences


class PotentialSequence(abc.ABC):
    """A sequence of functions phi_n on the shift, one per n >= 1.

    A subclass implements one evaluation method, :meth:`values_on_words`
    (phi_n on every row of a word array), and declares, when the n-th
    function is determined by an initial word, its dependence length
    ``dep(n)``.  Every diagnostic below is derived from that one method.
    Sequences without a finite dependence length cannot be fed to the exact
    (enumeration-based) diagnostics and raise :class:`InexactSequenceError`
    there.
    """

    @property
    @abc.abstractmethod
    def system(self) -> TransitionSystem: ...

    @abc.abstractmethod
    def values_on_words(self, n: int, words: np.ndarray) -> np.ndarray:
        """phi_n over the rows of a word array with at least dep(n) columns."""

    def dep(self, n: int) -> Optional[int]:
        """Number of leading symbols that determine phi_n, or None."""
        return None

    def family_member(self, k: int) -> Optional[LocallyConstantPotential]:
        """k-th member of an approximating additive family, if declared."""
        return None

    def periodic_log_sums(self, n_min: int, n_max: int) -> list[float]:
        """log Σ over Fix(σⁿ) of exp(phi_n) for n in [n_min, n_max], enumerated."""
        from .pressure import pressure_periodic  # pressure imports this module

        return [n * pressure_periodic(self, n) for n in range(n_min, n_max + 1)]


class AdditiveSequence(PotentialSequence):
    """Birkhoff sums of a fixed locally constant potential: phi_n = S_n phi."""

    def __init__(self, phi: LocallyConstantPotential):
        self.potential = phi

    @property
    def system(self) -> TransitionSystem:
        return self.potential.system

    def dep(self, n: int) -> int:
        return n + self.potential.depth - 1

    def family_member(self, k: int) -> LocallyConstantPotential:
        # an additive sequence approximates itself exactly at every accuracy
        return self.potential

    def values_on_words(self, n: int, words: np.ndarray) -> np.ndarray:
        return self.potential.values_on_windows(words, n)


class ExplicitSequence(PotentialSequence):
    """A sequence given by an arbitrary rule (n, word) -> value.

    ``dep_fn(n)`` declares how many leading symbols the rule reads; the
    word handed to ``fn`` has exactly that length.  Used for synthetic
    sequences in tests.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        fn: Callable[[int, Word], float],
        dep_fn: Callable[[int], int],
        family: Optional[Callable[[int], LocallyConstantPotential]] = None,
    ):
        self._system = ts
        self._fn = fn
        self._dep = dep_fn
        self._family = family

    @property
    def system(self) -> TransitionSystem:
        return self._system

    def dep(self, n: int) -> int:
        return self._dep(n)

    def family_member(self, k: int) -> Optional[LocallyConstantPotential]:
        return self._family(k) if self._family is not None else None

    def values_on_words(self, n: int, words: np.ndarray) -> np.ndarray:
        L = self.dep(n)
        values = np.array([float(self._fn(n, tuple(int(s) for s in row[:L]))) for row in words])
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            word = tuple(int(s) for s in words[bad[0], :L])
            raise ValueError(f"rule value {values[bad[0]]} at n = {n}, word {word} is not finite")
        return values


# ---------------------------------------------------------------------------
# sequence diagnostics


def gamma(seq: PotentialSequence, n: int) -> float:
    """var_n(phi_n): oscillation of the n-th function over n-cylinders.

    Exact enumeration; requires a declared dependence length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    L = seq.dep(n)
    if L is None:
        raise InexactSequenceError("gamma needs a declared dependence length")
    if L <= n:
        return 0.0
    words = word_array(seq.system, L)
    values = seq.values_on_words(n, words)
    return _prefix_group_spread(words, n, values, values)


def almost_additivity_defect(seq: PotentialSequence, n: int, m: int) -> tuple[float, Word]:
    """Largest |phi_{n+m} - phi_n - phi_m(shifted)| and where it occurs.

    Exhaustive over all admissible words long enough to settle all three
    terms.  Returns ``(defect, witness_word)``.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    deps = [seq.dep(j) for j in (n + m, n, m)]
    if any(x is None for x in deps):
        raise InexactSequenceError("exhaustive defect needs dependence lengths")
    L = max(deps[0], deps[1], n + deps[2])
    words = word_array(seq.system, L)
    v_nm = seq.values_on_words(n + m, words)
    v_n = seq.values_on_words(n, words)
    v_m = seq.values_on_words(m, words[:, n:])
    d = np.abs(v_nm - v_n - v_m)
    i = int(np.argmax(d))
    return float(d[i]), tuple(int(s) for s in words[i])


def asymptotic_defect(
    seq: PotentialSequence, rho: LocallyConstantPotential, n: int
) -> float:
    """(1/n) sup |phi_n - S_n rho| over the shift, by exact enumeration."""
    if n < 1:
        raise ValueError("n must be >= 1")
    L = seq.dep(n)
    if L is None:
        raise InexactSequenceError("asymptotic defect needs a dependence length")
    L = max(L, n + rho.depth - 1)
    words = word_array(seq.system, L)
    v = seq.values_on_words(n, words)
    s = rho.values_on_windows(words, n)
    return float(np.max(np.abs(v - s))) / n
