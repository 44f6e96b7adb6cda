"""Subshifts of finite type over a finite alphabet {1, ..., k}.

A subshift is specified by a 0/1 transition matrix ``t``: the sequence
``w`` is admissible iff ``t[w[i], w[i+1]] == 1`` for every i.  Everything
downstream (potentials, pressure, measures) works with finite admissible
words, eventually periodic points, and the cylinder sets they label.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

Word = tuple[int, ...]

#: Largest exponent that needs checking when deciding mixing: for a k x k
#: primitive 0/1 matrix the Wielandt bound (k-1)^2 + 1 is sharp.
def _wielandt_bound(k: int) -> int:
    return (k - 1) ** 2 + 1


class NotMixingError(ValueError):
    """The transition matrix is not topologically mixing (no power is positive)."""


@dataclass(frozen=True)
class TransitionSystem:
    """A subshift of finite type: alphabet size plus 0/1 transition matrix.

    Parameters
    ----------
    matrix
        Square 0/1 matrix as a tuple of tuples; ``matrix[i][j] == 1`` allows
        the symbol ``j+1`` to follow ``i+1``.  Symbols are 1-based everywhere
        in the public API.

    Raises
    ------
    ValueError
        If the matrix is not square 0/1, or has a dead row or column (a
        symbol that nothing can follow, or that can follow nothing, labels
        no two-sided point and silently corrupts cylinder counts).
    """

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.matrix)
        if k == 0:
            raise ValueError("empty alphabet")
        for row in self.matrix:
            if len(row) != k:
                raise ValueError("transition matrix must be square")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"transition entries must be 0 or 1, got {x!r}")
        for i, row in enumerate(self.matrix):
            if not any(row):
                raise ValueError(f"dead row: no symbol may follow {i + 1}")
        for j in range(k):
            if not any(self.matrix[i][j] for i in range(k)):
                raise ValueError(f"dead column: symbol {j + 1} may follow nothing")

    # -- constructors -------------------------------------------------

    @classmethod
    def full_shift(cls, k: int) -> "TransitionSystem":
        """Full shift on k symbols: every transition allowed."""
        return cls(tuple(tuple(1 for _ in range(k)) for _ in range(k)))

    @classmethod
    def golden_mean(cls) -> "TransitionSystem":
        """Two symbols, word ``22`` forbidden."""
        return cls(((1, 1), (1, 0)))

    # -- basic views ---------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.matrix)

    @cached_property
    def as_array(self) -> np.ndarray:
        a = np.asarray(self.matrix, dtype=np.int64)
        a.setflags(write=False)
        return a

    @property
    def is_full(self) -> bool:
        """Is every transition allowed (the full shift on k symbols)?"""
        return all(x == 1 for row in self.matrix for x in row)

    def allows(self, i: int, j: int) -> bool:
        """May symbol ``j`` follow symbol ``i``?"""
        return self.matrix[i - 1][j - 1] == 1

    def successors(self, i: int) -> Word:
        return tuple(j + 1 for j, x in enumerate(self.matrix[i - 1]) if x)

    def is_admissible(self, word: Sequence[int]) -> bool:
        """True iff every symbol is in range and every adjacent pair is allowed."""
        for s in word:
            if not (1 <= s <= self.k):
                return False
        return all(self.allows(a, b) for a, b in zip(word, word[1:]))

    def mixing_exponent(self) -> Optional[int]:
        """Minimal l with ``matrix**l`` entrywise positive, or None.

        Searches up to the Wielandt bound (k-1)**2 + 1, beyond which no
        primitive matrix needs to go, so None means the system is genuinely
        not mixing.  Boolean matrix powers only — no integer overflow at any l.
        """
        b = self.as_array > 0
        p = b.copy()
        for l in range(1, _wielandt_bound(self.k) + 1):
            if p.all():
                return l
            p = (p.astype(np.int64) @ b.astype(np.int64)) > 0
        return None

    def require_mixing(self) -> int:
        """Mixing exponent, or :class:`NotMixingError` for inputs where the
        periodic-point pressure formula (and the RPF construction) is not
        backed by theory."""
        l = self.mixing_exponent()
        if l is None:
            raise NotMixingError(
                "transition system is not topologically mixing: no power of "
                f"the matrix up to {_wielandt_bound(self.k)} is positive"
            )
        return l

    def count_words(self, n: int) -> int:
        """Number of admissible words of length n, exact: the matrix powers
        have Python-int entries, which never overflow."""
        if n < 1:
            raise ValueError("word length must be >= 1")
        return int(np.linalg.matrix_power(np.array(self.matrix, dtype=object), n - 1).sum())

    def count_periodic(self, n: int) -> int:
        """Number of points fixed by the n-th shift power: trace of matrix**n."""
        if n < 1:
            raise ValueError("period must be >= 1")
        return int(np.trace(np.linalg.matrix_power(np.array(self.matrix, dtype=object), n)))


# ---------------------------------------------------------------------------
# word enumeration


def _word_rows(ts: TransitionSystem, n: int, limit: Optional[int] = None) -> np.ndarray:
    """The first ``limit`` rows of :func:`word_array` (all by default): every
    word has a successor, so the first r rows of one length extend to the
    first r rows of the next."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    # int8 holds the symbols of up to 127 letters; larger alphabets get int16
    dtype = np.int8 if ts.k <= 127 else np.int16
    w = np.arange(1, ts.k + 1, dtype=dtype).reshape(-1, 1)[:limit]
    for _ in range(n - 1):
        w = _extended(ts, w, limit)
    w.setflags(write=False)
    return w


def _extended(ts: TransitionSystem, w: np.ndarray, limit: Optional[int] = None) -> np.ndarray:
    """The first ``limit`` words one longer than the rows of ``w``: each row
    followed by each of its successors."""
    # flatnonzero scans row-major, so successors of each row come out in
    # increasing symbol order and the overall row order stays lexicographic
    flat = np.flatnonzero(ts.as_array[w[:, -1] - 1])[:limit]
    sym = (flat % ts.k + 1).astype(w.dtype)
    return np.hstack([w[flat // ts.k], sym.reshape(-1, 1)])


#: Every word array still in use, by (system, length), so that a level can
#: extend the one below it without a recursive call.
_LIVE_LEVELS: "weakref.WeakValueDictionary[tuple[TransitionSystem, int], np.ndarray]" = (
    weakref.WeakValueDictionary()
)


@lru_cache(maxsize=32)
def word_array(ts: TransitionSystem, n: int) -> np.ndarray:
    """All admissible n-words as a (count, n) array, lexicographic rows.

    The one word enumerator: the dense representation drives every
    vectorized sum in the package.  Symbols are int8 up to 127 letters and
    int16 beyond.  A level whose length-(n − 1) array is still in use
    extends it by one step, which gives the rows of the loop from length 1.
    """
    shorter = _LIVE_LEVELS.get((ts, n - 1))
    if shorter is None:
        w = _word_rows(ts, n)
    else:
        w = _extended(ts, shorter)
        w.setflags(write=False)
    _LIVE_LEVELS[ts, n] = w
    return w


def cyclic_mask(ts: TransitionSystem, words: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose last->first transition is allowed."""
    t = ts.as_array
    return t[words[:, -1] - 1, words[:, 0] - 1] == 1


def _window_codes(words: np.ndarray, k: int, width: int) -> Iterator[np.ndarray]:
    """Base-k code of each length-``width`` window of the rows, as int64
    columns from the left: (s₁, …, s_w) ↦ Σ (s_i − 1)·k^(w−i).  Width 1
    gives the 0-based symbols."""
    for j in range(words.shape[1] - width + 1):
        code = words[:, j].astype(np.int64) - 1
        for r in range(1, width):
            code = code * k + (words[:, j + r] - 1)
        yield code


@lru_cache(maxsize=32)
def _rank_table(ts: TransitionSystem, n: int) -> np.ndarray:
    """Row index in ``word_array(ts, n)`` by base-k word code; −1 where the
    code is not an admissible word."""
    table = np.full(ts.k**n, -1, dtype=np.int64)
    (codes,) = _window_codes(word_array(ts, n), ts.k, n)
    table[codes] = np.arange(codes.size)
    table.setflags(write=False)
    return table


def _window_ranks(ts: TransitionSystem, words: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Row index in ``word_array(ts, width)`` of each length-``width`` window of
    the rows, from the left, one int64 column at a time (−1: not admissible)."""
    codes = _window_codes(words, ts.k, width)
    if width == 1 or ts.is_full:  # every window is admissible: rank = code
        return codes
    table = _rank_table(ts, width)
    return (table[code] for code in codes)


class BlockGraph:
    """The block recoding of width D of a subshift, built by :func:`block_graph`.

    States are the admissible D-words and edges the admissible (D+1)-words,
    in the row order of :func:`word_array`; an edge joins the state of its
    first D symbols (``src``) to that of its last D (``dst``).  Path extrema
    over words are (max,+) recursions on it (:meth:`step`).
    """

    def __init__(self, ts: TransitionSystem, width: int):
        self.ts = ts
        self.width = width
        self.states = word_array(ts, width)
        self.edges = word_array(ts, width + 1)
        self.src, self.dst = self.path(self.edges)
        # every state has an edge in and an edge out (no dead row or column),
        # so each reduceat group below is one state, in state order
        self._src_starts = np.flatnonzero(np.diff(self.src, prepend=-1))
        self._by_dst = np.argsort(self.dst, kind="stable")
        self._src_by_dst = self.src[self._by_dst]
        self._dst_starts = np.flatnonzero(np.diff(self.dst[self._by_dst], prepend=-1))

    @property
    def order(self) -> int:
        return self.states.shape[0]

    @cached_property
    def system(self) -> TransitionSystem:
        """The states as a subshift: v may follow u iff an edge joins them."""
        adj = np.zeros((self.order, self.order), dtype=int)
        adj[self.src, self.dst] = 1
        return TransitionSystem(tuple(map(tuple, adj.tolist())))

    def path(self, words: np.ndarray, edges: bool = False) -> Iterator[np.ndarray]:
        """The state (with ``edges``, the edge) of each D-long ((D+1)-long)
        window of the rows, from the left, one int64 column at a time."""
        return _window_ranks(self.ts, words, self.width + edges)

    def step(self, values: np.ndarray, weights: np.ndarray, backward: bool = False) -> np.ndarray:
        """One (max,+) step along the edges, over the last axis.

        Forward, state v gets the max over edges e into v of
        values[…, src(e)] + weights[…, e]; backward, state u gets the max
        over edges e out of u of weights[…, e] + values[…, dst(e)].
        ``weights`` follow the edge order; leading axes are carried through.
        """
        if backward:
            return np.maximum.reduceat(weights + values[..., self.dst], self._src_starts, axis=-1)
        return np.maximum.reduceat(
            values[..., self._src_by_dst] + weights[..., self._by_dst], self._dst_starts, axis=-1
        )


@lru_cache(maxsize=32)
def block_graph(ts: TransitionSystem, width: int) -> BlockGraph:
    """The :class:`BlockGraph` of width ``width``, cached like :func:`word_array`."""
    return BlockGraph(ts, width)


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class SymbolicPoint:
    """An eventually periodic one-sided sequence: finite prefix, then a cycle.

    The sequence is ``prefix + cycle + cycle + ...``; the cycle must be
    nonempty.  Equality is by fields: prefix (1,) with cycle (2, 1) and
    prefix () with cycle (1, 2) denote the same sequence but differ.
    """

    system: TransitionSystem
    prefix: Word
    cycle: Word

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        seq = self.prefix + self.cycle + (self.cycle[0],)
        if not self.system.is_admissible(seq):
            raise ValueError("point is not admissible for the system")

    def word(self, n: int) -> Word:
        """The initial n-word of the sequence."""
        reps = max(0, -(-(n - len(self.prefix)) // len(self.cycle)))
        return (self.prefix + self.cycle * reps)[:n]

    def shift(self, n: int = 1) -> "SymbolicPoint":
        """Drop the first n symbols."""
        if n < 0:
            raise ValueError("shift amount must be >= 0")
        if n <= len(self.prefix):
            return SymbolicPoint(self.system, self.prefix[n:], self.cycle)
        r = (n - len(self.prefix)) % len(self.cycle)
        return SymbolicPoint(self.system, (), self.cycle[r:] + self.cycle[:r])


def periodic_point(ts: TransitionSystem, cycle: Sequence[int]) -> SymbolicPoint:
    """The point obtained by repeating ``cycle`` forever."""
    return SymbolicPoint(ts, (), tuple(cycle))
