"""Shared fixtures, hypothesis strategies, independent brute-force oracles,
and a call counter.

Everything under "brute" recomputes quantities from first principles — raw
dict lookups, integer matrix powers, explicit recursion — sharing no code
with the library's vectorized paths, so agreement is evidence rather than
tautology.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from thermoshift import LocallyConstantPotential, SymbolicPoint, TransitionSystem, word_array

# The depth-2 table used in the format documentation; its Birkhoff-sum
# oscillation over 2-cylinders is exactly 3.
EXAMPLE_TABLE = {(1, 1): 0.0, (1, 2): 1.0, (2, 1): 0.0, (2, 2): 3.0}

# Depth-2 table whose atom-freeness witness is n = 2 but not n = 1:
# sup phi = 2 exceeds P(phi) ~ -0.188, while (1/2) sup S_2 phi = -0.25 < P.
ATOMFREE_TABLE = {(1, 1): -3.0, (1, 2): 2.0, (2, 1): -2.5, (2, 2): -3.0}


# ---------------------------------------------------------------------------
# brute-force oracles (no thermoshift internals)


def brute_words(matrix, n):
    """All admissible n-words of a 0/1 matrix, in lexicographic order."""
    k = len(matrix)
    if n == 0:
        return [()]
    words = [(i,) for i in range(1, k + 1)]
    for _ in range(n - 1):
        words = [
            w + (j,)
            for w in words
            for j in range(1, k + 1)
            if matrix[w[-1] - 1][j - 1]
        ]
    return words


def brute_cyclic_words(matrix, n):
    return [w for w in brute_words(matrix, n) if matrix[w[-1] - 1][w[0] - 1]]


def brute_periodic_values(ts, rule, dep, n):
    """rule(n, word) at every point of period n, in the lexicographic order of
    its cyclic n-word; ``word`` is the point's first ``dep`` symbols, so a
    rule that reads past n symbols sees the cyclic word repeated."""
    return [
        rule(n, SymbolicPoint(ts, (), w).word(dep)) for w in brute_cyclic_words(ts.matrix, n)
    ]


def representative_point(ts, word):
    """Some admissible point whose initial word is ``word``: the word extended
    greedily by smallest allowed successors until a symbol repeats, with the
    loop closed there."""
    w = list(word)
    if not ts.is_admissible(w):
        raise ValueError(f"word {tuple(word)} is not admissible")
    seen = {w[-1]: len(w) - 1}
    while True:
        s = ts.successors(w[-1])[0]
        if s in seen:
            cut = seen[s]
            return SymbolicPoint(ts, tuple(w[:cut]), tuple(w[cut:]))
        seen[s] = len(w)
        w.append(s)


def asymptotic_defect(seq, rho, n):
    """(1/n) sup |phi_n - S_n rho| over the shift, by exact enumeration of the
    words long enough to settle both terms."""
    words = word_array(seq.system, max(seq.dep(n), n + rho.depth - 1))
    v = seq.values_on_words(n, words)
    return float(np.max(np.abs(v - rho.values_on_windows(words, n)))) / n


def brute_periodic_count(matrix, n):
    """trace(M^n) in exact integer arithmetic."""
    k = len(matrix)
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(n):
        power = [
            [sum(power[i][l] * matrix[l][j] for l in range(k)) for j in range(k)]
            for i in range(k)
        ]
    return sum(power[i][i] for i in range(k))


def table_birkhoff(table, depth, word, n):
    """S_n phi from the raw dict; word must supply n + depth - 1 symbols."""
    return sum(table[word[i : i + depth]] for i in range(n))


def brute_variation(matrix, table, depth, n):
    """var_n(phi): oscillation of the table value over n-cylinders."""
    if n >= depth:
        return 0.0
    groups = {}
    for w in brute_words(matrix, depth):
        groups.setdefault(w[:n], []).append(table[w])
    return max(max(g) - min(g) for g in groups.values())


def brute_eta(matrix, table, depth, n):
    """var_n(S_n phi) by grouping (n + depth - 1)-words on their n-prefix."""
    length = n + depth - 1
    groups = {}
    for w in brute_words(matrix, length):
        groups.setdefault(w[:n], []).append(table_birkhoff(table, depth, w, n))
    return max(max(g) - min(g) for g in groups.values())


def brute_cylinder_pressure(matrix, table, depth, n):
    """(1/n) log sum over n-words of the cylinder supremum of exp(S_n phi)."""
    length = n + depth - 1
    sups = {}
    for w in brute_words(matrix, length):
        s = table_birkhoff(table, depth, w, n)
        key = w[:n]
        sups[key] = max(sups.get(key, -math.inf), s)
    return math.log(math.fsum(math.exp(v) for v in sups.values())) / n


def brute_periodic_pressure(matrix, table, depth, n):
    """(1/n) log sum of exp(S_n phi) over points of period n (wraparound)."""
    reps = (n + depth - 1) // n + 1
    total = [
        math.exp(table_birkhoff(table, depth, w * reps, n))
        for w in brute_cyclic_words(matrix, n)
    ]
    return math.log(math.fsum(total)) / n


def brute_atomfree(matrix, table, depth, n_max, pressure):
    """Smallest n <= n_max with (1/n) sup S_n phi < pressure - 1e-12, or None.

    The sup runs over every admissible (n + depth - 1)-word: each is the
    prefix of some (n_max + depth - 1)-word, whose running sums from 0.0
    give S_1, ..., S_{n_max} left to right.
    """
    sups = [-math.inf] * n_max
    for w in brute_words(matrix, n_max + depth - 1):
        s = 0.0
        for i in range(n_max):
            s += table[w[i : i + depth]]
            sups[i] = max(sups[i], s)
    for n, top in enumerate(sups, 1):
        if top / n < pressure - 1e-12:
            return n
    return None


def brute_spectral_pressure(matrix, table, depth):
    """log of the Perron root of the dense transfer matrix, via eigvals."""
    states = brute_words(matrix, max(depth - 1, 1))
    index = {u: i for i, u in enumerate(states)}
    w = np.zeros((len(states), len(states)))
    # Transition u -> u[1:] + (s,) when the joined word is admissible;
    # weight exp(phi) read off the last `depth` symbols (first symbol for
    # depth 1, where states and symbols coincide).
    for u in states:
        for s in range(1, len(matrix) + 1):
            joined = u + (s,)
            ok = all(matrix[a - 1][b - 1] for a, b in zip(joined, joined[1:]))
            if not ok:
                continue
            v = joined[1:] if depth > 1 else (s,)
            key = joined[-depth:] if depth > 1 else (u[0],)
            w[index[u], index[v]] += math.exp(table[key])
    lam = max(np.linalg.eigvals(w).real)
    return math.log(lam)


def brute_branch_inverse(emap, symbol, y):
    """The safeguarded Newton solve on one point, in Python floats, on the raw
    branch callables of a general map: start from the chord, keep a sign
    bracket, take the Newton step (at least 1 ulp) only when it lands inside
    the bracket and at most halves the previous step (or is at most 2 ulp),
    else bisect; stop when f(x) = y or the bracket is within 1 ulp of x,
    and answer with one more Newton step clipped to the bracket."""
    fn, dfn = emap.branch_fns[symbol - 1], emap.branch_dfns[symbol - 1]
    l, r = emap.domains[symbol - 1]
    fl, fr = fn(l), fn(r)
    rising = fr >= fl
    x = min(max(l + (y - fl) / (fr - fl) * (r - l), l), r)
    a, b, last = l, r, r - l
    for _ in range(200):
        g = fn(x) - y
        if (g < 0) == rising:
            a = x
        else:
            b = x
        ulp = math.ulp(abs(x))
        if g == 0 or b - a <= ulp:
            return min(max(x - g / dfn(x), a), b)
        dx = g / dfn(x)
        dx = math.copysign(max(abs(dx), ulp), dx)
        nxt = x - dx
        if not (a < nxt < b and abs(dx) <= max(0.5 * last, 2 * ulp)):
            nxt = 0.5 * (a + b)
        last = abs(nxt - x)
        x = nxt
    raise AssertionError(f"scalar solve stalled at y = {y!r}")


def brute_log_diameter(emap, word):
    """log D_n(w) of a linear map by the product law, the log-slopes summed
    left to right: log|I_{w_n}| − (log s_{w_1} + … + log s_{w_{n−1}})."""
    total = 0.0
    for s in word[:-1]:
        total += math.log(emap.slopes[s - 1])
    l, r = emap.domains[word[-1] - 1]
    return math.log(r - l) - total


def brute_endpoint_defects(emap, word):
    """max endpoint-orbit |log D_n + S_n log|T'|| for every prefix of one
    itinerary: one scalar backward pull per prefix, then the two endpoint
    orbits' log-derivative sums left to right."""
    out = []
    for n in range(1, len(word) + 1):
        lo, hi = emap.domains[word[n - 1] - 1]
        ends = [(lo, hi)]
        for j in range(n - 2, -1, -1):
            a = brute_branch_inverse(emap, word[j], lo)
            b = brute_branch_inverse(emap, word[j], hi)
            lo, hi = min(a, b), max(a, b)
            ends.append((lo, hi))
        ends.reverse()
        log_d = math.log(hi - lo)
        sums = [0.0, 0.0]
        rising = True
        for j in range(n):
            fn, dfn = emap.branch_fns[word[j] - 1], emap.branch_dfns[word[j] - 1]
            a, b = ends[j]
            for side, x in enumerate((a, b) if rising else (b, a)):
                sums[side] += math.log(abs(dfn(x)))
            if fn(a) > fn(b):
                rising = not rising
        out.append(max(abs(log_d + sums[0]), abs(log_d + sums[1])))
    return out


def brute_sampled_ujr(emap, n_max, sample_size, seed):
    """(M(n), spread(n)) over seeded sample itineraries, path by path."""
    matrix = emap.coding.matrix
    rng = np.random.default_rng(seed)
    per_path = []
    for _ in range(sample_size):
        word = [int(rng.integers(1, len(matrix) + 1))]
        for _ in range(n_max - 1):
            succ = [j + 1 for j, ok in enumerate(matrix[word[-1] - 1]) if ok]
            word.append(succ[int(rng.integers(0, len(succ)))])
        per_path.append(brute_endpoint_defects(emap, word))
    columns = list(zip(*per_path))
    m_values = tuple(max(col) / n for n, col in enumerate(columns, 1))
    spread = tuple((max(col) - min(col)) / n for n, col in enumerate(columns, 1))
    return m_values, spread


def brute_linear_ujr(emap, n_max):
    """M(n) of a linear map by enumerating every admissible n-word: the
    product-law diameter (log|I_{w_n}| - p) plus the Birkhoff sum (p + log
    s_{w_n}), with p the prefix sum of log-slopes added left to right."""
    log_w = [math.log(r - l) for l, r in emap.domains]
    log_s = [math.log(s) for s in emap.slopes]
    m_values = []
    for n in range(1, n_max + 1):
        top = 0.0
        for w in brute_words(emap.coding.matrix, n):
            p = 0.0
            for s in w[:-1]:
                p += log_s[s - 1]
            top = max(top, abs((log_w[w[-1] - 1] - p) + (p + log_s[w[-1] - 1])))
        m_values.append(top / n)
    return tuple(m_values)


# ---------------------------------------------------------------------------
# call counting


def count_calls(monkeypatch, *functions):
    """A Counter of calls by function name, for the rest of the test.

    Each function is replaced under every name any thermoshift module binds
    it to (its defining module, the modules that import it, the package),
    so calls between modules are counted too.
    """
    counts = Counter()
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "thermoshift"]
    for fn in functions:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


# ---------------------------------------------------------------------------
# hypothesis strategies

# Curated mixing matrices; generating-and-filtering random 0/1 matrices
# drags hypothesis shrinking through the mixing check, so we pin a pool
# that covers full shifts, the golden-mean shift, and denser 3-symbol SFTs.
MIXING_MATRICES = (
    ((1, 1), (1, 1)),
    ((1, 1), (1, 0)),
    ((0, 1), (1, 1)),
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((1, 1, 1), (1, 0, 1), (1, 1, 0)),
    ((0, 1, 1), (1, 1, 0), (1, 1, 1)),
)

mixing_systems = st.sampled_from(
    tuple(TransitionSystem(m) for m in MIXING_MATRICES)
)

# Multiples of 1/16 stay exact under the short additions these tests do,
# which is what makes "exact" cocycle assertions meaningful.
dyadic_values = st.integers(min_value=-48, max_value=48).map(lambda m: m / 16.0)

small_values = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def potentials(draw, values=small_values, max_depth=3, min_depth=1, systems=mixing_systems):
    ts = draw(systems)
    depth = draw(st.integers(min_value=min_depth, max_value=max_depth))
    table = {w: draw(values) for w in brute_words(ts.matrix, depth)}
    return LocallyConstantPotential(ts, depth, table)


# Systems for invariants on tables in [-8, 8]; the eigensolver strategy adds
# a block order above power_iteration's iteration threshold (32): the full
# 6-shift at depth 3 (order 36).
INVARIANT_SYSTEMS = st.sampled_from(
    (
        TransitionSystem.full_shift(2),
        TransitionSystem.full_shift(3),
        TransitionSystem.golden_mean(),
        TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1))),
    )
)
wide_values = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@st.composite
def large_potentials(draw):
    """A seeded depth-3 table on the full 6-shift, uniform in [-s, s] for a
    drawn s in [0.25, 8]: too many words to draw one by one."""
    ts, depth = TransitionSystem.full_shift(6), 3
    spread = draw(st.floats(min_value=0.25, max_value=8.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    words = brute_words(ts.matrix, depth)
    return LocallyConstantPotential(ts, depth, dict(zip(words, rng.uniform(-spread, spread, len(words)).tolist())))


def eigensolver_potentials():
    return st.one_of(potentials(values=wide_values, systems=INVARIANT_SYSTEMS), large_potentials())


@st.composite
def dyadic_potentials(draw, max_depth=2):
    return draw(potentials(values=dyadic_values, max_depth=max_depth))


@st.composite
def markov_rows(draw, ts):
    """Row-stochastic weights supported exactly on the allowed transitions."""
    rows = []
    for i in range(1, ts.k + 1):
        succ = ts.successors(i)
        raw = [
            draw(st.floats(min_value=0.1, max_value=1.0, allow_nan=False))
            for _ in succ
        ]
        total = sum(raw)
        row = [0.0] * ts.k
        for j, x in zip(succ, raw):
            row[j - 1] = x / total
        # push rounding dust into the largest entry so the row sums to 1.0
        jmax = row.index(max(row))
        row[jmax] += 1.0 - sum(row)
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# potential transforms that leave the pressure unchanged


def with_coboundary(phi, g):
    """phi + g − g∘σ, with g a table on the words of one length r; the
    result has depth max(phi.depth, r + 1)."""
    ts = phi.system
    r = len(next(iter(g)))
    depth = max(phi.depth, r + 1)
    table = {w: phi.table[w[: phi.depth]] + g[w[:r]] - g[w[1 : r + 1]] for w in brute_words(ts.matrix, depth)}
    return LocallyConstantPotential(ts, depth, table)


def relabelled(phi, label):
    """phi on the system whose symbol label[s - 1] plays the part of s."""
    k = phi.system.k
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            matrix[label[i] - 1][label[j] - 1] = phi.system.matrix[i][j]
    table = {tuple(label[s - 1] for s in w): v for w, v in phi.table.items()}
    return LocallyConstantPotential(TransitionSystem(tuple(map(tuple, matrix))), phi.depth, table)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture
def full2():
    return TransitionSystem.full_shift(2)


@pytest.fixture
def full3():
    return TransitionSystem.full_shift(3)


@pytest.fixture
def golden():
    return TransitionSystem.golden_mean()


@pytest.fixture
def example_potential(full2):
    return LocallyConstantPotential(full2, 2, dict(EXAMPLE_TABLE))


@pytest.fixture
def atomfree_potential(full2):
    return LocallyConstantPotential(full2, 2, dict(ATOMFREE_TABLE))
