"""Count how ``build_rpf`` ends on seeded families of potentials.

    PYTHONPATH=src python .github/defect_census.py

Family (a): 1,200 draws from ``numpy.random.default_rng(2)``.  Draw i takes
system i mod 4 of (full 2-shift, full 3-shift, golden mean, T3) with
T3 = ((1,1,0),(0,1,1),(1,1,1)), and depth d = 1 + (i div 4) mod 2.  Its
values are drawn from {-8, 8}, one per d-word in ``word_array`` order; then
r = 1 + (i div 8) mod 2 and a table g, drawn the same way on the r-words.
Both φ and φ + g - g∘σ (at depth max(d, r + 1)) are built: 2,400 builds.
Family (c): φ = (c, 0) on the full 2-shift for c in {300, 709.5, 800, 1000}.

Each outcome is counted as ``built`` or by its exception's type and
message; no value is checked against an oracle.  The counts go to stdout as
a Markdown table.  The script reads only the importable ``thermoshift``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections
import sys

import numpy as np

from thermoshift import LocallyConstantPotential, TransitionSystem, build_rpf, word_array

SYSTEMS = (
    TransitionSystem.full_shift(2),
    TransitionSystem.full_shift(3),
    TransitionSystem.golden_mean(),
    TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1))),
)
DRAWS = 1200
SHIFTS = (300.0, 709.5, 800.0, 1000.0)


def words(ts: TransitionSystem, n: int) -> list[tuple[int, ...]]:
    return [tuple(w) for w in word_array(ts, n).tolist()]


def family_a():
    """φ and φ + g - g∘σ for each draw of family (a), in draw order."""
    rng = np.random.default_rng(2)
    for i in range(DRAWS):
        ts, d, r = SYSTEMS[i % 4], 1 + (i // 4) % 2, 1 + (i // 8) % 2
        phi = dict(zip(words(ts, d), rng.choice([-8.0, 8.0], ts.count_words(d)).tolist()))
        g = dict(zip(words(ts, r), rng.choice([-8.0, 8.0], ts.count_words(r)).tolist()))
        depth = max(d, r + 1)
        yield LocallyConstantPotential(ts, d, phi)
        yield LocallyConstantPotential(
            ts, depth, {w: phi[w[:d]] + g[w[:r]] - g[w[1 : r + 1]] for w in words(ts, depth)}
        )


def family_c():
    for c in SHIFTS:
        yield LocallyConstantPotential(SYSTEMS[0], 1, {(1,): c, (2,): 0.0})


def outcomes(potentials) -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    for phi in potentials:
        try:
            build_rpf(phi)
        except Exception as exc:  # counted, not raised: the census reports every ending
            counts[f"{type(exc).__name__}: {exc}"] += 1
        else:
            counts["built"] += 1
    return counts


def main(argv: list[str]) -> int:
    if argv:
        print("usage: defect_census.py", file=sys.stderr)
        return 2
    print("| family | outcome of build_rpf | count |")
    print("|---|---|---:|")
    for name, family in (("(a) {-8, 8} tables and coboundaries", family_a), ("(c) φ = (c, 0)", family_c)):
        counts = outcomes(family())
        failed = sum(n for outcome, n in counts.items() if outcome != "built")
        for outcome, n in sorted(counts.items(), key=lambda item: (item[0] != "built", -item[1], item[0])):
            print(f"| {name} | {outcome} | {n} |")
        print(f"| {name} | **failed** | **{failed}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
