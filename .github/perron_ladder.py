"""Time the Perron solve on a size ladder: one dense eig against power_iteration.

    PYTHONPATH=src python .github/perron_ladder.py [OUT.json]

For alphabets k in {2..8, 10} and depths d in {3..7} with block order
k^(d-1) <= 128, two random tables on the full k-shift (``default_rng(0)``,
values uniform in [-0.5, 0.5] and in [-2, 2]) are laid on their block
transfer matrix.  Each row gives the order, the matrix-vector products
``power_iteration`` made (``steps``), the path it took (``iterate``: the
bracketed iteration accepted; ``iterate, then eig``: the iteration gave out
and the dense solve answered; ``eig``: below the order threshold), the
best-of-N in-process milliseconds of the dense eig formula alone (``before``)
and of ``power_iteration`` (``after``), and the relative gap of their roots.
``iterate_ms`` and ``iterate_path`` time ``power_iteration`` with its order
threshold lowered to 1, so that every order tries the iteration first: the
threshold is the least order at which ``order`` steps cost less than one eig.
The rows go to stdout as a Markdown table and, given a path, to a JSON file.
One BLAS thread, as in the benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools
import json
import platform
import sys
import timeit

import numpy as np

from thermoshift import LocallyConstantPotential, TransitionSystem, power_iteration, pressure

ALPHABETS = (2, 3, 4, 5, 6, 7, 8, 10)
DEPTHS = (3, 4, 5, 6, 7)
MAX_ORDER = 128
SPREADS = (0.5, 2.0)
REPEATS = 20


def eig_solve(m: np.ndarray) -> float:
    """The Perron root by one dense eig, as power_iteration takes it below
    its order threshold, with its gap and residual tests."""
    values, vectors = np.linalg.eig(m)
    v = np.abs(vectors[:, int(np.argmax(values.real))])
    v /= v.sum()
    w = m @ v
    lam = float(w.sum())
    w /= lam
    moduli = np.sort(np.abs(values))
    if moduli[-2] >= (1.0 - 1e-9) * moduli[-1] or np.max(np.abs(m @ w - lam * w)) > 1e-13 * lam:
        raise RuntimeError("the dense solve refuses this matrix")
    return lam


class _Counted(np.ndarray):
    """A matrix that counts its products with a vector."""

    products = 0

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            _Counted.products += 1
        return np.asarray(self) @ other


def trace_path(m: np.ndarray) -> tuple[int, str]:
    """(matrix-vector products, path) of one power_iteration call on m."""
    eig = np.linalg.eig
    before_eig: list[int] = []

    def spied(a):
        before_eig.append(_Counted.products)
        return eig(a)

    _Counted.products = 0
    np.linalg.eig = spied
    try:
        power_iteration(m.view(_Counted))
    finally:
        np.linalg.eig = eig
    if not before_eig:
        return _Counted.products, "iterate"
    return _Counted.products, "iterate, then eig" if before_eig[0] else "eig"


def best_ms(solve, m: np.ndarray) -> float:
    timer = timeit.Timer(lambda: solve(m))
    number = max(1, int(5e-3 / min(timer.repeat(3, 1))))
    return 1e3 * min(timer.repeat(REPEATS, number)) / number


def ladder() -> list[dict]:
    rng = np.random.default_rng(0)
    rows = []
    for k, d in itertools.product(ALPHABETS, DEPTHS):
        order = k ** (d - 1)
        if order > MAX_ORDER:
            continue
        ts = TransitionSystem.full_shift(k)
        words = list(itertools.product(range(1, k + 1), repeat=d))
        for spread in SPREADS:
            table = dict(zip(words, rng.uniform(-spread, spread, len(words)).tolist()))
            m = pressure.block_transfer(LocallyConstantPotential(ts, d, table)).matrix
            steps, path = trace_path(m)
            reference, root = eig_solve(m), power_iteration(m)[0]
            row = {
                "k": k, "depth": d, "order": order, "table": f"U[-{spread}, {spread}]",
                "steps": steps, "path": path,
                "before_ms": round(best_ms(eig_solve, m), 4),
                "after_ms": round(best_ms(power_iteration, m), 4),
                "root_rel_gap": abs(root - reference) / reference,
            }
            threshold, pressure._ITERATE_ORDER = pressure._ITERATE_ORDER, 1
            try:
                row["iterate_path"] = trace_path(m)[1]
                row["iterate_ms"] = round(best_ms(power_iteration, m), 4)
            finally:
                pressure._ITERATE_ORDER = threshold
            rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: perron_ladder.py [OUT.json]", file=sys.stderr)
        return 2
    rows = ladder()
    print("| k | d | order | table | steps | path | eig ms | power_iteration ms | root gap | iterate-first ms |")
    print("|---:|---:|---:|---|---:|---|---:|---:|---:|---:|")
    for r in rows:
        print(
            f"| {r['k']} | {r['depth']} | {r['order']} | {r['table']} | {r['steps']} | {r['path']} "
            f"| {r['before_ms']:.3f} | {r['after_ms']:.3f} | {r['root_rel_gap']:.1e} "
            f"| {r['iterate_ms']:.3f} ({r['iterate_path']}) |"
        )
    if argv:
        meta = {
            "what": "Perron solve per block order: one dense eig (before) against power_iteration (after), "
            "best of %d in-process, one BLAS thread" % REPEATS,
            "machine": f"{platform.machine()}, {os.cpu_count()} cores, python {platform.python_version()}, "
            f"numpy {np.__version__}",
        }
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({**meta, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
