"""Time oracle validation, cold word enumeration and the Gibbs-one check on a size ladder.

    PYTHONPATH=src python .github/validation_ladder.py [OUT.json [BEFORE.json]]

For alphabets k in {2, 3, 4, 10} and word lengths n in {6, 8, 10} with
k^n <= 10^6, the oracle is the exact Gibbs measure (``build_rpf``) of a
depth-2 table on the full k-shift, values uniform in [-1, 1] from
``default_rng(k)``: a stationary chain on k states.  Three kernels are
timed, each from a cleared word-array cache, as in a fresh CLI process:
``validate_oracle`` to length n (``route`` names how it cleared the
oracle), ``word_array`` at lengths 1, 2, ..., n in turn, and
``check_gibbs_one`` to length n.  Each time is the best of ``REPEATS``
in-process runs, in milliseconds.  One BLAS thread, as in the benchmark.

The rows go to stdout as a Markdown table and, given OUT.json, to that file.
Given also BEFORE.json (the OUT.json of an earlier checkout, say the parent
commit), each row carries that file's times and route as its ``before``
entry.  A report without a ``route`` field comes from a version that
enumerated every oracle.
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

from thermoshift import LocallyConstantPotential, TransitionSystem, build_rpf, check_gibbs_one
from thermoshift import validate_oracle, word_array
from thermoshift.log_mass import LogMassSequence

ALPHABETS = (2, 3, 4, 10)
LENGTHS = (6, 8, 10)
MAX_WORDS = 10**6
REPEATS = 9
KERNELS = ("validate_ms", "word_array_ms", "gibbs_one_ms")


def best_cold_ms(run) -> float:
    """Best of REPEATS single runs, each after clearing the word-array cache."""
    timer = timeit.Timer(run, setup=word_array.cache_clear)
    return round(1e3 * min(timer.repeat(REPEATS, 1)), 4)


def ladder() -> list[dict]:
    rows = []
    for k, n in itertools.product(ALPHABETS, LENGTHS):
        if k**n > MAX_WORDS:
            continue
        ts = TransitionSystem.full_shift(k)
        words = list(itertools.product(range(1, k + 1), repeat=2))
        values = np.random.default_rng(k).uniform(-1.0, 1.0, len(words)).tolist()
        oracle = build_rpf(LocallyConstantPotential(ts, 2, dict(zip(words, values))))
        report = validate_oracle(oracle, n)
        if not report.passed:
            raise RuntimeError(f"k = {k}, n = {n}: the oracle fails validation")
        rows.append(
            {
                "k": k, "n": n, "words": k**n,
                "route": getattr(report, "route", "enumeration"),
                "validate_ms": best_cold_ms(lambda: validate_oracle(oracle, n)),
                "word_array_ms": best_cold_ms(lambda: [word_array(ts, j) for j in range(1, n + 1)]),
                "gibbs_one_ms": best_cold_ms(lambda: check_gibbs_one(LogMassSequence(oracle), n)),
            }
        )
    return rows


def cell(row: dict, key: str) -> str:
    if "before" not in row:
        return f"{row[key]}"
    return f"{row['before'][key]} → {row[key]}"


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: validation_ladder.py [OUT.json [BEFORE.json]]", file=sys.stderr)
        return 2
    rows = ladder()
    if len(argv) == 2:
        with open(argv[1], encoding="utf-8") as fh:
            before = {(r["k"], r["n"]): r for r in json.load(fh)["rows"]}
        for r in rows:
            r["before"] = {key: before[r["k"], r["n"]][key] for key in ("route",) + KERNELS}
    print("| k | n | words | route | validate_oracle ms | word_array 1..n ms | check_gibbs_one ms |")
    print("|---:|---:|---:|---|---:|---:|---:|")
    for r in rows:
        print(
            f"| {r['k']} | {r['n']} | {r['words']} | {cell(r, 'route')} | {cell(r, 'validate_ms')} "
            f"| {cell(r, 'word_array_ms')} | {cell(r, 'gibbs_one_ms')} |"
        )
    if argv:
        meta = {
            "what": "validate_oracle, word_array at lengths 1..n and check_gibbs_one on the rpf chain of a "
            "depth-2 table on the full k-shift, from a cleared word-array cache; best of %d in-process, "
            "one BLAS thread; ms" % REPEATS,
            "machine": f"{platform.machine()}, {os.cpu_count()} cores, python {platform.python_version()}, "
            f"numpy {np.__version__}",
        }
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({**meta, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
