"""Write every output of the benchmark's jobs, for a byte-for-byte diff.

    PYTHONPATH=src python .github/cli_outputs.py OUTDIR

For seeds 1-3, the ``certify`` and ``spectrum`` inputs of
``perfbench/workloads.py`` are written under OUTDIR and every job of their
cycles runs through ``thermoshift.cli.run``; each job's directory keeps its
output files, ``exit_status.txt`` and ``stdout.txt``.  Each ``pressure-sweep``
job's result goes to ``pressure-sweep/seed<N>.txt`` as its ``repr``.  Two
documents that no benchmark job writes go to ``documents/``: a table measure
and a potential on a system that is not a full shift.  The
package is whatever ``thermoshift`` is importable; the workloads come from the
``perfbench/`` next to this script, so two runs of the same script against two
package sources are compared with ``diff -r``.  Nothing else under
``perfbench/`` is read.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import sys

import numpy as np

import thermoshift
from thermoshift import documents, measures, potentials, pressure, sft
from thermoshift.cli import run

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def cli_jobs(plan, root: str) -> None:
    inputs = os.path.join(root, "inputs")
    os.makedirs(inputs)
    plan.write_inputs(inputs)
    for index, job in enumerate(plan.jobs):
        out = os.path.join(root, f"{index}-{job.kind.replace('/', '-')}")
        command, config = job.argv
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = run([command, "--config", os.path.join(inputs, config), "--out", out])
            except SystemExit as exc:
                code = exc.code
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "exit_status.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"{code}\n")
        with open(os.path.join(out, "stdout.txt"), "w", encoding="utf-8") as fh:
            fh.write(stdout.getvalue())


def session_jobs(plan, path: str) -> None:
    objects = plan.write_inputs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as fh:
        for job in plan.jobs:
            result = plan.session_job((measures, potentials, pressure), objects, job.point)
            fh.write(f"{job.kind} {job.point}: {result!r}\n")


def document_dumps(root: str) -> None:
    os.makedirs(root)
    golden = sft.TransitionSystem(((1, 1), (1, 0)))
    chain = measures.MarkovMeasure.from_stochastic(golden, ((0.375, 0.625), (1.0, 0.0)))
    masses = {}
    for n in range(1, 5):
        words = sft.word_array(golden, n)
        masses.update(zip(map(tuple, words.tolist()), chain.mass_words(words).tolist()))
    t3 = sft.TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1)))
    words = sft.word_array(t3, 3).tolist()
    values = np.random.default_rng(3).uniform(-2.0, 2.0, len(words)).tolist()
    phi = potentials.LocallyConstantPotential(t3, 3, dict(zip(map(tuple, words), values)))
    table = measures.TableMeasure(golden, 4, masses)
    for name, text in (
        ("golden_table_measure.txt", documents.dump_measure(table)),
        ("t3_potential.txt", documents.dump_potential(phi)),
    ):
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = argv[0]
    print(f"thermoshift from {os.path.dirname(thermoshift.__file__)}", file=sys.stderr)
    for seed in SEEDS:
        for name in ("certify", "spectrum"):
            cli_jobs(workloads.PLANS[name](seed), os.path.join(outdir, name, f"seed{seed}"))
        sweep = os.path.join(outdir, "pressure-sweep")
        os.makedirs(sweep, exist_ok=True)
        session_jobs(workloads.PLANS["pressure-sweep"](seed), os.path.join(sweep, f"seed{seed}.txt"))
    document_dumps(os.path.join(outdir, "documents"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
