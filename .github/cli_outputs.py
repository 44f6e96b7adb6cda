"""Write every output of the benchmark's jobs, for a byte-for-byte diff.

    PYTHONPATH=src python .github/cli_outputs.py OUTDIR

For seeds 1-3, the ``certify`` and ``spectrum`` inputs of
``perfbench/workloads.py`` are written under OUTDIR and every job of their
cycles runs through ``thermoshift.cli.run``; each job's directory keeps its
output files, ``exit_status.txt`` and ``stdout.txt``.  Each ``pressure-sweep``
job's result goes to ``pressure-sweep/seed<N>.txt`` as its ``repr``.  The
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

import thermoshift
from thermoshift import measures, potentials, pressure
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
