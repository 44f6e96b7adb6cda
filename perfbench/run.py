"""thermoshift benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  Jobs run one at a time (one client, closed loop).  CLI
workloads run each job in a child forked after ``import thermoshift.cli``;
``pressure-sweep`` runs in this process.  The last line of standard output
is one JSON object: end-to-end metrics with ``--trace 0``; with ``--trace 1``,
per-layer metrics from traced passes that alternate with untraced ones.
Exit status 2 means the benchmark could not run (no package to import, bad
arguments).
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings, and fork stays safe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

IMPORT_SAMPLES = 7
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "thermoshift", "cli.py")):
        fail(f"no package source at {SRC}/thermoshift; run from a thermoshift checkout")
    sys.path.insert(0, SRC)
    import thermoshift.cli  # noqa: F401  (fork children start from this state)

    if not os.path.abspath(thermoshift.cli.__file__).startswith(SRC + os.sep):
        fail(f"imported thermoshift from {thermoshift.cli.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# processes


def fork_call(fn, *args) -> tuple[Any, Any]:
    """Run fn(*args) in a forked child; return (its JSON-able result, rusage).

    The child's stdout and stderr go to /dev/null.  A child that dies before
    reporting yields result None.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            payload = json.dumps(fn(*args)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, _, usage = os.wait4(pid, 0)
    return (json.loads(data) if data else None), usage


def import_seconds() -> float:
    """Wall time of a fresh interpreter running ``import thermoshift.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import thermoshift.cli"], cwd=ROOT, env=env, check=True
    )
    return time.perf_counter() - t0


def install_tracer(job: Any):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job = job
    return tracer


def timed_inputs(plan, directory: str, traced: bool) -> dict:
    """Child body: write the workload's inputs once and time it."""
    tracer = install_tracer("setup") if traced else None
    t0 = time.perf_counter()
    plan.write_inputs(directory)
    return {"s": time.perf_counter() - t0, "trace": tracer.export() if tracer else None}


class SetupSampler:
    """Set-up time samples, spread over the run so that they see the same
    machine as the jobs: fresh interpreters running ``import thermoshift.cli``
    and forked children generating the inputs.

    Generation runs in children so that the package's caches in this process
    stay cold for the CLI children forked later.  The first generation also
    writes the inputs the jobs read; later ones rewrite the same bytes.
    """

    def __init__(self, plan, inputs: str) -> None:
        self.plan = plan
        self.inputs = inputs
        self.imports: list[float] = []
        self.generations: list[float] = []
        import_seconds()  # untimed: compiles the bytecode of a fresh checkout
        self._generate()

    def _generate(self) -> None:
        result, _ = fork_call(timed_inputs, self.plan, self.inputs, False)
        if result is None:
            fail("input generation failed")
        self.generations.append(result["s"])

    def sample(self) -> None:
        """Take one more import and one more generation sample, if still short."""
        if len(self.imports) < IMPORT_SAMPLES:
            self.imports.append(import_seconds())
        if len(self.generations) < SETUP_SAMPLES:
            self._generate()

    def seconds(self) -> float:
        """Median import time plus median generation time."""
        while len(self.imports) < IMPORT_SAMPLES or len(self.generations) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.imports) + statistics.median(self.generations)


# ---------------------------------------------------------------------------
# jobs


def cli_child(argv: list[str], traced: bool, job_id: Any) -> dict:
    tracer = install_tracer(job_id) if traced else None
    t0 = time.perf_counter()
    try:
        code, error = sys.modules["thermoshift.cli"].run(argv), None
    except BaseException as exc:  # reported to the parent as a failed job
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return {"s": seconds, "code": code, "error": error, "trace": tracer.export() if tracer else None}


class Runner:
    """Runs whole passes of a plan's job cycle and keeps per-job records."""

    def __init__(self, plan, inputs: str) -> None:
        self.plan = plan
        self.inputs = inputs
        self.out = os.path.join(os.path.dirname(inputs), "out")
        self.objects = None
        self.session = None
        if plan.session_job is not None:
            from thermoshift import measures, potentials, pressure

            self.session = (measures, potentials, pressure)
            self.objects = plan.write_inputs(inputs)
        self.failures: list[str] = []

    def run_pass(self, traced: bool = False) -> tuple[list[float], list[bool], list[float], list[dict]]:
        """(job seconds, job passed, peak RSS MB per job, trace exports)."""
        times, ok, rss, traces = [], [], [], []
        tracer = install_tracer(None) if traced and self.session is not None else None
        try:
            for index, job in enumerate(self.plan.jobs):
                if self.session is not None:
                    seconds, passed, error = self._session_job(job, index, tracer)
                    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                else:
                    seconds, passed, error, mb, trace = self._cli_job(job, index, traced)
                    if trace is not None:
                        traces.append(trace)
                times.append(seconds)
                ok.append(passed)
                rss.append(mb)
                if not passed:
                    self.failures.append(f"{job.kind} (job {index}): {error}")
        finally:
            if tracer is not None:
                tracer.uninstall()
                traces.append(tracer.export())
        return times, ok, rss, traces

    def _session_job(self, job, index: int, tracer) -> tuple[float, bool, Optional[str]]:
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            result = self.plan.session_job(self.session, self.objects, job.point)
        except Exception as exc:
            return time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        try:
            job.check(result)
        except Exception as exc:
            return seconds, False, str(exc)
        return seconds, True, None

    def _cli_job(self, job, index: int, traced: bool):
        out_dir = os.path.join(self.out, str(index))
        shutil.rmtree(out_dir, ignore_errors=True)
        command, config = job.argv
        argv = [command, "--config", os.path.join(self.inputs, config), "--out", out_dir]
        result, usage = fork_call(cli_child, argv, traced, index)
        mb = usage.ru_maxrss / 1024.0
        if result is None:
            return 0.0, False, "job process died without reporting", mb, None
        if result["error"] is not None:
            return result["s"], False, result["error"], mb, result["trace"]
        try:
            job.check((result["code"], out_dir))
        except Exception as exc:
            return result["s"], False, str(exc), mb, result["trace"]
        return result["s"], True, None, mb, result["trace"]


# ---------------------------------------------------------------------------
# statistics


def tail_rank(n: int) -> int:
    """0-based rank of the highest sample with TAIL_BEYOND samples beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def describe_ranks(times: list[float], kinds: list[str]) -> str:
    order = sorted(range(len(times)), key=times.__getitem__)
    n = len(times)
    parts = []
    for label, rank in (("p50", n // 2), ("tail", tail_rank(n))):
        kind = kinds[order[rank]]
        lo = rank
        while lo > 0 and kinds[order[lo - 1]] == kind:
            lo -= 1
        hi = rank
        while hi < n - 1 and kinds[order[hi + 1]] == kind:
            hi += 1
        parts.append(f"{label} rank {rank} is {kind} (its run of ranks {lo}..{hi})")
    return "; ".join(parts)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# runs


def timed_run(runner: Runner, seconds: float, setup: SetupSampler) -> dict:
    if runner.session is not None:
        runner.run_pass()  # untimed warm-up fills the caches
        runner.failures.clear()
    times, ok, rss, kinds = [], [], [], []
    passes = 0
    wall = 0.0  # time in passes; set-up samples between passes stay out
    while wall < seconds or passes == 0:
        t0 = time.perf_counter()
        t, o, r, _ = runner.run_pass()
        wall += time.perf_counter() - t0
        times += t
        ok += o
        rss += r
        kinds += [job.kind for job in runner.plan.jobs]
        passes += 1
        setup.sample()
    n = len(times)
    rank = tail_rank(n)
    percentile = 100.0 * (rank + 1) / n
    print(
        f"{passes} passes, {n} jobs, {n - sum(ok)} failed, {wall:.2f} s; "
        f"job_s_tail is p{percentile:.1f} of {n} samples ({n - rank - 1} beyond); "
        + describe_ranks(times, kinds)
    )
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    print("median s per kind: " + ", ".join(f"{k} {statistics.median(v):.4f}" for k, v in by_kind.items()))
    return {
        "attempted": n,
        "failed": n - sum(ok),
        "metrics": {
            "jobs_per_s": metric(sum(ok) / wall, "1/s"),
            "job_s_p50": metric(statistics.median(times), "s"),
            "job_s_tail": metric(sorted(times)[rank], "s"),
            "peak_rss_mb": metric(max(rss), "MB"),
            "setup_s": metric(setup.seconds(), "s"),
        },
    }


def traced_run(runner: Runner, seconds: float, setup_trace: Optional[dict]) -> dict:
    from layers import layer_metrics

    if runner.session is not None:
        runner.run_pass()
        runner.failures.clear()
    plain, traced, traces = [], [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        for is_traced in (False, True):
            t, o, _, tr = runner.run_pass(traced=is_traced)
            (traced if is_traced else plain).extend(t)
            attempted += len(o)
            failed += len(o) - sum(o)
            if is_traced:
                traces.append(tr)
        if time.perf_counter() - t0 >= seconds:
            break
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics, repeat_ok = layer_metrics(traces, traced, setup_trace, overhead)
    print(f"{len(traces)} traced passes, {attempted} jobs, {failed} failed; counts repeat: {repeat_ok}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "counts_repeat": repeat_ok}


def main(argv: Optional[list[str]] = None) -> int:
    from workloads import PLANS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    try:
        plan = PLANS[args.workload](args.seed)
        if args.trace:
            setup_trace = fork_call(timed_inputs, plan, inputs, True)[0]
            runner = Runner(plan, inputs)
            report = traced_run(runner, args.seconds, setup_trace)
            correct = report.pop("counts_repeat")
        else:
            setup = SetupSampler(plan, inputs)
            runner = Runner(plan, inputs)
            report = timed_run(runner, args.seconds, setup)
            correct = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    for line in runner.failures[:20]:
        print(f"failed: {line}")
    correct = correct and report["failed"] == 0
    print(json.dumps({"correct": correct, **report}, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
