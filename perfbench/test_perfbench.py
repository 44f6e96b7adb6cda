"""Self-tests of the benchmark: oracles, tracer coverage, one-pass smoke runs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# oracles


def test_session_oracle_counts_a_wrong_number_as_failed(tmp_path):
    plan = workloads.sweep_plan(0)
    plan.jobs = plan.jobs[:3]
    runner = run.Runner(plan, str(tmp_path))
    _, ok, _, _ = runner.run_pass()
    assert ok == [True, True, True]
    # the same job checked against a reference one part in 10^6 away
    wrong = workloads.sweep_plan(0).jobs[0]
    real = wrong.check
    wrong.check = lambda result: real((result[0] * (1 + 1e-6),) + result[1:])
    plan.jobs = [wrong]
    _, ok, _, _ = runner.run_pass()
    assert ok == [False]
    assert "spectral" in runner.failures[-1]


def test_cli_oracle_counts_a_wrong_number_as_failed(tmp_path):
    plan = workloads.spectrum_plan(0)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    plan.write_inputs(str(inputs))
    job = next(j for j in plan.jobs if j.kind == "map-check/linear3")
    plan.jobs = [job]
    runner = run.Runner(plan, str(inputs))
    _, ok, _, _ = runner.run_pass()
    assert ok == [True]
    out = tmp_path / "out" / "0"
    text = (out / "ujr.csv").read_text().splitlines()
    text[-1] = text[-1].split(",")[0] + ",1e-300"
    (out / "ujr.csv").write_text("\n".join(text) + "\n")
    with pytest.raises(workloads.OracleError):
        job.check((0, str(out)))
    with pytest.raises(workloads.OracleError):
        job.check((1, str(out)))


# ---------------------------------------------------------------------------
# tracer


def test_tracer_leaves_no_unwrapped_reference_and_restores():
    targets = tracer.public_functions()
    assert "sft.word_array" in {name for name, _ in targets.values()}
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.unwrapped_references(targets) == []
        import thermoshift.cli
        import thermoshift.measures

        assert thermoshift.cli.certify_weak_gibbs is thermoshift.measures.certify_weak_gibbs
        assert thermoshift.cli.certify_weak_gibbs is not targets_by_name(targets)["measures.certify_weak_gibbs"]
        assert "mass" in vars(thermoshift.measures.MarkovMeasure)
        assert vars(thermoshift.measures.MarkovMeasure)["mass"].__wrapped__ is not None
    finally:
        t.uninstall()
    for name, fn in targets.values():
        layer, attr = name.split(".")
        assert getattr(sys.modules[f"thermoshift.{layer}"], attr) is fn


def targets_by_name(targets):
    return {name: fn for name, fn in targets.values()}


def test_traced_counts_repeat_across_runs():
    runs = [result_of(bench("--workload", "pressure-sweep", "--seed", "3", "--seconds", "0", "--trace", "1")) for _ in range(2)]
    for name in ("sft.word_array.rows", "sft.word_array.hit_ratio", "pressure.block_order.max"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
    assert runs[0]["metrics"]["pressure.block_order.max"]["value"] == 100


# ---------------------------------------------------------------------------
# smoke runs: one pass per workload, and the metric names of BENCHMARK.json


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_pass_smoke_run(workload):
    res = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"))
    assert res["correct"] is True
    assert res["failed"] == 0  # failed_frac 0 on every workload
    assert res["attempted"] == len(workloads.PLANS[workload](0).jobs)
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = result_of(bench("--workload", "spectrum", "--seed", "0", "--seconds", "0", "--trace", "1"))
    assert res["correct"] is True
    assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert res["metrics"]["multifractal.candidates_scored"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
