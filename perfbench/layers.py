"""Per-layer metrics from traced passes (see the table in README.md).

``*.self_s`` is a layer's self time per job (span time minus the time of the
traced calls it made), as the median over the jobs that call the layer;
``*.self_frac`` is the same self time summed over all traced jobs, as a share
of their summed wall time.  Counts are totals per pass and must repeat
exactly from pass to pass.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Optional

from tracer import merge, self_times

# metric prefix -> the traced names whose self time it sums
SELF_TIME_GROUPS = {
    "sft.word_array": ("sft.word_array",),
    "potentials.values_on_windows": ("potentials.values_on_windows",),
    "potentials.eta": ("potentials.eta",),
    "pressure.power_iteration": ("pressure.power_iteration",),
    "pressure.block_transfer": ("pressure.block_transfer",),
    "pressure.pressure_limit": ("pressure.pressure_limit",),
    "measures.build_rpf": ("measures.build_rpf",),
    "measures.validate_oracle": ("measures.validate_oracle",),
    "measures.certify_weak_gibbs": ("measures.certify_weak_gibbs",),
    "measures.log_mass_words": ("measures.log_mass_words",),
    "measures.atomfree_check": ("measures.atomfree_check",),
    "log_mass.check_gibbs_one": ("log_mass.check_gibbs_one",),
    "log_mass.checks": (
        "log_mass.check_pressure_zero",
        "log_mass.check_sandwich",
        "log_mass.check_asymptotic_additivity",
        "log_mass.check_almost_additivity",
    ),
    "interval_maps.check_ujr": ("interval_maps.check_ujr",),
    "multifractal.candidate_family": (
        "multifractal.bernoulli_candidate_family",
        "multifractal.markov_candidate_family",
    ),
    "multifractal.spectrum_variational": ("multifractal.spectrum_variational",),
    "documents.load": (
        "documents.load_config",
        "documents.load_map",
        "documents.load_measure",
        "documents.load_potential",
        "documents.load_system",
    ),
    "cli.run": ("cli.run",),
}
# measured on the traced input generation, against its wall time
SETUP_GROUPS = {
    "documents.dump": (
        "documents.dump_map",
        "documents.dump_measure",
        "documents.dump_potential",
        "documents.dump_system",
    ),
}
# metric name -> counter key
COUNTS = {
    "sft.word_array.rows": "sft.word_array.rows",
    "sft.enumerate_words.words": "sft.enumerate_words.words",
    "pressure.power_iteration.errors": "pressure.power_iteration.errors",
    "measures.mass.calls": "measures.mass",
    "measures.integrate.calls": "measures.integrate.calls",
    "measures.markov_measures_built": "measures.markov_measures_built",
    "multifractal.candidates_scored": "multifractal.candidates_scored",
}


def _group_of(groups: dict) -> dict[str, str]:
    return {name: prefix for prefix, names in groups.items() for name in names}


def _self_by_job(spans: list, groups: dict) -> dict[str, dict[Any, float]]:
    owner = _group_of(groups)
    out: dict[str, dict[Any, float]] = defaultdict(lambda: defaultdict(float))
    for name, job, seconds in self_times(spans):
        if name in owner:
            out[owner[name]][job] += seconds
    return out


def _pass_counts(trace: dict) -> dict[str, float]:
    counts = trace["counts"]
    calls = counts.get("sft.word_array.calls", 0)
    out = {name: float(counts.get(key, 0)) for name, key in COUNTS.items()}
    out["sft.word_array.hit_ratio"] = counts.get("sft.word_array.hits", 0) / calls if calls else 0.0
    out["pressure.block_order.max"] = float(trace["block_order_max"])
    return out


def layer_metrics(
    passes: list[list[dict]],
    job_seconds: list[float],
    setup: Optional[dict],
    overhead: float,
) -> tuple[dict[str, dict], bool]:
    """Per-layer metrics from the traces of whole passes; also whether counts repeat."""
    merged = [merge(exports) for exports in passes]
    spans: list = []
    for pass_index, trace in enumerate(merged):
        offset = len(spans)
        spans += [
            [name, start, end, parent + offset if parent >= 0 else -1, (pass_index, job)]
            for name, start, end, parent, job in trace["spans"]
        ]
    total = sum(job_seconds)
    metrics: dict[str, dict] = {}
    by_job = _self_by_job(spans, SELF_TIME_GROUPS)
    for prefix in SELF_TIME_GROUPS:
        per_job = list(by_job.get(prefix, {}).values())
        metrics[f"{prefix}.self_s"] = {"value": statistics.median(per_job) if per_job else 0.0, "unit": "s"}
        metrics[f"{prefix}.self_frac"] = {"value": sum(per_job) / total, "unit": "fraction"}
    setup_by_job = _self_by_job(setup["trace"]["spans"], SETUP_GROUPS) if setup else {}
    for prefix in SETUP_GROUPS:
        seconds = sum(setup_by_job.get(prefix, {}).values())
        metrics[f"{prefix}.self_s"] = {"value": seconds, "unit": "s"}
        metrics[f"{prefix}.self_frac"] = {"value": seconds / setup["s"] if setup else 0.0, "unit": "fraction"}
    counts = [_pass_counts(trace) for trace in merged]
    for name, value in counts[0].items():
        unit = "fraction" if name.endswith("ratio") else "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return metrics, all(c == counts[0] for c in counts)
