"""Command-line interface: reproducible runs, CSV + JSON emission.

Seven subcommands (sft-check, pressure, gibbs-build, weakgibbs-certify,
psi-verify, map-check, spectrum) share one shape: a JSON config names the
input documents and parameters, every run writes a ``result.json`` (sorted
keys, input hashes, every verdict and witness; the certifying commands add
a ``diagnostics`` entry naming the route that found K*(n), and psi-verify
the route of each structured check) plus CSV tables
carrying all numeric series, and the exit status is 0 for pass/complete, 1
when a check fails (reports still written), 2 for input errors, 3 for an
internal error (one ``internal error: <Type>: <message>`` line on stderr, no
traceback).
Identical configs and inputs produce byte-identical outputs: no timestamps,
fixed enumeration orders, and the only randomness (general-map sampling)
flows from the seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import json
import os
import sys
from typing import Any, Iterable, Optional, Sequence

from . import __version__
from .documents import (
    DocumentError,
    format_float,
    load_config,
    load_map,
    load_measure,
    load_potential,
    load_system,
    dump_measure,
    sha256_file,
)
from .interval_maps import check_ujr
from .log_mass import (
    build_log_mass_sequence,
    check_almost_additivity,
    check_asymptotic_additivity,
    check_gibbs_one,
    check_pressure_zero,
    check_sandwich,
)
from .measures import (
    MarkovMeasure,
    WeakGibbsCertificate,
    build_rpf,
    certify_weak_gibbs,
    validate_oracle,
)
from .potentials import AdditiveSequence
from .pressure import pressure_limit, pressure_spectral
from .multifractal import (
    bernoulli_candidate_family,
    legendre_deviation,
    legendre_levels,
    markov_candidate_family,
    spectrum_search,
)

class _InputError(Exception):
    """Anything that should terminate with exit status 2."""


def _cell(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def _write_csv(out: str, name: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(os.path.join(out, name), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(x) for x in row])


def _write_result(out: str, command: str, inputs: dict, **fields: Any) -> None:
    """result.json: the command, input hashes and package version, plus fields."""
    obj = {"command": command, "inputs": inputs, "package_version": __version__, **fields}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_kstar(out: str, cert: WeakGibbsCertificate) -> None:
    _write_csv(
        out,
        "kstar.csv",
        ("n", "kstar", "log_kstar_over_n"),
        [(n, k, math.log(k) / n) for n, k in cert.kstar],
    )


def _load_doc(cfg: dict, key: str, loader, base: str, inputs: dict) -> Any:
    path = os.path.join(base, cfg[key])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {key} document {path}: {exc}") from exc
    inputs[cfg[key]] = sha256_file(path)
    try:
        return loader(text)
    except DocumentError as exc:
        raise _InputError(f"{key} document {path}: {exc}") from exc


def _checked_potential(cfg: dict, base: str, inputs: dict):
    """The potential document, checked against the optional system document."""
    phi = _load_doc(cfg, "potential", load_potential, base, inputs)
    if cfg["system"] is not None:
        ts = _load_doc(cfg, "system", load_system, base, inputs)
        if ts.matrix != phi.system.matrix:
            raise _InputError("system document disagrees with the potential's system")
    return phi


def _resolved_pressure(cfg: dict, phi) -> float:
    """The pressure constant to certify against: explicit or spectral."""
    p = cfg["pressure"]
    return pressure_spectral(phi) if p == "spectral" else float(p)


def _diagnostics(cert: WeakGibbsCertificate) -> dict:
    """How a certificate's K*(n) were found; deterministic, no timings."""
    return {"kstar_route": cert.route, "block_graph_order": cert.block_order}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sft_check(cfg, out, inputs, args) -> int:
    ts = _load_doc(cfg, "system", load_system, args.base, inputs)
    n_max = cfg["n_max"]
    exponent = ts.mixing_exponent()
    rows = [(n, ts.count_words(n), ts.count_periodic(n)) for n in range(1, n_max + 1)]
    _write_csv(out, "counts.csv", ("n", "admissible_words", "periodic_points"), rows)
    passed = exponent is not None
    _write_result(
        out,
        "sft-check",
        inputs,
        parameters={"n_max": n_max},
        summary={
            "alphabet": ts.k,
            "mixing_exponent": exponent,
            "counts_csv": "counts.csv",
        },
        passed=passed,
    )
    print(f"sft-check: {'mixing' if passed else 'NOT mixing'} (k = {ts.k})")
    return 0 if passed else 1


def _cmd_pressure(cfg, out, inputs, args) -> int:
    phi = _checked_potential(cfg, args.base, inputs)
    method, n_min, n_max, tol = cfg["method"], cfg["n_min"], cfg["n_max"], cfg["tol"]
    methods = ("cylinder", "periodic", "spectral") if method == "all" else (method,)
    finite_rows, summary_rows, estimates = [], [], {}
    for m in methods:
        est = pressure_limit(m, phi, n_min, n_max)
        estimates[m] = est
        for n, v in est.finite_n_values:
            finite_rows.append((n, m, v))
        summary_rows.append((m, est.extrapolated, est.error_bar))
    _write_csv(out, "pressure_finite_n.csv", ("n", "method", "estimate"), finite_rows)
    _write_csv(out, "pressure_summary.csv", ("method", "extrapolated", "error_bar"), summary_rows)
    passed = True
    agreement = {}
    if "spectral" in estimates:
        p_ref = estimates["spectral"].extrapolated
        for m, est in estimates.items():
            if m == "spectral":
                continue
            gap = abs(est.extrapolated - p_ref)
            agreement[m] = gap
            if gap > est.error_bar + tol:
                passed = False
    _write_result(
        out,
        "pressure",
        inputs,
        parameters={"method": method, "n_min": n_min, "n_max": n_max, "tol": tol},
        summary={
            m: {"extrapolated": e.extrapolated, "error_bar": e.error_bar}
            for m, e in estimates.items()
        },
        agreement_gaps=agreement,
        passed=passed,
    )
    for m, est in estimates.items():
        print(f"pressure[{m}] = {est.extrapolated!r} (error bar {est.error_bar!r})")
    return 0 if passed else 1


def _cmd_gibbs_build(cfg, out, inputs, args) -> int:
    phi = _checked_potential(cfg, args.base, inputs)
    data = build_rpf(phi)
    n_max = cfg["certify_n_max"]
    cert = certify_weak_gibbs(data, AdditiveSequence(phi), data.pressure, n_max)
    with open(os.path.join(out, "rpf_measure.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_measure(data))
    _write_kstar(out, cert)
    _write_result(
        out,
        "gibbs-build",
        inputs,
        diagnostics=_diagnostics(cert),
        parameters={"certify_n_max": n_max},
        summary={
            "perron_root": data.lam,
            "pressure": data.pressure,
            "gibbs_constant": cert.gibbs_constant,
            "verdict": cert.verdict,
            "measure_document": "rpf_measure.txt",
        },
        passed=cert.verdict == "gibbs",
    )
    print(f"gibbs-build: verdict {cert.verdict}, pressure {data.pressure!r}")
    return 0 if cert.verdict == "gibbs" else 1


def _certification_depth_cap(oracle, phi, requested: int) -> int:
    """The oracle's ``longest_word`` (a table's depth) caps n so that every
    ratio (word length max(n, n + depth(φ) − 1)) stays answerable."""
    longest = oracle.longest_word()
    if longest is None:
        return requested
    cap = longest - (phi.depth - 1)
    if cap < 4:
        raise _InputError(
            f"mass table of depth {longest} is too shallow to certify "
            f"a depth-{phi.depth} potential (needs at least {phi.depth + 3})"
        )
    return min(requested, cap)


def _cmd_weakgibbs_certify(cfg, out, inputs, args) -> int:
    oracle = _load_doc(cfg, "measure", load_measure, args.base, inputs)
    phi = _load_doc(cfg, "potential", load_potential, args.base, inputs)
    if oracle.system.matrix != phi.system.matrix:
        raise _InputError("measure and potential documents use different systems")
    validate_n = min(cfg["validate_n_max"], oracle.longest_word() or math.inf)
    check = validate_oracle(oracle, n_max=validate_n)
    if not check.passed:
        detail = {
            "total_mass_ok": check.total_mass_ok,
            "additivity_gap": check.additivity_gap,
            "additivity_witness": list(check.additivity_witness or ()) or None,
            "positivity_ok": check.positivity_ok,
            "zero_mass_witness": list(check.zero_mass_witness or ()) or None,
        }
        _write_result(
            out,
            "weakgibbs-certify",
            inputs,
            error="measure oracle failed validation",
            validation=detail,
        )
        if check.additivity_witness is not None:
            print(
                "input error: masses are not additive at word "
                f"{check.additivity_witness} (gap {check.additivity_gap!r})",
                file=sys.stderr,
            )
        else:
            print("input error: measure oracle failed validation", file=sys.stderr)
        return 2
    p = _resolved_pressure(cfg, phi)
    n_max = _certification_depth_cap(oracle, phi, cfg["n_max"])
    tau = cfg["tau"]
    cert = certify_weak_gibbs(oracle, AdditiveSequence(phi), p, n_max, tau)
    _write_kstar(out, cert)
    _write_result(
        out,
        "weakgibbs-certify",
        inputs,
        diagnostics=_diagnostics(cert),
        parameters={"n_max": n_max, "tau": tau, "pressure_used": p},
        summary={
            "verdict": cert.verdict,
            "gibbs_constant": cert.gibbs_constant,
            "rate": cert.rate,
            "implied_pressure_shift": cert.implied_pressure_shift,
        },
        passed=cert.verdict != "rejected",
    )
    print(f"verdict: {cert.verdict}")
    return 0 if cert.verdict != "rejected" else 1


def _cmd_psi_verify(cfg, out, inputs, args) -> int:
    oracle = _load_doc(cfg, "measure", load_measure, args.base, inputs)
    seq = build_log_mass_sequence(oracle)
    ref = seq.family_member(1)
    if ref is None:
        raise _InputError(
            "psi-verify needs a measure with a derivable reference potential "
            "(markov or rpf kind)"
        )
    p = _resolved_pressure(cfg, ref)
    n_max = _certification_depth_cap(oracle, ref, cfg["n_max"])
    tau = cfg["tau"]
    target = AdditiveSequence(ref)
    cert = certify_weak_gibbs(oracle, target, p, n_max, tau)
    constant = cert.gibbs_constant or max(k for _, k in cert.kstar)
    family_index = cfg["family_index"]
    r_gibbs = check_gibbs_one(seq, n_max)
    r_zero = check_pressure_zero(seq, cfg["pressure_n_max"], tau)
    r_sandwich = check_sandwich(seq, target, p, cert, n_max)
    r_asym = check_asymptotic_additivity(seq, target, p, family_index, n_max, cert)
    r_almost = check_almost_additivity(seq, constant, cfg["almost_additive_bound"])
    checks = {
        "gibbs_one": r_gibbs.passed,
        "pressure_zero": r_zero.passed,
        "sandwich": r_sandwich.passed,
        "asymptotic_additivity": r_asym.passed,
        "almost_additivity": r_almost.passed,
    }
    _write_kstar(out, cert)
    _write_csv(out, "pressure_zero.csv", ("n", "estimate"), r_zero.estimate.finite_n_values)
    _write_csv(out, "sandwich.csv", ("n", "slack"), zip(r_sandwich.n_values, r_sandwich.slacks))
    _write_csv(
        out,
        "asymptotic_additivity.csv",
        ("n", "defect", "bound"),
        list(zip(r_asym.n_values, r_asym.defects, r_asym.bounds)),
    )
    _write_csv(
        out,
        "checks.csv",
        ("check", "passed", "headline", "value"),
        [
            ("gibbs_one", r_gibbs.passed, "max_rel_error", r_gibbs.max_rel_error),
            ("pressure_zero", r_zero.passed, "extrapolated", r_zero.estimate.extrapolated),
            ("sandwich", r_sandwich.passed, "worst_slack", r_sandwich.worst_slack),
            ("asymptotic_additivity", r_asym.passed, "worst_tail_excess", r_asym.worst_tail_excess),
            ("almost_additivity", r_almost.passed, "worst_defect", r_almost.worst_defect),
        ],
    )
    _write_result(
        out,
        "psi-verify",
        inputs,
        diagnostics={
            **_diagnostics(cert),
            "check_routes": {
                "pressure_zero": r_zero.route,
                "asymptotic_additivity": r_asym.route,
                "almost_additivity": r_almost.route,
            },
        },
        parameters={
            "n_max": n_max,
            "tau": tau,
            "pressure_used": p,
            "family_index": family_index,
            "gibbs_constant": constant,
        },
        summary={
            "verdict": cert.verdict,
            "checks": checks,
            "gibbs_one_max_rel_error": r_gibbs.max_rel_error,
            "pressure_zero_extrapolated": r_zero.estimate.extrapolated,
            "pressure_zero_error_bar": r_zero.estimate.error_bar,
            "sandwich_worst_slack": r_sandwich.worst_slack,
            "asymptotic_worst_tail_excess": r_asym.worst_tail_excess,
            "almost_additive_worst_defect": r_almost.worst_defect,
            "almost_additive_budget": 3.0 * r_almost.log_constant,
        },
        passed=all(checks.values()),
    )
    for name, ok in checks.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def _cmd_map_check(cfg, out, inputs, args) -> int:
    emap = _load_doc(cfg, "map", load_map, args.base, inputs)
    n_max = cfg["n_max"] or (14 if emap.kind == "piecewise_linear" else 30)
    seed, sample_size = cfg["seed"], cfg["sample_size"]
    report = check_ujr(emap, n_max, sample_size=sample_size, seed=seed)
    closed_form = report.kind == "piecewise_linear"
    header, cols = ("n", "m_value"), [report.n_values, report.m_values]
    if report.sampling_spread is not None:
        header, cols = header + ("sampling_spread",), cols + [report.sampling_spread]
    _write_csv(out, "ujr.csv", header, zip(*cols))
    _write_result(
        out,
        "map-check",
        inputs,
        parameters={"n_max": n_max, "sample_size": sample_size, "seed": seed},
        diagnostics={
            "route": "closed-form" if closed_form else "sampled",
            "prefixes_scored": 0 if closed_form else sample_size * n_max,
        },
        summary={
            "kind": report.kind,
            "certified": report.certified,
            "tail_from": report.tail_from,
            "max_m": max(report.m_values),
            "last_m": report.m_values[-1],
        },
        passed=report.passed,
    )
    print(
        f"map-check[{report.kind}]: M({n_max}) = {report.m_values[-1]!r}, "
        f"{'nonincreasing tail' if report.passed else 'TAIL NOT MONOTONE'}"
    )
    return 0 if report.passed else 1


def _is_product_measure(mu) -> bool:
    return isinstance(mu, MarkovMeasure) and all(
        row == mu.stationary for row in mu.rows
    )


def _cmd_spectrum(cfg, out, inputs, args) -> int:
    emap = _load_doc(cfg, "map", load_map, args.base, inputs)
    if emap.kind != "piecewise_linear":  # before the Legendre cross-check reads its slopes
        raise _InputError("the variational search is defined for linear maps only")
    mus = [_load_doc({"m": rel}, "m", load_measure, args.base, inputs) for rel in cfg["measures"]]
    step, delta, qdepth = cfg["step"], cfg["delta"], cfg["quadrature_depth"]
    ts = emap.coding
    full = ts.is_full
    family = bernoulli_candidate_family(ts, step) if full else markov_candidate_family(ts, step)
    legendre_p: Optional[float] = None
    if len(mus) == 1 and full and ts.k == 2 and _is_product_measure(mus[0]):
        legendre_p = mus[0].stationary[0]
    if cfg["alpha_grid"] is not None:
        alphas = [tuple(a) if isinstance(a, list) else (a,) for a in cfg["alpha_grid"]]
    elif cfg["alpha_count"] is not None and legendre_p is not None:
        alphas = [(a,) for a in legendre_levels(legendre_p, emap.slopes, cfg["alpha_count"])]
    else:
        raise _InputError(
            "give 'alpha_grid' explicitly (or 'alpha_count' with a single "
            "Bernoulli reference on a 2-branch full-shift map)"
        )
    for a in alphas:
        if len(a) != len(mus):
            raise _InputError("each alpha grid entry needs one level per measure")
    points = spectrum_search(
        emap, mus, alphas, family=family, delta=delta, quadrature_depth=qdepth
    )
    if legendre_p is not None:
        levels = [a[0] for a in alphas]
        f_legs, max_dev = legendre_deviation(legendre_p, emap.slopes, levels, points)
    rows = []
    flagged = False
    for i, (a, point) in enumerate(zip(alphas, points)):
        flagged = flagged or point.comparison_flagged
        arg = (
            ";".join(format_float(x) for x in point.argmax_parameter)
            if point.argmax_parameter
            else ""
        )
        rows.append(
            (
                ";".join(format_float(x) for x in a),
                point.f if point.f is not None else "",
                "variational",
                point.feasible,
                arg,
            )
        )
        if legendre_p is not None:
            f_leg = f_legs[i]
            rows.append(
                (
                    format_float(a[0]),
                    f_leg if f_leg is not None else "",
                    "legendre",
                    f_leg is not None,
                    "",
                )
            )
    _write_csv(out, "spectrum.csv", ("alpha", "f", "method", "feasible", "argmax_parameters"), rows)
    summary: dict[str, Any] = {
        "family": family.label,
        "candidates": len(family.parameters),
        "levels": len(alphas),
        "comparison_flagged": flagged,
    }
    if legendre_p is not None:
        summary["legendre_p"] = legendre_p
        summary["max_deviation_vs_legendre"] = max_dev
    _write_result(
        out,
        "spectrum",
        inputs,
        parameters={"step": step, "delta": delta, "quadrature_depth": qdepth},
        summary=summary,
        passed=not flagged,
    )
    print(
        f"spectrum: {len(alphas)} levels, family {family.label}"
        + (f", max deviation vs legendre {max_dev!r}" if legendre_p is not None else "")
    )
    return 0 if not flagged else 1


_DISPATCH = {
    "sft-check": _cmd_sft_check,
    "pressure": _cmd_pressure,
    "gibbs-build": _cmd_gibbs_build,
    "weakgibbs-certify": _cmd_weakgibbs_certify,
    "psi-verify": _cmd_psi_verify,
    "map-check": _cmd_map_check,
    "spectrum": _cmd_spectrum,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="Non-additive thermodynamic formalism at desk scale",
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", help="output directory (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    args.base = os.path.dirname(os.path.abspath(args.config))
    out = os.path.join(args.base, args.out or cfg["out"])  # an absolute out stays as it is
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"input error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2
    inputs = {os.path.basename(args.config): sha256_file(args.config)}
    try:
        return _DISPATCH[args.command](cfg, out, inputs, args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        # module error taxonomy (NotMixingError, EigensolverError, zero-mass
        # cylinders, inverse-branch failures, ...) — all input-induced
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a defect of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
