"""End-to-end command-line runs against real document files.

Each test builds a small workspace under tmp_path, invokes ``run`` with
argv lists, and checks the exit status plus the artifacts on disk.  The
taxonomy under test: exit 0 = command completed and every check passed,
exit 1 = ran to completion but a verdict/check failed (reports are still
written), exit 2 = bad inputs of any kind, exit 3 = an internal error.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermoshift import (
    MarkovMeasure,
    TableMeasure,
    TransitionSystem,
    build_rpf,
    doubling_map,
    dump_map,
    full_branch_linear,
    dump_measure,
    dump_potential,
    dump_system,
    golden_mean_linear,
    load_measure,
    perturbed_doubling,
    sft,
    spectrum_crosscheck,
)
import thermoshift.cli as cli
from thermoshift.cli import run
from thermoshift.documents import CONFIG_FIELDS, REQUIRED
from thermoshift.potentials import LocallyConstantPotential

from conftest import brute_words

GOLDEN = TransitionSystem(((1, 1), (1, 0)))
FULL2 = TransitionSystem.full_shift(2)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path.name


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"version": 1, **payload}, indent=2, sort_keys=True) + "\n")
    return str(p)


def zero_potential(ts):
    return LocallyConstantPotential(ts, 1, {(s,): 0.0 for s in range(1, ts.k + 1)})


def result_of(out_dir):
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sft-check


def test_sft_check_passes_on_mixing_system(tmp_path, capsys):
    sys_name = write(tmp_path / "sys.txt", dump_system(GOLDEN))
    cfg = write_config(tmp_path, {"system": sys_name, "n_max": 6})
    out = str(tmp_path / "out")
    assert run(["sft-check", "--config", cfg, "--out", out]) == 0
    assert "mixing" in capsys.readouterr().out
    res = result_of(out)
    assert res["passed"] is True
    assert res["summary"]["mixing_exponent"] is not None
    with open(os.path.join(out, "counts.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,admissible_words,periodic_points"
    assert len(lines) == 7
    # golden mean counts follow the Fibonacci recursion
    assert lines[1] == "1,2,1" and lines[2] == "2,3,3" and lines[3] == "3,5,4"


def test_sft_check_fails_on_periodic_system(tmp_path, capsys):
    sys_name = write(tmp_path / "sys.txt", dump_system(TransitionSystem(((0, 1), (1, 0)))))
    cfg = write_config(tmp_path, {"system": sys_name})
    out = str(tmp_path / "out")
    assert run(["sft-check", "--config", cfg, "--out", out]) == 1
    assert "NOT mixing" in capsys.readouterr().out
    res = result_of(out)
    assert res["passed"] is False
    assert res["summary"]["mixing_exponent"] is None
    # the counts table is still written for a failing verdict
    assert os.path.exists(os.path.join(out, "counts.csv"))


# ---------------------------------------------------------------------------
# pressure


def pressure_workspace(tmp_path):
    sys_name = write(tmp_path / "sys.txt", dump_system(GOLDEN))
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(GOLDEN)))
    return sys_name, pot_name


def test_pressure_three_routes_agree(tmp_path, capsys):
    sys_name, pot_name = pressure_workspace(tmp_path)
    cfg = write_config(
        tmp_path, {"system": sys_name, "potential": pot_name, "n_max": 24}
    )
    out = str(tmp_path / "out")
    assert run(["pressure", "--config", cfg, "--out", out]) == 0
    res = result_of(out)
    golden_ratio = (1 + math.sqrt(5)) / 2
    for method in ("cylinder", "periodic", "spectral"):
        assert res["summary"][method]["extrapolated"] == pytest.approx(
            math.log(golden_ratio), abs=1e-5
        )
    assert set(res["agreement_gaps"]) == {"cylinder", "periodic"}
    with open(os.path.join(out, "pressure_summary.csv"), encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 4
    with open(os.path.join(out, "pressure_finite_n.csv"), encoding="utf-8") as fh:
        body = fh.read().splitlines()[1:]
    assert len(body) == 2 * 24  # spectral contributes no finite-n rows
    assert capsys.readouterr().out.count("pressure[") == 3


def test_pressure_single_method(tmp_path):
    _, pot_name = pressure_workspace(tmp_path)
    cfg = write_config(
        tmp_path, {"potential": pot_name, "method": "spectral"}
    )
    out = str(tmp_path / "out")
    assert run(["pressure", "--config", cfg, "--out", out]) == 0
    res = result_of(out)
    assert list(res["summary"]) == ["spectral"]
    assert res["agreement_gaps"] == {}


def test_pressure_rejects_unknown_method(tmp_path, capsys):
    _, pot_name = pressure_workspace(tmp_path)
    cfg = write_config(tmp_path, {"potential": pot_name, "method": "transfer"})
    assert run(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "input error" in capsys.readouterr().err


def test_pressure_rejects_mismatched_system(tmp_path, capsys):
    _, pot_name = pressure_workspace(tmp_path)
    other = write(tmp_path / "full.txt", dump_system(FULL2))
    cfg = write_config(tmp_path, {"system": other, "potential": pot_name})
    assert run(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "disagrees" in capsys.readouterr().err


def test_internal_errors_exit_3_with_one_line_and_no_traceback(tmp_path, capsys, monkeypatch):
    # a defect of the program, not of the input, must not read as "a check
    # failed": a pressure route that breaks stands in for one
    def broken(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "pressure_limit", broken)
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(FULL2)))
    cfg = write_config(tmp_path, {"potential": pot_name})
    assert run(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: ZeroDivisionError: float division by zero"]


LARGE_POTENTIALS = [
    pytest.param({(1,): 800.0, (2,): 800.0}, 800.0 + math.log(2.0), id="800"),
    pytest.param({(1,): 800.0, (2,): 0.0}, 800.0, id="800-0"),  # 800 + log(1 + e^-800)
    pytest.param({(1,): -800.0, (2,): -800.0}, -800.0 + math.log(2.0), id="-800"),
    # max − min = 709.5: shifted by max φ, the small entries would be subnormal
    pytest.param({(1,): 709.5, (2,): 0.0}, 709.5, id="709.5-0"),
]


def _refuse_non_finite(token):
    raise ValueError(f"non-finite JSON number {token}")


@pytest.mark.parametrize("table,pressure", LARGE_POTENTIALS)
def test_potentials_past_the_range_of_exp_give_their_pressure(tmp_path, table, pressure):
    # the transfer matrix is built as exp(φ − c), and every route adds c back
    pot_name = write(tmp_path / "phi.txt", dump_potential(LocallyConstantPotential(FULL2, 1, table)))
    cfg = write_config(tmp_path, {"potential": pot_name})
    out = str(tmp_path / "out")
    assert run(["pressure", "--config", cfg, "--out", out]) == 0
    for method, summary in result_of(out)["summary"].items():
        assert summary["extrapolated"] == pytest.approx(pressure, rel=1e-15), method


@pytest.mark.parametrize("table,pressure", LARGE_POTENTIALS)
def test_gibbs_build_on_potentials_past_the_range_of_exp_writes_only_finite_numbers(
    tmp_path, capsys, table, pressure
):
    pot_name = write(tmp_path / "phi.txt", dump_potential(LocallyConstantPotential(FULL2, 1, table)))
    cfg = write_config(tmp_path, {"potential": pot_name})
    out = tmp_path / "out"
    code = run(["gibbs-build", "--config", cfg, "--out", str(out)])
    assert code in (0, 2), capsys.readouterr().err
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_non_finite)
    if code == 0:
        assert result_of(out)["summary"]["pressure"] == pytest.approx(pressure, rel=1e-15)


def test_gibbs_build_of_a_potential_whose_chain_has_subnormal_entries(tmp_path, capsys):
    # φ = (709.5, 0): λ ≈ e^709.5 still fits a double, but h₂/h₁, Q₁₂ and
    # Q₂₂ are about e^−709.5, below the smallest normal double.  The other
    # LARGE_POTENTIALS may refuse (λ or h out of range), this one must build
    table = {(1,): 709.5, (2,): 0.0}
    pot_name = write(tmp_path / "phi.txt", dump_potential(LocallyConstantPotential(FULL2, 1, table)))
    cfg = write_config(tmp_path, {"potential": pot_name})
    out = tmp_path / "out"
    assert run(["gibbs-build", "--config", cfg, "--out", str(out)]) == 0, capsys.readouterr().err
    assert result_of(out)["summary"]["pressure"] == 709.5


def test_pressure_runs_are_byte_identical(tmp_path):
    sys_name, pot_name = pressure_workspace(tmp_path)
    cfg = write_config(
        tmp_path, {"system": sys_name, "potential": pot_name, "n_max": 12}
    )
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["pressure", "--config", cfg, "--out", out1]) == 0
    assert run(["pressure", "--config", cfg, "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2)) and names
    for name in names:
        with open(os.path.join(out1, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            assert first == fh.read(), name


# ---------------------------------------------------------------------------
# gibbs-build


def test_gibbs_build_emits_a_loadable_measure(tmp_path, capsys):
    table = {(1, 1): 0.0, (1, 2): 1.0, (2, 1): 0.0, (2, 2): 3.0}
    phi = LocallyConstantPotential(FULL2, 2, table)
    pot_name = write(tmp_path / "phi.txt", dump_potential(phi))
    cfg = write_config(tmp_path, {"potential": pot_name, "certify_n_max": 8})
    out = str(tmp_path / "out")
    assert run(["gibbs-build", "--config", cfg, "--out", out]) == 0
    assert "verdict gibbs" in capsys.readouterr().out
    res = result_of(out)
    assert res["passed"] is True
    with open(os.path.join(out, "rpf_measure.txt"), encoding="utf-8") as fh:
        rebuilt = load_measure(fh.read())
    assert rebuilt.potential.table == table
    with open(os.path.join(out, "kstar.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 9
    # the reported constant is the one the K*(n) table certifies
    top = max(float(row.split(",")[1]) for row in rows[1:])
    assert res["summary"]["gibbs_constant"] == pytest.approx(top, rel=1e-15)


# ---------------------------------------------------------------------------
# weakgibbs-certify


def certify_workspace(tmp_path, pressure):
    mu_name = write(
        tmp_path / "mu.txt", dump_measure(MarkovMeasure.maximal_entropy(GOLDEN))
    )
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(GOLDEN)))
    return write_config(
        tmp_path,
        {"measure": mu_name, "potential": pot_name, "pressure": pressure, "n_max": 14},
    )


def test_certify_parry_measure_for_zero_potential(tmp_path, capsys):
    golden_ratio = (1 + math.sqrt(5)) / 2
    cfg = certify_workspace(tmp_path, math.log(golden_ratio))
    out = str(tmp_path / "out")
    assert run(["weakgibbs-certify", "--config", cfg, "--out", out]) == 0
    assert "verdict: gibbs" in capsys.readouterr().out
    res = result_of(out)
    assert res["summary"]["verdict"] == "gibbs"
    assert res["summary"]["gibbs_constant"] == pytest.approx(math.sqrt(5), rel=1e-6)


def test_certifying_commands_record_the_kstar_route(tmp_path):
    cfg = certify_workspace(tmp_path, math.log((1 + math.sqrt(5)) / 2))
    psi_cfg = write_config(tmp_path, {"measure": "mu.txt", "n_max": 8}, "psi.json")
    phi = LocallyConstantPotential(
        FULL2, 3, {w: 0.25 * w.count(2) for w in brute_words(FULL2.matrix, 3)}
    )
    pot_name = write(tmp_path / "phi3.txt", dump_potential(phi))
    gibbs_cfg = write_config(tmp_path, {"potential": pot_name}, "gibbs.json")
    diagnostics = {}
    for command, config in (
        ("weakgibbs-certify", cfg),
        ("psi-verify", psi_cfg),
        ("gibbs-build", gibbs_cfg),
    ):
        out = str(tmp_path / command)
        assert run([command, "--config", config, "--out", out]) == 0
        diagnostics[command] = result_of(out)["diagnostics"]
    assert diagnostics == {
        # the golden-mean Parry chain: one state per symbol
        "weakgibbs-certify": {"kstar_route": "max-plus", "block_graph_order": 2},
        # and psi-verify's three structured checks read its block chain
        "psi-verify": {
            "kstar_route": "max-plus",
            "block_graph_order": 2,
            "check_routes": {
                "pressure_zero": "block-chain",
                "asymptotic_additivity": "max-plus",
                "almost_additivity": "cut-window",
            },
        },
        # a depth-3 potential: its RPF chain runs on the four 2-blocks
        "gibbs-build": {"kstar_route": "max-plus", "block_graph_order": 4},
    }


def test_certify_of_a_mass_table_records_the_enumeration_route(tmp_path):
    mu = MarkovMeasure.bernoulli(FULL2, (0.3, 0.7))
    masses = {w: mu.mass(w) for n in range(1, 7) for w in brute_words(FULL2.matrix, n)}
    mu_name = write(tmp_path / "mu.txt", dump_measure(TableMeasure(FULL2, 6, masses)))
    log_p = LocallyConstantPotential.from_symbol_values(FULL2, [math.log(x) for x in (0.3, 0.7)])
    pot_name = write(tmp_path / "phi.txt", dump_potential(log_p))
    cfg = write_config(tmp_path, {"measure": mu_name, "potential": pot_name, "pressure": 0.0})
    out = str(tmp_path / "out")
    assert run(["weakgibbs-certify", "--config", cfg, "--out", out]) == 0
    diagnostics = result_of(out)["diagnostics"]
    assert diagnostics == {"kstar_route": "enumeration", "block_graph_order": None}


def test_certify_of_a_table_too_shallow_for_the_potential_is_an_input_error(tmp_path, capsys):
    # a depth-4 table answers words up to length 4; a depth-2 potential needs
    # n + 1 of them, so n could reach only 3, below the least n_max of 4
    mu = MarkovMeasure.bernoulli(FULL2, (0.5, 0.5))
    masses = {w: mu.mass(w) for n in range(1, 5) for w in brute_words(FULL2.matrix, n)}
    mu_name = write(tmp_path / "mu.txt", dump_measure(TableMeasure(FULL2, 4, masses)))
    phi = LocallyConstantPotential(FULL2, 2, {w: 0.0 for w in brute_words(FULL2.matrix, 2)})
    pot_name = write(tmp_path / "phi.txt", dump_potential(phi))
    cfg = write_config(tmp_path, {"measure": mu_name, "potential": pot_name})
    out = tmp_path / "out"
    assert run(["weakgibbs-certify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: mass table of depth 4 is too shallow to certify a depth-2 "
        "potential (needs at least 5)"
    ]
    assert not (out / "kstar.csv").exists()


def test_certify_of_an_additive_table_with_a_zero_mass_word_is_an_input_error(tmp_path, capsys):
    # the chain never repeats symbol 2: its masses add up, but (2, 2) has mass 0
    mu = MarkovMeasure(FULL2, ((0.5, 0.5), (1.0, 0.0)), (2 / 3, 1 / 3))
    masses = {w: mu.mass(w) for n in range(1, 5) for w in brute_words(FULL2.matrix, n)}
    mu_name = write(tmp_path / "mu.txt", dump_measure(TableMeasure(FULL2, 4, masses)))
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(FULL2)))
    cfg = write_config(tmp_path, {"measure": mu_name, "potential": pot_name})
    out = str(tmp_path / "out")
    assert run(["weakgibbs-certify", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: measure oracle failed validation"
    ]
    validation = result_of(out)["validation"]
    assert validation["additivity_witness"] is None
    assert validation["positivity_ok"] is False
    assert validation["zero_mass_witness"] == [2, 2]


def test_certify_wrong_pressure_is_a_failed_check(tmp_path, capsys):
    golden_ratio = (1 + math.sqrt(5)) / 2
    cfg = certify_workspace(tmp_path, math.log(golden_ratio) + 0.05)
    out = str(tmp_path / "out")
    assert run(["weakgibbs-certify", "--config", cfg, "--out", out]) == 1
    assert "rejected" in capsys.readouterr().out
    res = result_of(out)
    assert res["passed"] is False
    assert res["summary"]["implied_pressure_shift"] == pytest.approx(0.05, rel=0.25)
    # a failed verdict still leaves the evidence behind
    assert os.path.exists(os.path.join(out, "kstar.csv"))


def test_certify_reports_corrupted_masses_as_input_error(tmp_path, capsys):
    masses = {}
    for n in range(1, 6):
        for w in brute_words(FULL2.matrix, n):
            masses[w] = MarkovMeasure.bernoulli(FULL2, (0.3, 0.7)).mass(w)
    table = TableMeasure(FULL2, 5, masses)
    table.masses[(1, 2)] += 1e-5
    mu_name = write(tmp_path / "mu.txt", dump_measure(table))
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(FULL2)))
    cfg = write_config(tmp_path, {"measure": mu_name, "potential": pot_name, "pressure": 0.0})
    out = str(tmp_path / "out")
    assert run(["weakgibbs-certify", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "masses are not additive at word" in err and "gap" in err
    res = result_of(out)
    assert res["error"] == "measure oracle failed validation"
    assert res["validation"]["additivity_witness"] is not None


def test_certify_rejects_system_mismatch(tmp_path, capsys):
    mu_name = write(
        tmp_path / "mu.txt", dump_measure(MarkovMeasure.bernoulli(FULL2, (0.3, 0.7)))
    )
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(GOLDEN)))
    cfg = write_config(tmp_path, {"measure": mu_name, "potential": pot_name})
    assert run(["weakgibbs-certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "different systems" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# psi-verify


def test_psi_verify_markov_measure_passes_all_checks(tmp_path, capsys):
    mu_name = write(
        tmp_path / "mu.txt", dump_measure(MarkovMeasure.maximal_entropy(GOLDEN))
    )
    cfg = write_config(tmp_path, {"measure": mu_name, "n_max": 10})
    out = str(tmp_path / "out")
    assert run(["psi-verify", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("pass") == 5 and "FAIL" not in stdout
    res = result_of(out)
    assert res["passed"] is True
    assert set(res["summary"]["checks"]) == {
        "gibbs_one",
        "pressure_zero",
        "sandwich",
        "asymptotic_additivity",
        "almost_additivity",
    }
    assert all(res["summary"]["checks"].values())
    for artifact in (
        "kstar.csv",
        "pressure_zero.csv",
        "sandwich.csv",
        "asymptotic_additivity.csv",
        "checks.csv",
        "result.json",
    ):
        assert os.path.exists(os.path.join(out, artifact)), artifact
    with open(os.path.join(out, "checks.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 6
    assert all(line.split(",")[1] == "true" for line in lines[1:])


def test_psi_verify_rpf_measure(tmp_path):
    from thermoshift import build_rpf

    table = {(1, 1): 0.0, (1, 2): 1.0, (2, 1): 0.0, (2, 2): 3.0}
    data = build_rpf(LocallyConstantPotential(FULL2, 2, table))
    mu_name = write(tmp_path / "mu.txt", dump_measure(data))
    cfg = write_config(tmp_path, {"measure": mu_name, "n_max": 8, "pressure_n_max": 12})
    out = str(tmp_path / "out")
    assert run(["psi-verify", "--config", cfg, "--out", out]) == 0
    assert result_of(out)["passed"] is True


def test_psi_verify_of_a_block_chain_enumerates_no_word_beyond_n_max(tmp_path, monkeypatch):
    # a depth-3 potential: its RPF chain has block width 2.  At
    # pressure_n_max 40 the enumerated periodic sums would visit 2⁴⁰ words
    # and the enumerated splits 2³⁰, so the wrapper fails such a run at once
    # instead of letting it hang
    n_max, depth = 16, 3
    limit = n_max + depth - 1
    rng = np.random.default_rng(12)
    phi = LocallyConstantPotential(
        FULL2, depth, {w: float(rng.uniform(-1, 1)) for w in brute_words(FULL2.matrix, depth)}
    )
    mu_name = write(tmp_path / "mu.txt", dump_measure(build_rpf(phi)))
    lengths = []
    word_array = sft.word_array

    def guarded(ts, n):
        lengths.append(n)
        if n > limit:
            raise AssertionError(f"word_array asked for {n}-words")
        return word_array(ts, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("thermoshift") and getattr(module, "word_array", None) is word_array:
            monkeypatch.setattr(module, "word_array", guarded)
    cfg = write_config(
        tmp_path,
        {"measure": mu_name, "n_max": n_max, "pressure_n_max": 40, "almost_additive_bound": 30},
    )
    out = str(tmp_path / "out")
    assert run(["psi-verify", "--config", cfg, "--out", out]) == 0
    res = result_of(out)
    assert list(res["summary"]["checks"].values()) == [True] * 5
    assert lengths and max(lengths) <= limit


def test_psi_verify_needs_a_structured_measure(tmp_path, capsys):
    mu = MarkovMeasure.bernoulli(FULL2, (0.5, 0.5))
    masses = {}
    for n in range(1, 7):
        for w in brute_words(FULL2.matrix, n):
            masses[w] = mu.mass(w)
    mu_name = write(tmp_path / "mu.txt", dump_measure(TableMeasure(FULL2, 6, masses)))
    cfg = write_config(tmp_path, {"measure": mu_name})
    assert run(["psi-verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "reference potential" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# map-check


def test_map_check_linear_map_is_certified(tmp_path, capsys):
    map_name = write(tmp_path / "map.txt", dump_map(golden_mean_linear()))
    cfg = write_config(tmp_path, {"map": map_name, "n_max": 10})
    out = str(tmp_path / "out")
    assert run(["map-check", "--config", cfg, "--out", out]) == 0
    assert "nonincreasing tail" in capsys.readouterr().out
    res = result_of(out)
    assert res["summary"]["kind"] == "piecewise_linear"
    assert res["summary"]["certified"] is True
    assert res["diagnostics"] == {"route": "closed-form", "prefixes_scored": 0}
    with open(os.path.join(out, "ujr.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,m_value"
    assert len(lines) == 11


def test_map_check_general_map_samples_with_seed(tmp_path):
    map_name = write(
        tmp_path / "map.txt",
        dump_map(perturbed_doubling(0.8), builtin="perturbed-doubling", params={"c": 0.8}),
    )
    cfg = write_config(
        tmp_path, {"map": map_name, "n_max": 12, "sample_size": 20, "seed": 5}
    )
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["map-check", "--config", cfg, "--out", out1]) == 0
    assert run(["map-check", "--config", cfg, "--out", out2]) == 0
    res = result_of(out1)
    assert res["summary"]["kind"] == "general"
    assert res["summary"]["certified"] is False
    assert res["summary"]["last_m"] > 0.0
    assert res["diagnostics"] == {"route": "sampled", "prefixes_scored": 20 * 12}
    with open(os.path.join(out1, "ujr.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip()
    assert header == "n,m_value,sampling_spread"
    for name in ("ujr.csv", "result.json"):
        with open(os.path.join(out1, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            assert first == fh.read(), name


def test_map_check_linear_map_needs_no_word_enumeration(tmp_path):
    # 2⁴⁰ admissible words at n = 40: an enumerating check would not finish
    map_name = write(tmp_path / "map.txt", dump_map(full_branch_linear((2.0, 3.0))))
    cfg = write_config(tmp_path, {"map": map_name, "n_max": 40})
    out = str(tmp_path / "out")
    assert run(["map-check", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "ujr.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    values = [row.split(",") for row in rows]
    assert [(int(n), float(m)) for n, m in values] == [(n, 0.0) for n in range(1, 41)]


@pytest.mark.parametrize("seed", ["abc", 1.5, True, -1])
def test_map_check_refuses_a_bad_config_seed(tmp_path, capsys, seed):
    map_name = write(
        tmp_path / "map.txt",
        dump_map(perturbed_doubling(0.8), builtin="perturbed-doubling", params={"c": 0.8}),
    )
    cfg = write_config(tmp_path, {"map": map_name, "n_max": 4, "seed": seed})
    assert run(["map-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config field 'seed' must be a nonnegative integer" in err
    assert "internal error" not in err


# ---------------------------------------------------------------------------
# spectrum


def spectrum_workspace(tmp_path):
    map_name = write(tmp_path / "map.txt", dump_map(doubling_map()))
    mu_name = write(
        tmp_path / "mu.txt", dump_measure(MarkovMeasure.bernoulli(FULL2, (0.3, 0.7)))
    )
    return map_name, mu_name


def test_spectrum_with_alpha_count_crosschecks_legendre(tmp_path, capsys):
    map_name, mu_name = spectrum_workspace(tmp_path)
    cfg = write_config(
        tmp_path,
        {
            "map": map_name,
            "measures": [mu_name],
            "alpha_count": 3,
            "step": 0.01,
            "delta": 0.01,
        },
    )
    out = str(tmp_path / "out")
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    assert "max deviation vs legendre" in capsys.readouterr().out
    res = result_of(out)
    assert res["summary"]["legendre_p"] == 0.3
    assert res["summary"]["max_deviation_vs_legendre"] < 0.05
    assert res["summary"]["comparison_flagged"] is False
    with open(os.path.join(out, "spectrum.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # one variational and one legendre row per level
    assert len(lines) == 1 + 2 * 3
    assert sum(",variational," in ln for ln in lines) == 3
    assert sum(",legendre," in ln for ln in lines) == 3


def test_spectrum_deviation_is_the_library_crosscheck_bit_for_bit(tmp_path):
    # the command builds its own level grid and deviation loop; criterion 7
    # gates spectrum_crosscheck, so the two must agree to the last bit
    _, mu_name = spectrum_workspace(tmp_path)  # Bernoulli(0.3, 0.7)
    emap = full_branch_linear((2.0, 3.0))
    map_name = write(tmp_path / "map.txt", dump_map(emap))
    cfg = write_config(
        tmp_path,
        {"map": map_name, "measures": [mu_name], "alpha_count": 9, "step": 0.01, "delta": 0.01},
    )
    out = str(tmp_path / "out")
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    report = spectrum_crosscheck(emap, 0.3, alpha_count=9, step=0.01, delta=0.01)
    assert report.max_deviation > 0.0
    assert result_of(out)["summary"]["max_deviation_vs_legendre"] == report.max_deviation


def test_spectrum_with_explicit_alpha_grid(tmp_path):
    map_name, mu_name = spectrum_workspace(tmp_path)
    cfg = write_config(
        tmp_path,
        {
            "map": map_name,
            "measures": [mu_name],
            "alpha_grid": [1.0, 0.4],
            "step": 0.01,
            "delta": 0.01,
        },
    )
    out = str(tmp_path / "out")
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "spectrum.csv"), encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
    variational = [r for r in rows if r[2] == "variational"]
    assert variational[0][3] == "true"  # alpha = 1 is attainable
    assert variational[1][3] == "false"  # alpha = 0.4 is below the spectrum
    assert variational[1][1] == ""


def test_spectrum_alpha_grid_arity_must_match_measures(tmp_path, capsys):
    map_name, mu_name = spectrum_workspace(tmp_path)
    cfg = write_config(
        tmp_path,
        {"map": map_name, "measures": [mu_name], "alpha_grid": [[1.0, 0.9]]},
    )
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "one level per measure" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["x"], [["x"]], [{"a": 1}], [math.nan], [True], [[10**400]]])
def test_spectrum_alpha_grid_entries_must_be_finite_numbers(tmp_path, capsys, grid):
    # these used to end in a bare ValueError, a TypeError or OverflowError
    # (exit 3), or a run that read NaN as a level and true as the level 1.0
    map_name, mu_name = spectrum_workspace(tmp_path)
    cfg = write_config(tmp_path, {"map": map_name, "measures": [mu_name], "alpha_grid": grid})
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: config field 'alpha_grid' must be")
    assert not out.exists()


@pytest.mark.parametrize("levels", [{"alpha_count": 3}, {"alpha_grid": [1.0]}])
def test_spectrum_of_a_general_map_is_an_input_error(tmp_path, capsys, levels):
    # alpha_count with a Bernoulli reference read the general map's slopes (None): exit 3
    _, mu_name = spectrum_workspace(tmp_path)
    map_name = write(
        tmp_path / "pmap.txt",
        dump_map(perturbed_doubling(0.8), builtin="perturbed-doubling", params={"c": 0.8}),
    )
    cfg = write_config(tmp_path, {"map": map_name, "measures": [mu_name], **levels})
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: the variational search is defined for linear maps only"
    ]


def test_spectrum_refuses_both_an_alpha_grid_and_an_alpha_count(tmp_path, capsys):
    # a grid and a count would leave one of them unread
    map_name, mu_name = spectrum_workspace(tmp_path)
    cfg = write_config(
        tmp_path,
        {"map": map_name, "measures": [mu_name], "alpha_grid": [1.0], "alpha_count": 3},
    )
    out = tmp_path / "o"
    assert run(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "input error: config fields 'alpha_grid' and 'alpha_count' exclude each other: give one"
    ]
    assert not out.exists()


def test_spectrum_needs_alpha_information(tmp_path, capsys):
    map_name, _ = spectrum_workspace(tmp_path)
    mu_name = write(
        tmp_path / "mk.txt", dump_measure(MarkovMeasure.maximal_entropy(GOLDEN))
    )
    gm = write(tmp_path / "gm.txt", dump_map(golden_mean_linear()))
    cfg = write_config(
        tmp_path, {"map": gm, "measures": [mu_name], "alpha_count": 3}
    )
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "alpha_grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument and config plumbing


@pytest.mark.parametrize(
    "command,field,value,message",
    [
        ("gibbs-build", "certify_n_max", "abc", "must be a positive integer"),
        ("weakgibbs-certify", "validate_n_max", "x", "must be a positive integer"),
        ("psi-verify", "pressure_n_max", "q", "must be a positive integer"),
        ("psi-verify", "family_index", 0, "must be a positive integer"),
        ("psi-verify", "almost_additive_bound", 2.5, "must be a positive integer"),
        ("pressure", "potential", 5, "must be a string"),
        ("sft-check", "out", 5, "must be a string"),
        ("spectrum", "measures", ["m.txt", 3], "must be a nonempty list of documents"),
        ("weakgibbs-certify", "pressure", True, 'must be a number or "spectral"'),
        ("weakgibbs-certify", "pressure", math.nan, 'must be a number or "spectral"'),
        ("psi-verify", "almost_additive_bound", 1, "must be at least 2"),
        ("psi-verify", "n_max", 2, "must be at least 4"),
        ("weakgibbs-certify", "n_max", 3, "must be at least 4"),
        ("gibbs-build", "certify_n_max", 2, "must be at least 4"),
        ("pressure", "n_max", 1, "must be at least 2"),
        ("psi-verify", "pressure_n_max", 1, "must be at least 2"),
        ("map-check", "n_max", 1, "must be at least 2"),
        ("spectrum", "quadrature_depth", 1, "must be at least 2"),
        # the candidate grids cut [0, 1] into 1/step parts
        ("spectrum", "step", 0.3, "must be 1/m for some integer m >= 2"),
    ],
)
def test_config_fields_of_the_wrong_type_are_input_errors(
    tmp_path, capsys, command, field, value, message
):
    # refused by load_config, before any document is read
    cfg = write_config(tmp_path, {field: value})
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"input error: config field {field!r} {message}"]
    assert not (tmp_path / "thermoshift-out").exists()


ONE_VALUE_WINDOW = (
    "config field 'n_max' must exceed 'n_min' (the n window is empty or holds one value)"
)


@pytest.mark.parametrize(
    "payload,argv,message",
    [
        ({"n_min": 5, "n_max": 5}, [], ONE_VALUE_WINDOW),
        ({"n_min": 3, "n_max": 2}, [], ONE_VALUE_WINDOW),
    ],
)
def test_a_pressure_window_of_one_value_is_an_input_error(tmp_path, capsys, payload, argv, message):
    # one finite-n value has no spread to bound its error: refused up front
    cfg = write_config(tmp_path, payload)
    assert run(["pressure", "--config", cfg, *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"input error: {message}"]
    assert not (tmp_path / "thermoshift-out").exists()


@pytest.mark.parametrize(
    "payload,argv,used",
    [
        ({"n_min": 20}, [], 20),
    ],
)
def test_n_min_at_or_above_the_n_max_used_names_the_field(tmp_path, capsys, payload, argv, used):
    # the window is checked on the n_max used: here the default
    pot_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(FULL2)))
    cfg = write_config(tmp_path, {"potential": pot_name, **payload})
    assert run(["pressure", "--config", cfg, *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"input error: config field 'n_min' ({payload['n_min']}) must be below "
        f"the n_max used ({used})"
    ]


def test_threads_flag_is_refused(tmp_path, capsys):
    # every command runs single-threaded; there is no --threads option
    sys_name = write(tmp_path / "sys.txt", dump_system(FULL2))
    cfg = write_config(tmp_path, {"system": sys_name})
    with pytest.raises(SystemExit) as exc:
        run(["sft-check", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value", [("--n-max", "3"), ("--tol", "0.5"), ("--seed", "1")])
def test_config_fields_have_no_override_flag(tmp_path, capsys, flag, value):
    # the config, whose hash result.json records, alone fixes a run's parameters
    sys_name = write(tmp_path / "sys.txt", dump_system(FULL2))
    cfg = write_config(tmp_path, {"system": sys_name})
    with pytest.raises(SystemExit) as exc:
        run(["sft-check", "--config", cfg, "--out", str(tmp_path / "o"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_config_is_an_input_error(tmp_path, capsys):
    assert run(["sft-check", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_missing_document_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_max": 3})
    assert run(["sft-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing the 'system' document" in capsys.readouterr().err


def test_unreadable_document(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": "ghost.txt"})
    assert run(["sft-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "cannot read system document" in capsys.readouterr().err


def test_malformed_document_is_an_input_error(tmp_path, capsys):
    sys_name = write(tmp_path / "sys.txt", "thermoshift-system v1\nalphabet 2\nrow 1\n")
    cfg = write_config(tmp_path, {"system": sys_name})
    assert run(["sft-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "system document" in capsys.readouterr().err


def test_default_out_dir_sits_beside_config(tmp_path):
    nest = tmp_path / "work"
    nest.mkdir()
    sys_name = write(nest / "sys.txt", dump_system(FULL2))
    cfg = write_config(nest, {"system": sys_name, "n_max": 2})
    assert run(["sft-check", "--config", cfg]) == 0
    assert (nest / "thermoshift-out" / "result.json").exists()


def test_config_out_field_is_respected(tmp_path):
    sys_name = write(tmp_path / "sys.txt", dump_system(FULL2))
    cfg = write_config(tmp_path, {"system": sys_name, "n_max": 2, "out": "here"})
    assert run(["sft-check", "--config", cfg]) == 0
    assert (tmp_path / "here" / "result.json").exists()


def test_result_json_records_input_hashes(tmp_path):
    sys_name = write(tmp_path / "sys.txt", dump_system(FULL2))
    cfg = write_config(tmp_path, {"system": sys_name, "n_max": 2})
    out = str(tmp_path / "out")
    assert run(["sft-check", "--config", cfg, "--out", out]) == 0
    res = result_of(out)
    assert set(res["inputs"]) == {"cfg.json", "sys.txt"}
    assert all(len(h) == 64 for h in res["inputs"].values())


def test_out_naming_an_existing_file_is_an_input_error(tmp_path, capsys):
    phi_name = write(tmp_path / "phi.txt", dump_potential(zero_potential(FULL2)))
    cfg = write_config(tmp_path, {"potential": phi_name, "method": "spectral"})
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    assert run(["pressure", "--config", cfg, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: cannot create output directory")


def test_a_table_value_that_is_not_a_number_is_an_input_error(tmp_path, capsys):
    lines = dump_potential(zero_potential(FULL2)).splitlines()
    lines[-1] = "word 2 value abc"
    write(tmp_path / "phi.txt", "\n".join(lines) + "\n")
    cfg = write_config(tmp_path, {"potential": "phi.txt", "method": "spectral"})
    assert run(["pressure", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: potential document")
    assert err[0].endswith(f"line {len(lines)}: expected a number, got 'abc'")


@pytest.mark.parametrize("kind", ["potential", "measure"])
def test_value_missing_from_the_last_table_line_is_an_input_error(tmp_path, capsys, kind):
    if kind == "potential":
        text = dump_potential(zero_potential(FULL2))
        cfg_payload = {"potential": "doc.txt", "method": "spectral"}
        command = "pressure"
    else:
        mu = MarkovMeasure.bernoulli(FULL2, (0.5, 0.5))
        masses = {w: mu.mass(w) for n in (1, 2) for w in brute_words(FULL2.matrix, n)}
        text = dump_measure(TableMeasure(FULL2, 2, masses))
        cfg_payload = {"measure": "doc.txt"}
        command = "psi-verify"
    lines = text.splitlines()
    # drop the value, leaving "word 2 value" or "mass 2 2"
    lines[-1] = lines[-1].rsplit(" ", 1)[0] if kind == "potential" else "mass"
    write(tmp_path / "doc.txt", "\n".join(lines) + "\n")
    cfg = write_config(tmp_path, cfg_payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"line {len(lines)}:" in err and "internal error" not in err


# ---------------------------------------------------------------------------
# configs drawn from the field table

FUZZ_DOCS = {
    "sys.txt": "thermoshift-system v1\nalphabet 2\nrow 1 1\nrow 1 1\n",
    "phi.txt": (
        "thermoshift-potential v1\nalphabet 2\nrow 1 1\nrow 1 1\ndepth 1\nprecision 17\n"
        "word 1 value -0.25\nword 2 value 0.5\n"
    ),
    "mu.txt": (
        "thermoshift-measure v1\nkind markov\nalphabet 2\nrow 1 1\nrow 1 1\n"
        "q 0.25 0.75\nq 0.25 0.75\npi 0.25 0.75\n"
    ),
    "mu2.txt": (
        "thermoshift-measure v1\nkind markov\nalphabet 2\nrow 1 1\nrow 1 1\n"
        "q 0.5 0.5\nq 0.25 0.75\npi 0.33333333333333337 0.66666666666666663\n"
    ),
    "map.txt": (
        "thermoshift-map v1\nkind piecewise_linear\nalphabet 2\nrow 1 1\nrow 1 1\n"
        "domain 0 0.5\ndomain 0.5 1\n"
    ),
    "pmap.txt": (
        "thermoshift-map v1\nkind general\nalphabet 2\nrow 1 1\nrow 1 1\n"
        "domain 0 0.5\ndomain 0.5 1\nbuiltin perturbed-doubling\nparam c 0.80000000000000004\n"
    ),
}
FUZZ_DOCUMENTS = {
    "system": ["sys.txt"], "potential": ["phi.txt"], "measure": ["mu.txt", "mu2.txt"],
    "map": ["map.txt", "pmap.txt"],
}
_LEVEL = st.floats(0.5, 1.5)
#: small values of each kind: no run enumerates more than 2^12 words
FUZZ_KINDS = {
    "count": lambda f: st.integers(f.least or 1, (f.least or 1) + 3),
    "number": lambda f: st.sampled_from([0.01, 0.05, 0.25, 0.5]),
    "step": lambda f: st.sampled_from([0.01, 0.05, 0.25, 0.5]),
    "documents": lambda f: st.lists(st.sampled_from(["mu.txt", "mu2.txt"]), min_size=1, max_size=2),
    "levels": lambda f: st.lists(_LEVEL | st.lists(_LEVEL, min_size=1, max_size=2), min_size=1, max_size=3),
    "pressure": lambda f: st.just("spectral") | st.floats(-1.0, 1.0),
    "method": lambda f: st.sampled_from(["all", "cylinder", "periodic", "spectral"]),
    "seed": lambda f: st.integers(0, 3),
}
FUZZ_JUNK = st.sampled_from(["x", "", -1, 0, 2.5, True, None, [], {}, ["x"], math.nan])
_OMIT = object()


def _fuzz_value(name, field, broken):
    """A field's value drawn from its kind (or left out, where it has a default)
    or, if ``broken``, from a wrong kind or from below its least value."""
    if field.kind == "document":
        valid = st.sampled_from(FUZZ_DOCUMENTS[name])
        wrong = st.sampled_from([*sorted(FUZZ_DOCS), "absent.txt"]) | FUZZ_JUNK
    else:
        valid = FUZZ_KINDS[field.kind](field)
        wrong = FUZZ_JUNK | st.sampled_from(sorted(FUZZ_DOCS))
    if not broken:
        # an omitted count's default can be large
        return valid if field.kind == "count" or field.default is REQUIRED else valid | st.just(_OMIT)
    if field.kind in ("count", "seed"):
        wrong |= st.integers(-2, (field.least or 1) - 1)
    elif field.kind == "number":
        wrong |= st.sampled_from([0.0, -0.5, math.inf])
    elif field.kind == "step":
        wrong |= st.sampled_from([0.0, 0.3, 2.0, math.inf])
    return wrong | st.just(_OMIT) if field.default is REQUIRED else wrong


@st.composite
def fuzz_cases(draw):
    """(command, config payload): at most one field is broken."""
    command = draw(st.sampled_from(sorted(CONFIG_FIELDS)))
    fields = CONFIG_FIELDS[command]
    broken = draw(st.sampled_from([None, None, *fields]))
    payload = {}
    for name, field in fields.items():
        value = draw(_fuzz_value(name, field, name == broken))
        if value is not _OMIT:
            payload[name] = value
    return command, payload


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=fuzz_cases())
def test_configs_drawn_from_the_field_table_end_in_0_1_or_2_without_a_traceback(
    tmp_path, capsys, case
):
    command, payload = case
    for name, text in FUZZ_DOCS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, payload)
    code = run([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
