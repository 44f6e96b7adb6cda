"""Serialization round trips and config validation.

Every on-disk artifact must survive a dump/load cycle byte-for-byte in
the values it carries: floats are written with 17 significant digits,
which round-trips IEEE doubles exactly.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoshift import (
    DocumentError,
    LocallyConstantPotential,
    MarkovMeasure,
    TableMeasure,
    TransitionSystem,
    build_rpf,
    dump_map,
    dump_measure,
    dump_potential,
    dump_system,
    golden_mean_linear,
    load_config,
    load_map,
    load_measure,
    load_potential,
    load_system,
    perturbed_doubling,
)
from thermoshift.documents import format_float, sha256_file

from conftest import brute_words, markov_rows, mixing_systems, potentials


# ---------------------------------------------------------------------------
# float formatting


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_doubles(x):
    assert float(format_float(x)) == x


def test_format_float_is_plain_decimal_for_simple_values():
    assert format_float(0.5) == "0.5"
    assert format_float(-3.0) == "-3"


def test_sha256_file_matches_known_digest(tmp_path):
    p = tmp_path / "blob"
    p.write_bytes(b"abc")
    assert (
        sha256_file(str(p))
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# ---------------------------------------------------------------------------
# transition systems


@given(mixing_systems)
def test_system_round_trip(ts):
    assert load_system(dump_system(ts)).matrix == ts.matrix


def test_system_document_shape(golden):
    text = dump_system(golden)
    lines = text.splitlines()
    assert lines[0] == "thermoshift-system v1"
    assert lines[1] == "alphabet 2"
    assert text.endswith("\n")


def test_system_rejects_wrong_header(full2):
    bad = dump_system(full2).replace("thermoshift-system", "thermoshift-potential")
    with pytest.raises(DocumentError, match="header"):
        load_system(bad)


def test_system_rejects_trailing_content(full2):
    with pytest.raises(DocumentError, match="trailing"):
        load_system(dump_system(full2) + "row 1 1\n")


def test_system_rejects_short_row(full2):
    text = dump_system(full2).replace("row 1 1", "row 1", 1)
    with pytest.raises(DocumentError, match="entries"):
        load_system(text)


def test_system_wraps_matrix_validation():
    # a syntactically fine document holding a matrix with a dead row
    text = "thermoshift-system v1\nalphabet 2\nrow 0 0\nrow 1 1\n"
    with pytest.raises(DocumentError, match="invalid transition matrix"):
        load_system(text)


# ---------------------------------------------------------------------------
# potentials


@given(phi=potentials())
def test_potential_round_trip_is_exact(phi):
    back = load_potential(dump_potential(phi))
    assert back.system.matrix == phi.system.matrix
    assert back.depth == phi.depth
    assert back.table == phi.table


def test_potential_document_carries_precision_line(example_potential):
    assert "precision 17" in dump_potential(example_potential).splitlines()


def test_potential_rejects_missing_value_token(example_potential):
    text = dump_potential(example_potential).replace(" value ", " ", 1)
    with pytest.raises(DocumentError, match="lacks a value"):
        load_potential(text)


def test_potential_rejects_a_value_missing_from_the_last_line(example_potential):
    lines = dump_potential(example_potential).splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0]  # "word ... value"
    with pytest.raises(DocumentError, match=f"line {len(lines)}: word line lacks a value"):
        load_potential("\n".join(lines) + "\n")


def test_potential_words_must_have_the_declared_depth(example_potential):
    text = dump_potential(example_potential).replace(
        f"depth {example_potential.depth}", "depth 99"
    )
    with pytest.raises(DocumentError, match="symbols, the depth is 99"):
        load_potential(text)


def test_measure_rejects_a_mass_line_without_a_value(full2):
    mu = MarkovMeasure.bernoulli(full2, (0.5, 0.5))
    masses = {w: mu.mass(w) for n in (1, 2) for w in brute_words(full2.matrix, n)}
    lines = dump_measure(TableMeasure(full2, 2, masses)).splitlines() + ["mass"]
    with pytest.raises(DocumentError, match=f"line {len(lines)}: mass line needs"):
        load_measure("\n".join(lines) + "\n")


def test_potential_refuses_a_word_listed_twice(full2):
    phi = LocallyConstantPotential.from_symbol_values(full2, (0.5, -1.0))
    lines = dump_potential(phi).splitlines() + ["word 1 value 9.0"]
    with pytest.raises(DocumentError, match=rf"line {len(lines)}: word \(1,\) is listed twice"):
        load_potential("\n".join(lines) + "\n")


def test_potential_rejects_truncation(example_potential):
    lines = dump_potential(example_potential).splitlines()
    # chop off the table and the depth line
    with pytest.raises(DocumentError, match="end of file"):
        load_potential("\n".join(lines[:3]) + "\n")


def test_potential_rejects_incomplete_table(example_potential):
    lines = dump_potential(example_potential).splitlines()
    with pytest.raises(DocumentError, match="invalid potential table"):
        load_potential("\n".join(lines[:-1]) + "\n")


# ---------------------------------------------------------------------------
# measures


@given(data=st.data())
def test_markov_measure_round_trip(data):
    ts = data.draw(mixing_systems)
    rows = data.draw(markov_rows(ts))
    mu = MarkovMeasure.from_stochastic(ts, rows)
    back = load_measure(dump_measure(mu))
    assert isinstance(back, MarkovMeasure)
    assert back.rows == mu.rows
    assert back.stationary == mu.stationary


def test_table_measure_round_trip(golden):
    masses = {(1,): 0.7, (2,): 0.3, (1, 1): 0.45, (1, 2): 0.25, (2, 1): 0.3}
    mu = TableMeasure(golden, 2, masses)
    back = load_measure(dump_measure(mu))
    assert isinstance(back, TableMeasure)
    assert back.depth == 2
    assert back.masses == mu.masses


def test_table_measure_refuses_a_word_listed_twice(golden):
    masses = {(1,): 0.7, (2,): 0.3, (1, 1): 0.45, (1, 2): 0.25, (2, 1): 0.3}
    lines = dump_measure(TableMeasure(golden, 2, masses)).splitlines()
    first = lines.index("depth 2") + 1
    # "mass 1 0.5" before the document's own "mass 1 0.7..." line
    lines.insert(first, "mass 1 0.5")
    with pytest.raises(DocumentError, match=rf"line {first + 2}: word \(1,\) is listed twice"):
        load_measure("\n".join(lines) + "\n")


def test_rpf_measure_round_trip(example_potential):
    data = build_rpf(example_potential)
    back = load_measure(dump_measure(data))
    assert back.potential.table == data.potential.table
    # the loader rebuilds; the build is deterministic, so the spectral
    # data comes back bit-identical
    assert back.lam == data.lam
    assert np.array_equal(back.h, data.h)
    assert np.array_equal(back.nu, data.nu)


def test_rpf_measure_detects_stale_root(example_potential):
    text = dump_measure(build_rpf(example_potential))
    head, _, _ = text.partition("lambda ")
    with pytest.raises(DocumentError, match="stale"):
        load_measure(head + "lambda 1.0\n")


@pytest.mark.parametrize("lam", ["0", "-2.5"])
def test_rpf_measure_refuses_a_root_that_is_not_positive(example_potential, lam):
    # the loader compares log λ with the rebuilt root's: it needs λ > 0
    lines = dump_measure(build_rpf(example_potential)).splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("lambda "))
    lines[at] = f"lambda {lam}"
    with pytest.raises(DocumentError, match=rf"line {at + 1}: lambda must be positive"):
        load_measure("\n".join(lines) + "\n")


def test_rpf_measure_requires_h_and_nu_and_nothing_after(example_potential):
    text = dump_measure(build_rpf(example_potential))
    head, _, _ = text.partition("\nh ")
    with pytest.raises(DocumentError, match="expected 'h'"):
        load_measure(head + "\nnonsense\n")
    with pytest.raises(DocumentError, match="trailing content"):
        load_measure(text + "nonsense\n")
    lines = text.splitlines()
    h_line = next(i for i, ln in enumerate(lines) if ln.startswith("h "))
    for bad in ("h 0.5", "h nan 0.5", "h 0.5 0.5 0.5"):
        broken = lines[:h_line] + [bad] + lines[h_line + 1 :]
        with pytest.raises(DocumentError, match="h needs 2 finite"):
            load_measure("\n".join(broken) + "\n")


def test_markov_measure_rejects_trailing_content(full2):
    text = dump_measure(MarkovMeasure.bernoulli(full2, (0.3, 0.7)))
    with pytest.raises(DocumentError, match="trailing content"):
        load_measure(text + "garbage 1 2 3\n")


def test_markov_measure_document_rejects_non_finite_entries(full2):
    text = dump_measure(MarkovMeasure.bernoulli(full2, (0.3, 0.7)))
    broken = text.replace("q 0.29999999999999999 0.69999999999999996", "q nan nan", 1)
    assert broken != text
    with pytest.raises(DocumentError, match="q needs 2 finite"):
        load_measure(broken)


def test_measure_rejects_unknown_kind(full2):
    text = dump_measure(
        MarkovMeasure.from_stochastic(full2, ((0.5, 0.5), (0.5, 0.5)))
    ).replace("kind markov", "kind parry")
    with pytest.raises(DocumentError, match="unknown measure kind"):
        load_measure(text)


def test_measure_refuses_foreign_oracle_types():
    from thermoshift.measures import CylinderMeasureOracle

    class Opaque(CylinderMeasureOracle):
        @property
        def system(self):
            return TransitionSystem(((1, 1), (1, 1)))

        def mass(self, word):
            return 2.0 ** -len(word)

    with pytest.raises(DocumentError, match="cannot serialize"):
        dump_measure(Opaque())


def _replace_line(text, prefix, new):
    """The document with its first line starting ``prefix`` replaced, and
    that line's 1-based number."""
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = new
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize(
    "prefix,bad,what",
    [
        ("alphabet", "alphabet two", "an integer"),
        ("row", "row 1 x", "an integer"),
        ("depth", "depth 1.5", "an integer"),
        ("word", "word 1 x value 0", "an integer"),
        ("word", "word 1 1 value abc", "a number"),
    ],
)
def test_potential_tokens_that_are_not_numbers_name_their_line(
    example_potential, prefix, bad, what
):
    text, line = _replace_line(dump_potential(example_potential), prefix, bad)
    with pytest.raises(DocumentError, match=f"line {line}: expected {what}, got"):
        load_potential(text)


@pytest.mark.parametrize(
    "kind,prefix,bad,what",
    [
        ("markov", "q", "q 0.5 half", "a number"),
        ("markov", "pi", "pi 0.5 x", "a number"),
        ("table", "depth", "depth two", "an integer"),
        ("table", "mass", "mass 1 a 0.25", "an integer"),
        ("table", "mass", "mass 1 0.25x", "a number"),
        ("rpf", "lambda", "lambda big", "a number"),
    ],
)
def test_measure_tokens_that_are_not_numbers_name_their_line(full2, kind, prefix, bad, what):
    mu = MarkovMeasure.bernoulli(full2, (0.5, 0.5))
    if kind == "markov":
        oracle = mu
    elif kind == "table":
        oracle = TableMeasure(full2, 1, {(1,): 0.5, (2,): 0.5})
    else:
        oracle = build_rpf(LocallyConstantPotential.from_symbol_values(full2, (0.1, 0.2)))
    text, line = _replace_line(dump_measure(oracle), prefix, bad)
    with pytest.raises(DocumentError, match=f"line {line}: expected {what}, got"):
        load_measure(text)


@pytest.mark.parametrize(
    "prefix,bad,match",
    [
        ("domain", "domain 0 half", "expected a number, got 'half'"),
        ("domain", "domain 0", "domain needs 2 endpoints"),
        ("param", "param c", "param needs a name and a value"),
        ("param", "param c eight", "expected a number, got 'eight'"),
    ],
)
def test_map_tokens_that_are_not_numbers_name_their_line(prefix, bad, match):
    text, line = _replace_line(_general_map_text(), prefix, bad)
    with pytest.raises(DocumentError, match=f"line {line}: {match}"):
        load_map(text)


@pytest.mark.parametrize(
    "document,prefix,bad,count",
    [
        ("potential", "alphabet", "alphabet 2 2", 2),
        ("potential", "depth", "depth 2 2", 2),
        ("table", "depth", "depth", 0),
        ("markov", "kind", "kind", 0),
        ("markov", "kind", "kind markov extra", 2),
        ("map", "kind", "kind general general", 2),
        ("map", "builtin", "builtin perturbed-doubling x", 2),
    ],
)
def test_single_value_lines_name_their_line(example_potential, full2, document, prefix, bad, count):
    load, text = {
        "potential": (load_potential, dump_potential(example_potential)),
        "table": (load_measure, dump_measure(TableMeasure(full2, 1, {(1,): 0.5, (2,): 0.5}))),
        "markov": (load_measure, dump_measure(MarkovMeasure.bernoulli(full2, (0.5, 0.5)))),
        "map": (load_map, _general_map_text()),
    }[document]
    text, line = _replace_line(text, prefix, bad)
    with pytest.raises(DocumentError, match=rf"line {line}: {prefix} needs 1 value\(s\), got {count}$"):
        load(text)


def test_markov_measure_document_wraps_validation(full2):
    text = dump_measure(MarkovMeasure.from_stochastic(full2, ((0.5, 0.5), (0.5, 0.5))))
    broken = text.replace("pi 0.5 0.5", "pi 0.9 0.1")
    with pytest.raises(DocumentError, match="invalid Markov measure"):
        load_measure(broken)


# ---------------------------------------------------------------------------
# interval maps


def test_linear_map_round_trip():
    emap = golden_mean_linear()
    back = load_map(dump_map(emap))
    assert back.kind == "piecewise_linear"
    assert back.coding.matrix == emap.coding.matrix
    assert back.domains == emap.domains
    assert back.slopes == emap.slopes


def test_linear_map_rejects_trailing_lines():
    with pytest.raises(DocumentError, match="trailing"):
        load_map(dump_map(golden_mean_linear()) + "builtin perturbed-doubling\n")


def _general_map_text(c=0.8):
    return dump_map(
        perturbed_doubling(c), builtin="perturbed-doubling", params={"c": c}
    )


def test_general_map_round_trip():
    back = load_map(_general_map_text(0.8))
    emap = perturbed_doubling(0.8)
    assert back.kind == "general"
    assert back.domains == emap.domains
    # same parameter => same dynamics
    x = np.linspace(0.0, 1.0, 11)
    for loaded, built in zip(back.branch_fns, emap.branch_fns):
        assert np.array_equal(loaded(x), built(x))


def test_general_map_requires_registry_name():
    with pytest.raises(DocumentError, match="registry"):
        dump_map(perturbed_doubling(0.8))


def test_general_map_unknown_builtin():
    text = _general_map_text().replace(
        "builtin perturbed-doubling", "builtin tent"
    )
    with pytest.raises(DocumentError, match="unknown map builtin"):
        load_map(text)


def test_general_map_rejects_bad_params():
    text = _general_map_text().replace("param c 0.8", "param c 2.5")
    with pytest.raises(DocumentError, match="cannot build"):
        load_map(text)


def test_general_map_refuses_a_param_listed_twice():
    # either value could be the one meant, as for a word listed twice
    lines = _general_map_text().splitlines() + ["param c 0.5"]
    with pytest.raises(DocumentError, match=f"line {len(lines)}: param c is listed twice"):
        load_map("\n".join(lines) + "\n")


def test_general_map_detects_stale_domains():
    text = _general_map_text().replace("domain 0 0.5", "domain 0 0.4")
    # rebuilt map no longer matches the stored domains
    with pytest.raises(DocumentError, match="no longer matches"):
        load_map(text)


# ---------------------------------------------------------------------------
# configs


def _write_config(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(p)


def test_config_happy_path(tmp_path):
    path = _write_config(tmp_path, {"version": 1, "system": "sys.txt", "n_max": 10})
    cfg = load_config(path, "sft-check")
    assert cfg["n_max"] == 10


def test_config_rejects_wrong_version(tmp_path):
    path = _write_config(tmp_path, {"version": 2, "system": "sys.txt"})
    with pytest.raises(DocumentError, match="version"):
        load_config(path, "sft-check")


def test_config_rejects_unknown_keys(tmp_path):
    path = _write_config(
        tmp_path, {"version": 1, "system": "sys.txt", "beta": 1.0}
    )
    with pytest.raises(DocumentError, match="beta"):
        load_config(path, "sft-check")


def test_config_key_sets_are_per_command(tmp_path):
    # tau belongs to certification, not to the pressure command
    path = _write_config(
        tmp_path,
        {"version": 1, "system": "s", "potential": "p", "tau": 0.1},
    )
    with pytest.raises(DocumentError, match="tau"):
        load_config(path, "pressure")
    load_config(
        _write_config(
            tmp_path,
            {"version": 1, "measure": "m", "potential": "p", "tau": 0.1},
        ),
        "weakgibbs-certify",
    )


@pytest.mark.parametrize(
    "command,payload",
    [
        ("pressure", {"system": "s", "potential": "p", "tol": 0.0}),
        ("weakgibbs-certify", {"measure": "m", "potential": "p", "tau": -1.0}),
        ("spectrum", {"map": "m", "step": "x"}),
    ],
)
def test_config_rejects_nonpositive_tolerances(tmp_path, command, payload):
    bad_key = next(k for k in ("tol", "tau", "step") if k in payload)
    path = _write_config(tmp_path, {"version": 1, **payload})
    with pytest.raises(DocumentError, match=bad_key):
        load_config(path, command)


def test_config_refuses_an_alpha_grid_with_an_alpha_count(tmp_path):
    payload = {"version": 1, "map": "m", "measures": ["mu"], "alpha_grid": [1.0]}
    assert load_config(_write_config(tmp_path, payload), "spectrum")["alpha_count"] is None
    path = _write_config(tmp_path, {**payload, "alpha_count": 3})
    with pytest.raises(DocumentError, match="'alpha_grid' and 'alpha_count' exclude each other"):
        load_config(path, "spectrum")


def test_config_rejects_bad_counts(tmp_path):
    path = _write_config(tmp_path, {"version": 1, "system": "s", "n_max": 0})
    with pytest.raises(DocumentError, match="n_max"):
        load_config(path, "sft-check")
    path = _write_config(
        tmp_path, {"version": 1, "system": "s", "potential": "p", "n_max": 2.5}
    )
    with pytest.raises(DocumentError, match="n_max"):
        load_config(path, "pressure")


@pytest.mark.parametrize(
    "command,payload,key",
    [
        ("sft-check", {"version": True, "system": "s"}, "version"),
        ("sft-check", {"version": 1, "system": "s", "n_max": True}, "n_max"),
        ("pressure", {"version": 1, "system": "s", "potential": "p", "tol": True}, "tol"),
    ],
)
def test_config_rejects_bools_as_numbers(tmp_path, command, payload, key):
    # JSON true is the Python integer 1; it must not pass for a count
    path = _write_config(tmp_path, payload)
    with pytest.raises(DocumentError, match=key):
        load_config(path, command)


def test_config_rejects_empty_n_range(tmp_path):
    path = _write_config(
        tmp_path,
        {"version": 1, "system": "s", "potential": "p", "n_min": 9, "n_max": 4},
    )
    with pytest.raises(DocumentError, match="empty"):
        load_config(path, "pressure")


def test_config_rejects_non_object(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(DocumentError, match="JSON object"):
        load_config(str(p), "sft-check")


def test_config_reports_json_syntax_line(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"version": 1,\n "system": }\n')
    with pytest.raises(DocumentError, match="line 2"):
        load_config(str(p), "sft-check")


def test_config_missing_file(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"), "sft-check")


def test_config_unknown_command(tmp_path):
    path = _write_config(tmp_path, {"version": 1})
    with pytest.raises(DocumentError, match="unknown command"):
        load_config(path, "entropy")
