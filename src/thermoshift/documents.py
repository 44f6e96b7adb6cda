"""Versioned structured-text documents and config files.

Every on-disk artifact is line-oriented text with an explicit magic + version
header, so stale files fail loudly instead of parsing into something subtly
different.  Floats are written with 17 significant digits ('%.17g'), which
round-trips IEEE doubles bit-exactly; loaders therefore reproduce the exact
objects that were dumped.  Configs are JSON with a version field and a
closed key set per command — unknown keys are errors, by design.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Any, Callable, Optional

from .interval_maps import ExpandingMarkovMap, perturbed_doubling
from .measures import (
    CylinderMeasureOracle,
    MarkovMeasure,
    RpfGibbsData,
    TableMeasure,
    build_rpf,
)
from .potentials import LocallyConstantPotential
from .sft import TransitionSystem, Word, enumerate_words

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A document failed to parse or declares an unsupported version."""


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal; round-trips doubles exactly."""
    return format(float(x), ".17g")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# low-level line plumbing


def _header(kind: str) -> str:
    return f"thermoshift-{kind} v{FORMAT_VERSION}"


def _check_header(lines: list[str], kind: str) -> None:
    if not lines or lines[0] != _header(kind):
        raise DocumentError(
            f"line 1: expected header {_header(kind)!r}, got {lines[0] if lines else 'empty file'!r}"
        )


def _split(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _expect(lines: list[str], idx: int, key: str, count: Optional[int] = None) -> list[str]:
    if idx >= len(lines):
        raise DocumentError(f"line {idx + 1}: expected {key!r}, got end of file")
    toks = lines[idx].split()
    if toks[0] != key:
        raise DocumentError(f"line {idx + 1}: expected {key!r}, got {toks[0]!r}")
    if count is not None and len(toks) - 1 != count:
        raise DocumentError(f"line {idx + 1}: {key} needs {count} value(s), got {len(toks) - 1}")
    return toks[1:]


def _number(kind: Callable[[str], Any], tok: str, idx: int) -> Any:
    """``int(tok)`` or ``float(tok)``; a token that is not one names its line."""
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise DocumentError(f"line {idx + 1}: expected {what}, got {tok!r}") from None


def _floats(lines: list[str], idx: int, key: str, count: int) -> tuple[float, ...]:
    vals = tuple(_number(float, t, idx) for t in _expect(lines, idx, key))
    if len(vals) != count or not all(math.isfinite(x) for x in vals):
        raise DocumentError(f"line {idx + 1}: {key} needs {count} finite value(s)")
    return vals


def _check_end(lines: list[str], idx: int, last: str) -> None:
    if idx != len(lines):
        raise DocumentError(f"line {idx + 1}: trailing content after {last}")


def _system_lines(ts: TransitionSystem) -> list[str]:
    out = [f"alphabet {ts.k}"]
    for row in ts.matrix:
        out.append("row " + " ".join(str(x) for x in row))
    return out


def _parse_system(lines: list[str], idx: int) -> tuple[TransitionSystem, int]:
    (k_tok,) = _expect(lines, idx, "alphabet", 1)
    k = _number(int, k_tok, idx)
    rows = []
    for i in range(k):
        toks = _expect(lines, idx + 1 + i, "row")
        if len(toks) != k:
            raise DocumentError(f"line {idx + 2 + i}: row needs {k} entries")
        rows.append(tuple(_number(int, t, idx + 1 + i) for t in toks))
    try:
        return TransitionSystem(tuple(rows)), idx + 1 + k
    except ValueError as exc:
        raise DocumentError(f"invalid transition matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# transition systems


def dump_system(ts: TransitionSystem) -> str:
    return "\n".join([_header("system")] + _system_lines(ts)) + "\n"


def load_system(text: str) -> TransitionSystem:
    lines = _split(text)
    _check_header(lines, "system")
    ts, end = _parse_system(lines, 1)
    _check_end(lines, end, "matrix")
    return ts


# ---------------------------------------------------------------------------
# potential tables


def dump_potential(phi: LocallyConstantPotential) -> str:
    lines = [_header("potential")]
    lines += _system_lines(phi.system)
    lines.append(f"depth {phi.depth}")
    lines.append("precision 17")
    for w in enumerate_words(phi.system, phi.depth):
        lines.append(
            "word " + " ".join(str(s) for s in w) + " value " + format_float(phi.table[w])
        )
    return "\n".join(lines) + "\n"


def _parse_potential_body(
    lines: list[str], idx: int, ts: TransitionSystem
) -> tuple[LocallyConstantPotential, int]:
    (d_tok,) = _expect(lines, idx, "depth", 1)
    depth = _number(int, d_tok, idx)
    _expect(lines, idx + 1, "precision")
    idx += 2
    _expect(lines, idx, "word")  # a table lists at least one word
    table: dict[Word, float] = {}
    while idx < len(lines) and lines[idx].split()[0] == "word":
        toks = lines[idx].split()
        sep = toks.index("value") if "value" in toks else len(toks)
        if sep + 1 >= len(toks):
            raise DocumentError(f"line {idx + 1}: word line lacks a value")
        word = tuple(_number(int, t, idx) for t in toks[1:sep])
        if len(word) != depth:
            raise DocumentError(
                f"line {idx + 1}: word has {len(word)} symbols, the depth is {depth}"
            )
        table[word] = _number(float, toks[sep + 1], idx)
        idx += 1
    try:
        return LocallyConstantPotential(ts, depth, table), idx
    except ValueError as exc:
        raise DocumentError(f"invalid potential table: {exc}") from exc


def load_potential(text: str) -> LocallyConstantPotential:
    lines = _split(text)
    _check_header(lines, "potential")
    ts, idx = _parse_system(lines, 1)
    phi, end = _parse_potential_body(lines, idx, ts)
    _check_end(lines, end, "table")
    return phi


# ---------------------------------------------------------------------------
# measures


def dump_measure(oracle: CylinderMeasureOracle) -> str:
    lines = [_header("measure")]
    if isinstance(oracle, MarkovMeasure):
        lines.append("kind markov")
        lines += _system_lines(oracle.ts)
        for row in oracle.rows:
            lines.append("q " + " ".join(format_float(x) for x in row))
        lines.append("pi " + " ".join(format_float(x) for x in oracle.stationary))
    elif isinstance(oracle, TableMeasure):
        lines.append("kind table")
        lines += _system_lines(oracle.system)
        lines.append(f"depth {oracle.depth}")
        for n in range(1, oracle.depth + 1):
            for w in enumerate_words(oracle.system, n):
                lines.append(
                    "mass " + " ".join(str(s) for s in w) + " " + format_float(oracle.masses[w])
                )
    elif isinstance(oracle, RpfGibbsData):
        lines.append("kind rpf")
        lines += _system_lines(oracle.system)
        body = dump_potential(oracle.potential).splitlines()[1 + oracle.system.k + 1 :]
        lines += body
        lines.append("lambda " + format_float(oracle.lam))
        lines.append("h " + " ".join(format_float(x) for x in oracle.h))
        lines.append("nu " + " ".join(format_float(x) for x in oracle.nu))
    else:
        raise DocumentError(f"cannot serialize oracle type {type(oracle).__name__}")
    return "\n".join(lines) + "\n"


def load_measure(text: str) -> CylinderMeasureOracle:
    lines = _split(text)
    _check_header(lines, "measure")
    (kind,) = _expect(lines, 1, "kind", 1)
    ts, idx = _parse_system(lines, 2)
    if kind == "markov":
        rows = tuple(_floats(lines, idx + i, "q", ts.k) for i in range(ts.k))
        pi = _floats(lines, idx + ts.k, "pi", ts.k)
        _check_end(lines, idx + ts.k + 1, "pi")
        try:
            return MarkovMeasure(ts, rows, pi)
        except ValueError as exc:
            raise DocumentError(f"invalid Markov measure: {exc}") from exc
    if kind == "table":
        (d_tok,) = _expect(lines, idx, "depth", 1)
        depth = _number(int, d_tok, idx)
        idx += 1
        masses: dict[Word, float] = {}
        while idx < len(lines):
            toks = _expect(lines, idx, "mass")
            if len(toks) < 2:
                raise DocumentError(f"line {idx + 1}: mass line needs a word and a value")
            word = tuple(_number(int, t, idx) for t in toks[:-1])
            masses[word] = _number(float, toks[-1], idx)
            idx += 1
        try:
            return TableMeasure(ts, depth, masses)
        except ValueError as exc:
            raise DocumentError(f"invalid mass table: {exc}") from exc
    if kind == "rpf":
        # the measure is rebuilt from φ by one Perron solve; the stored λ
        # must agree with it, and h, ν must be present and well-formed
        phi, idx = _parse_potential_body(lines, idx, ts)
        (lam,) = _floats(lines, idx, "lambda", 1)
        data = build_rpf(phi)
        if abs(math.log(data.lam) - math.log(lam)) > 1e-9:
            raise DocumentError(
                "stored Perron root disagrees with the rebuilt one; stale document"
            )
        _floats(lines, idx + 1, "h", len(data.blocks))
        _floats(lines, idx + 2, "nu", len(data.blocks))
        _check_end(lines, idx + 3, "nu")
        return data
    raise DocumentError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# interval maps

MAP_BUILTINS: dict[str, Callable[..., ExpandingMarkovMap]] = {
    "perturbed-doubling": perturbed_doubling,
}


def dump_map(
    emap: ExpandingMarkovMap,
    builtin: Optional[str] = None,
    params: Optional[dict[str, float]] = None,
) -> str:
    """Serialize a map; general maps must name their registry entry."""
    lines = [_header("map"), f"kind {emap.kind}"]
    lines += _system_lines(emap.coding)
    for l, r in emap.domains:
        lines.append(f"domain {format_float(l)} {format_float(r)}")
    if emap.kind == "general":
        if builtin not in MAP_BUILTINS:
            raise DocumentError(
                "general maps serialize by registry reference; pass builtin=<name>"
            )
        lines.append(f"builtin {builtin}")
        for key in sorted(params or {}):
            lines.append(f"param {key} {format_float(params[key])}")
    return "\n".join(lines) + "\n"


def load_map(text: str) -> ExpandingMarkovMap:
    lines = _split(text)
    _check_header(lines, "map")
    (kind,) = _expect(lines, 1, "kind", 1)
    ts, idx = _parse_system(lines, 2)
    domains = []
    for i in range(ts.k):
        toks = _expect(lines, idx + i, "domain")
        if len(toks) != 2:
            raise DocumentError(f"line {idx + i + 1}: domain needs 2 endpoints")
        domains.append(tuple(_number(float, t, idx + i) for t in toks))
    idx += ts.k
    if kind == "piecewise_linear":
        _check_end(lines, idx, "domains")
        try:
            return ExpandingMarkovMap(ts, domains)
        except ValueError as exc:
            raise DocumentError(f"invalid linear map: {exc}") from exc
    if kind == "general":
        (name,) = _expect(lines, idx, "builtin", 1)
        if name not in MAP_BUILTINS:
            raise DocumentError(f"unknown map builtin {name!r}")
        params: dict[str, float] = {}
        idx += 1
        while idx < len(lines):
            toks = _expect(lines, idx, "param")
            if len(toks) != 2:
                raise DocumentError(f"line {idx + 1}: param needs a name and a value")
            params[toks[0]] = _number(float, toks[1], idx)
            idx += 1
        try:
            emap = MAP_BUILTINS[name](**params)
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"cannot build {name!r}: {exc}") from exc
        if emap.coding.matrix != ts.matrix or any(
            abs(a - c) > 1e-12 or abs(b - d) > 1e-12
            for (a, b), (c, d) in zip(emap.domains, domains)
        ):
            raise DocumentError(
                f"builtin {name!r} no longer matches the stored coding/domains"
            )
        return emap
    raise DocumentError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# configs

CONFIG_VERSION = 1

_COMMON_KEYS = {"version", "out"}
_POSITIVE_INT_KEYS = (
    "n_max", "n_min", "sample_size", "quadrature_depth", "alpha_count", "certify_n_max",
    "validate_n_max", "pressure_n_max", "family_index", "almost_additive_bound",
)
#: Integer fields whose command needs more than 1: certification fits a tail
#: of K*(n) up to n_max ≥ 4, a split of a word needs two parts, and a pressure
#: window needs two values.  The CLI holds ``--n-max`` to the same least
#: ``n_max``.
CONFIG_INT_MINIMUMS: dict[str, dict[str, int]] = {
    "pressure": {"n_max": 2},
    "gibbs-build": {"certify_n_max": 4},
    "weakgibbs-certify": {"n_max": 4},
    "psi-verify": {"n_max": 4, "almost_additive_bound": 2, "pressure_n_max": 2},
}
ALLOWED_CONFIG_KEYS: dict[str, set[str]] = {
    "sft-check": {"system", "n_max"},
    "pressure": {"system", "potential", "method", "n_min", "n_max", "tol"},
    "gibbs-build": {"system", "potential", "certify_n_max"},
    "weakgibbs-certify": {
        "measure",
        "potential",
        "pressure",
        "n_max",
        "tau",
        "validate_n_max",
    },
    "psi-verify": {
        "measure",
        "pressure",
        "n_max",
        "pressure_n_max",
        "tau",
        "family_index",
        "almost_additive_bound",
    },
    "map-check": {"map", "n_max", "sample_size", "seed"},
    "spectrum": {
        "map",
        "measures",
        "alpha_grid",
        "alpha_count",
        "step",
        "delta",
        "quadrature_depth",
    },
}


def _is_int(x: Any) -> bool:
    # JSON true/false arrive as bool, which Python counts as the integers 1/0
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    # json.load reads NaN and Infinity as floats, and integers of any size
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _is_level(x: Any) -> bool:
    # an alpha_grid entry: a number, or a nonempty list of numbers
    return _is_number(x) or (isinstance(x, list) and bool(x) and all(map(_is_number, x)))


def load_config(path: str, command: str) -> dict[str, Any]:
    """Parse and validate a JSON config for the given command.

    Enforces the version, rejects unknown keys, and checks the elementary
    invariants (field types, positive tolerances, nonempty n ranges).  Referenced
    documents are *not* loaded here — the CLI does that next, still inside
    its input-error phase.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("config must be a JSON object")
    if not _is_int(raw.get("version")) or raw["version"] != CONFIG_VERSION:
        raise DocumentError(
            f"config field 'version' must be {CONFIG_VERSION}, got {raw.get('version')!r}"
        )
    if command not in ALLOWED_CONFIG_KEYS:
        raise DocumentError(f"unknown command {command!r}")
    allowed = ALLOWED_CONFIG_KEYS[command] | _COMMON_KEYS
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise DocumentError(
            f"config field(s) {', '.join(unknown)} not recognized for {command}"
        )
    for key in ("tol", "tau", "step", "delta"):
        if key in raw and not (_is_number(raw[key]) and raw[key] > 0):
            raise DocumentError(f"config field {key!r} must be a positive number")
    for key in _POSITIVE_INT_KEYS:
        if key in raw and not (_is_int(raw[key]) and raw[key] >= 1):
            raise DocumentError(f"config field {key!r} must be a positive integer")
    for key, least in CONFIG_INT_MINIMUMS.get(command, {}).items():
        if key in raw and raw[key] < least:
            raise DocumentError(f"config field {key!r} must be at least {least}")
    for key in ("system", "potential", "measure", "map", "out"):
        if key in raw and not isinstance(raw[key], str):
            raise DocumentError(f"config field {key!r} must be a string")
    if "measures" in raw and not (
        isinstance(raw["measures"], list)
        and raw["measures"]
        and all(isinstance(x, str) for x in raw["measures"])
    ):
        raise DocumentError("config field 'measures' must be a nonempty list of documents")
    if "pressure" in raw and not (raw["pressure"] == "spectral" or _is_number(raw["pressure"])):
        raise DocumentError("config field 'pressure' must be a number or \"spectral\"")
    if "alpha_grid" in raw and not (
        isinstance(raw["alpha_grid"], list)
        and raw["alpha_grid"]
        and all(_is_level(a) for a in raw["alpha_grid"])
    ):
        raise DocumentError(
            "config field 'alpha_grid' must be a nonempty list of numbers or of lists of numbers"
        )
    if "seed" in raw and not (_is_int(raw["seed"]) and raw["seed"] >= 0):
        raise DocumentError("config field 'seed' must be a nonnegative integer")
    if "n_min" in raw and "n_max" in raw and raw["n_min"] >= raw["n_max"]:
        raise DocumentError(
            "config field 'n_max' must exceed 'n_min' (the n window is empty or holds one value)"
        )
    return raw
