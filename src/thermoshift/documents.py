"""Versioned structured-text documents and config files.

Every on-disk artifact is line-oriented text with an explicit magic + version
header, so stale files fail loudly instead of parsing into something subtly
different.  Floats are written with 17 significant digits ('%.17g'), which
round-trips IEEE doubles bit-exactly; loaders therefore reproduce the exact
objects that were dumped.  Configs are JSON with a version field and a
closed key set per command — unknown keys are errors, by design — read
against one table, ``CONFIG_FIELDS``, of each field's kind, default and
least value; ``load_config`` returns them complete, and only ``--out`` overrides one.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from typing import Any, Callable, NamedTuple, Optional

from .interval_maps import ExpandingMarkovMap, perturbed_doubling
from .measures import (
    CylinderMeasureOracle,
    MarkovMeasure,
    RpfGibbsData,
    TableMeasure,
    build_rpf,
)
from .multifractal import grid_size
from .potentials import LocallyConstantPotential
from .sft import TransitionSystem, Word, word_array

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
    for w in word_array(phi.system, phi.depth).tolist():
        lines.append(
            "word " + " ".join(map(str, w)) + " value " + format_float(phi.table[tuple(w)])
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
        if word in table:
            raise DocumentError(f"line {idx + 1}: word {word} is listed twice")
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
            for w in word_array(oracle.system, n).tolist():
                lines.append(
                    "mass " + " ".join(map(str, w)) + " " + format_float(oracle.masses[tuple(w)])
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
            if word in masses:
                raise DocumentError(f"line {idx + 1}: word {word} is listed twice")
            masses[word] = _number(float, toks[-1], idx)
            idx += 1
        try:
            return TableMeasure(ts, depth, masses)
        except ValueError as exc:
            raise DocumentError(f"invalid mass table: {exc}") from exc
    if kind == "rpf":
        # φ is rebuilt by build_rpf's two Perron solves (on m and mᵀ); the
        # stored λ must agree with it, and h, ν must be present and well-formed
        phi, idx = _parse_potential_body(lines, idx, ts)
        (lam,) = _floats(lines, idx, "lambda", 1)
        if lam <= 0:
            raise DocumentError(f"line {idx + 1}: lambda must be positive, got {lam!r}")
        data = build_rpf(phi)
        if abs(math.log(data.lam) - math.log(lam)) > 1e-9:
            raise DocumentError(
                "stored Perron root disagrees with the rebuilt one; stale document"
            )
        _floats(lines, idx + 1, "h", data.graph.order)
        _floats(lines, idx + 2, "nu", data.graph.order)
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
            if toks[0] in params:
                raise DocumentError(f"line {idx + 1}: param {toks[0]} is listed twice")
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


def _is_int(x: Any) -> bool:
    # JSON true/false arrive as bool, which Python counts as the integers 1/0
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    # json.load reads NaN and Infinity as floats, and integers of any size
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _is_list_of(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda x: isinstance(x, list) and bool(x) and all(map(test, x))


_PRESSURE_METHODS = ("all", "cylinder", "periodic", "spectral")
#: kind -> (test, what a value of the kind must be); a ``number`` must also be positive
_KINDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "count": (lambda x: _is_int(x) and x >= 1, "a positive integer"),
    "number": (_is_number, "a positive number"),
    "step": (lambda x: _is_number(x) and grid_size(x) > 0, "1/m for some integer m >= 2"),
    "document": (lambda x: isinstance(x, str), "a string"),
    "documents": (_is_list_of(lambda d: isinstance(d, str)), "a nonempty list of documents"),
    # alpha_grid: each level a number, or a nonempty list of numbers (one per measure)
    "levels": (
        _is_list_of(lambda a: _is_number(a) or _is_list_of(_is_number)(a)),
        "a nonempty list of numbers or of lists of numbers",
    ),
    "pressure": (lambda x: x == "spectral" or _is_number(x), 'a number or "spectral"'),
    "method": (lambda x: x in _PRESSURE_METHODS, "one of " + ", ".join(_PRESSURE_METHODS)),
    "seed": (lambda x: _is_int(x) and x >= 0, "a nonnegative integer"),
}
REQUIRED: Any = object()  # the default of a field that a config must give


class ConfigField(NamedTuple):
    """A kind, the value when omitted (``REQUIRED``: none) and a least value."""

    kind: str
    default: Any = None
    least: Optional[int] = None


_DOC, _SYSTEM = ConfigField("document", REQUIRED), ConfigField("document")
_PRESSURE, _TAU = ConfigField("pressure", "spectral"), ConfigField("number", 1e-3)
#: Each command's fields: the one source of config keys, defaults and least
#: values.  Certification fits a tail of K*(n) up to n_max ≥ 4, a split of a
#: word needs two parts, and a pressure window or a tail of M(n) two values.
#: The spectrum quadrature depth keeps 2, the least value the README
#: documents.  The command sets map-check's default n_max from its map (14
#: for linear maps, 30 for general ones).
CONFIG_FIELDS: dict[str, dict[str, ConfigField]] = {
    "sft-check": {"system": _DOC, "n_max": ConfigField("count", 10)},
    "pressure": {
        "potential": _DOC, "system": _SYSTEM, "method": ConfigField("method", "all"),
        "n_min": ConfigField("count", 1), "n_max": ConfigField("count", 20, 2),
        "tol": ConfigField("number", 1e-6),
    },
    "gibbs-build": {
        "potential": _DOC, "system": _SYSTEM, "certify_n_max": ConfigField("count", 12, 4)
    },
    "weakgibbs-certify": {
        "measure": _DOC, "potential": _DOC, "pressure": _PRESSURE,
        "n_max": ConfigField("count", 12, 4), "tau": _TAU,
        "validate_n_max": ConfigField("count", 8),
    },
    "psi-verify": {
        "measure": _DOC, "pressure": _PRESSURE, "n_max": ConfigField("count", 12, 4),
        "pressure_n_max": ConfigField("count", 20, 2), "tau": _TAU,
        "family_index": ConfigField("count", 3),
        "almost_additive_bound": ConfigField("count", 10, 2),
    },
    "map-check": {
        "map": _DOC, "n_max": ConfigField("count", None, 2),
        "sample_size": ConfigField("count", 40), "seed": ConfigField("seed", 0),
    },
    "spectrum": {
        "map": _DOC, "measures": ConfigField("documents", REQUIRED),
        "alpha_grid": ConfigField("levels"), "alpha_count": ConfigField("count"),
        "step": ConfigField("step", 1e-3), "delta": ConfigField("number", 1e-3),
        "quadrature_depth": ConfigField("count", 10, 2),
    },
}
_OUT = ConfigField("document", "thermoshift-out")  # a field of every command


def load_config(path: str, command: str) -> dict[str, Any]:
    """Parse, validate and complete a JSON config for the given command.

    Checks the version, the closed key set and each field's kind and least
    value from ``CONFIG_FIELDS``, then the fields that constrain each
    other, and fills in the defaults.  A missing required document
    reference is refused last.  Referenced documents are *not* loaded
    here — the CLI does that next, still inside its input-error phase.
    """
    if command not in CONFIG_FIELDS:
        raise DocumentError(f"unknown command {command!r}")
    fields = {**CONFIG_FIELDS[command], "out": _OUT}
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
    unknown = sorted(set(raw) - set(fields) - {"version"})
    if unknown:
        raise DocumentError(
            f"config field(s) {', '.join(unknown)} not recognized for {command}"
        )
    for key, field in fields.items():
        if key not in raw:
            continue
        (test, what), value, name = _KINDS[field.kind], raw[key], f"config field {key!r}"
        if not test(value):
            raise DocumentError(f"{name} must be {what}")
        if field.kind == "number" and value <= 0:
            raise DocumentError(f"{name} must be positive")
        if field.least is not None and value < field.least:
            raise DocumentError(f"{name} must be at least {field.least}")
    cfg = {key: field.default for key, field in fields.items()} | raw
    if "n_min" in cfg and cfg["n_min"] >= cfg["n_max"]:
        if "n_max" in raw:
            raise DocumentError(
                "config field 'n_max' must exceed 'n_min' (the n window is empty or holds one value)"
            )
        raise DocumentError(
            f"config field 'n_min' ({cfg['n_min']}) must be below the n_max used ({cfg['n_max']})"
        )
    if cfg.get("alpha_grid") is not None and cfg.get("alpha_count") is not None:
        raise DocumentError(
            "config fields 'alpha_grid' and 'alpha_count' exclude each other: give one"
        )
    for key in fields:
        if cfg[key] is REQUIRED:
            raise DocumentError(f"config is missing the {key!r} document reference")
    return cfg
