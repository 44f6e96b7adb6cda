"""The three benchmark workloads: seeded inputs, fixed job cycles, oracles.

A workload's ``plan(seed)`` draws coefficient values (potential tables and
probabilities) from the seed and computes every reference value with numpy
alone, without calling the package.  Sizes (alphabets, depths, windows,
levels, candidate steps) are constants here, so the work per job does not
depend on the seed.  ``write_inputs`` is the only part that calls the
package: it builds the documents or objects a user would hand to it, and it
is what the benchmark times as set-up.

Each job names its kind, and the cycle lists the jobs of one pass in order.
Kinds are sized so that the job times of different kinds are well apart and
the p50 and tail ranks of a run fall inside one kind's block (see README.md).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np


class OracleError(Exception):
    """A job's output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# numpy-only references


def full(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 for _ in range(k)) for _ in range(k))


GOLDEN = ((1, 1), (1, 0))


def admissible_words(matrix: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Admissible n-words over symbols 1..k, lexicographic."""
    k = len(matrix)
    return [
        w
        for w in itertools.product(range(1, k + 1), repeat=n)
        if all(matrix[a - 1][b - 1] for a, b in zip(w, w[1:]))
    ]


def block_log_edges(matrix, depth: int, table: dict) -> np.ndarray:
    """Log-weights of the (d'-1)-block transfer graph, -inf where no edge."""
    dp = max(depth, 2)
    blocks = admissible_words(matrix, dp - 1)
    out = np.full((len(blocks), len(blocks)), -math.inf)
    for i, u in enumerate(blocks):
        for j, v in enumerate(blocks):
            w = u + v[-1:]
            if u[1:] == v[:-1] and matrix[w[-2] - 1][w[-1] - 1]:
                out[i, j] = table[w[:depth]]
    return out


def log_perron_root(log_edges: np.ndarray) -> float:
    m = np.where(np.isfinite(log_edges), np.exp(log_edges), 0.0)
    return math.log(float(np.max(np.abs(np.linalg.eigvals(m)))))


def draw_table(rng: np.random.Generator, matrix, depth: int, lo: float, hi: float) -> dict:
    words = admissible_words(matrix, depth)
    return {w: float(v) for w, v in zip(words, rng.uniform(lo, hi, len(words)))}


def draw_probabilities(rng: np.random.Generator, k: int) -> tuple[float, ...]:
    """A probability vector with every entry bounded away from 0."""
    w = rng.uniform(0.5, 1.5, k)
    return tuple(float(x) for x in w / w.sum())


def stationary(q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(q.T)
    v = np.real(vecs[:, int(np.argmax(np.real(vals)))])
    return v / v.sum()


def entropy_rate(pi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """-sum pi_i Q_ij log Q_ij, batched over leading axes (0 log 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0)
    return -np.einsum("...i,...ij->...", pi, terms)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One job of a cycle: what runs, and how its output is checked."""

    kind: str
    check: Callable[[Any], None]
    argv: Optional[list[str]] = None  # CLI jobs: command and config name
    point: Optional[int] = None  # session jobs: index into the session inputs


@dataclass
class Plan:
    """A workload's job cycle and the package calls that build its inputs."""

    jobs: list[Job]
    write_inputs: Callable[[str], Any]
    session_job: Optional[Callable[[Any, list, int], Any]] = None


def _put(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _config(directory: str, name: str, payload: dict) -> None:
    _put(directory, name, json.dumps({"version": 1, **payload}, indent=2, sort_keys=True) + "\n")


def read_result(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cli_check(inner: Callable[[str], None]) -> Callable[[Any], None]:
    """Wrap a file-reading oracle with the exit-status check every CLI job shares."""

    def check(output) -> None:
        code, out_dir = output
        require(code == 0, f"exit status {code!r}, expected 0")
        inner(out_dir)

    return check


# ---------------------------------------------------------------------------
# certify: CLI, cold caches

# Sizes; README.md lists the job time each gives.
CERTIFY_N = {"bernoulli4": 8, "markov3": 10, "psi_markov2": 11, "psi_rpf2": 12, "rpf3": 12}
CERTIFY_VALIDATE_N = 6
CERTIFY_PSI_PRESSURE_N = 17
CERTIFY_GIBBS_N = 10


def _check_kstar_closed_form(out_dir: str, n_max: int, expected_log: Callable[[int], float]) -> None:
    rows = read_csv(out_dir, "kstar.csv")
    require(len(rows) == n_max, f"{len(rows)} values of K*(n), expected {n_max}")
    for row in rows:
        n = int(row["n"])
        got = math.log(float(row["kstar"]))
        want = expected_log(n)
        require(abs(got - want) <= 1e-9, f"log K*({n}) = {got!r}, reference {want!r}")


def certify_plan(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 1])
    tab_gibbs = draw_table(rng, full(3), 1, -1.0, 1.0)
    tab_rpf3 = draw_table(rng, full(3), 1, -1.0, 1.0)
    p4 = draw_probabilities(rng, 4)
    q3 = np.array([draw_probabilities(rng, 3) for _ in range(3)])
    q2 = np.array([draw_probabilities(rng, 2) for _ in range(2)])
    tab_rpf2 = draw_table(rng, full(2), 3, -1.0, 1.0)

    ref_gibbs = log_perron_root(block_log_edges(full(3), 1, tab_gibbs))
    ref_rpf3 = log_perron_root(block_log_edges(full(3), 1, tab_rpf3))
    log_pi3, log_q3 = np.log(stationary(q3)), np.log(q3)
    # mu(w) / exp(S_n log Q) = pi_{w_1} / Q_{w_n, s} for an extension symbol s
    kstar_markov1 = float(np.max(np.abs(log_pi3[:, None] - log_q3)))
    kstar_markov = float(np.max(np.abs(log_pi3[:, None, None] - log_q3[None, :, :])))

    def write_inputs(d: str) -> None:
        from thermoshift import documents, measures, potentials, sft

        lcp = potentials.LocallyConstantPotential
        ts2, ts3, ts4 = (sft.TransitionSystem.full_shift(k) for k in (2, 3, 4))
        _put(d, "gibbs_phi.txt", documents.dump_potential(lcp(ts3, 1, tab_gibbs)))
        rpf3 = measures.build_rpf(lcp(ts3, 1, tab_rpf3))
        _put(d, "rpf3.txt", documents.dump_measure(rpf3))
        _put(d, "rpf3_phi.txt", documents.dump_potential(rpf3.potential))
        bern = measures.MarkovMeasure.bernoulli(ts4, p4)
        _put(d, "bern4.txt", documents.dump_measure(bern))
        log_p = lcp.from_symbol_values(ts4, [math.log(x) for x in p4])
        _put(d, "bern4_phi.txt", documents.dump_potential(log_p))
        markov3 = measures.MarkovMeasure.from_stochastic(ts3, q3.tolist())
        _put(d, "markov3.txt", documents.dump_measure(markov3))
        _put(d, "markov3_phi.txt", documents.dump_potential(markov3.transition_log_potential()))
        markov2 = measures.MarkovMeasure.from_stochastic(ts2, q2.tolist())
        _put(d, "markov2.txt", documents.dump_measure(markov2))
        rpf2 = measures.build_rpf(lcp(ts2, 3, tab_rpf2))
        _put(d, "rpf2.txt", documents.dump_measure(rpf2))
        _config(d, "gibbs.json", {"potential": "gibbs_phi.txt", "certify_n_max": CERTIFY_GIBBS_N})
        _config(
            d,
            "rpf3.json",
            {"measure": "rpf3.txt", "potential": "rpf3_phi.txt", "n_max": CERTIFY_N["rpf3"]},
        )
        _config(
            d,
            "bernoulli4.json",
            {
                "measure": "bern4.txt",
                "potential": "bern4_phi.txt",
                "n_max": CERTIFY_N["bernoulli4"],
                "validate_n_max": CERTIFY_VALIDATE_N,
            },
        )
        _config(
            d,
            "markov3.json",
            {
                "measure": "markov3.txt",
                "potential": "markov3_phi.txt",
                "n_max": CERTIFY_N["markov3"],
                "validate_n_max": CERTIFY_VALIDATE_N,
            },
        )
        _config(d, "psi_markov2.json", {"measure": "markov2.txt", "n_max": CERTIFY_N["psi_markov2"]})
        _config(
            d,
            "psi_rpf2.json",
            {
                "measure": "rpf2.txt",
                "n_max": CERTIFY_N["psi_rpf2"],
                "pressure_n_max": CERTIFY_PSI_PRESSURE_N,
            },
        )

    def gibbs(out: str) -> None:
        res = read_result(out)
        require(res["summary"]["verdict"] == "gibbs", f"verdict {res['summary']['verdict']}")
        got = res["summary"]["pressure"]
        require(abs(got - ref_gibbs) <= 1e-9, f"pressure {got!r}, reference {ref_gibbs!r}")
        require(os.path.exists(os.path.join(out, "rpf_measure.txt")), "no rpf_measure.txt")

    def rpf3(out: str) -> None:
        res = read_result(out)
        require(res["summary"]["verdict"] == "gibbs", f"verdict {res['summary']['verdict']}")
        got = res["parameters"]["pressure_used"]
        require(abs(got - ref_rpf3) <= 1e-9, f"pressure {got!r}, reference {ref_rpf3!r}")

    def log_weight_pair(n_max: int, expected_log: Callable[[int], float]) -> Callable[[str], None]:
        def check(out: str) -> None:
            res = read_result(out)
            require(res["summary"]["verdict"] == "gibbs", f"verdict {res['summary']['verdict']}")
            p = res["parameters"]["pressure_used"]
            require(abs(p) <= 1e-12, f"pressure {p!r} of a log-weight potential, expected 0")
            _check_kstar_closed_form(out, n_max, expected_log)

        return check

    bernoulli = log_weight_pair(CERTIFY_N["bernoulli4"], lambda n: 0.0)
    markov = log_weight_pair(
        CERTIFY_N["markov3"], lambda n: kstar_markov1 if n == 1 else kstar_markov
    )

    def psi(out: str) -> None:
        checks = read_result(out)["summary"]["checks"]
        require(len(checks) == 5 and all(checks.values()), f"checks {checks}")

    rpf3_job = Job("weakgibbs/rpf3", cli_check(rpf3), ["weakgibbs-certify", "rpf3.json"])
    # the slowest kind runs twice per pass: the tail rank then falls inside
    # its block, and with 7 jobs per pass the median falls inside the block of
    # gibbs-build, whose time varies least from one process to the next
    jobs = [
        Job("weakgibbs/bernoulli4", cli_check(bernoulli), ["weakgibbs-certify", "bernoulli4.json"]),
        rpf3_job,
        Job("psi-verify/markov2", cli_check(psi), ["psi-verify", "psi_markov2.json"]),
        Job("weakgibbs/markov3", cli_check(markov), ["weakgibbs-certify", "markov3.json"]),
        Job("psi-verify/rpf2", cli_check(psi), ["psi-verify", "psi_rpf2.json"]),
        rpf3_job,
        Job("gibbs-build/full3", cli_check(gibbs), ["gibbs-build", "gibbs.json"]),
    ]
    return Plan(jobs, write_inputs)


# ---------------------------------------------------------------------------
# spectrum: CLI, cold caches

SPECTRUM_STEP = 1e-3
SPECTRUM_DELTA = 1e-3
SPECTRUM_LEGENDRE_LEVELS = 20
SPECTRUM_LEVELS = 8
GOLDEN_LEVELS = 4
SPECTRUM_SLOPES = (2.0, 3.0)
MAP_CHECK_SLOPES = (2.0, 3.0, 6.0)
MAP_CHECK_LINEAR_N = 11
MAP_CHECK_GENERAL_N = 20
PERTURBATION = 0.8


def _grid(step: float) -> np.ndarray:
    m = round(1.0 / step)
    return np.arange(1, m) / m


def _bernoulli_constraint(u: np.ndarray, p: float, lyap: np.ndarray) -> np.ndarray:
    return -(u * math.log(p) + (1.0 - u) * math.log(1.0 - p)) / lyap


def _best_f(objective: np.ndarray, constraints: np.ndarray, alpha: Sequence[float], delta: float) -> tuple[float, float]:
    """Bracket of the constrained maximum, over delta shrunk and widened by 1e-9."""
    out = []
    for scale in (1.0 - 1e-9, 1.0 + 1e-9):
        feasible = np.all(np.abs(constraints - np.asarray(alpha)[None, :]) <= delta * scale, axis=1)
        out.append(float(np.max(objective[feasible])) if feasible.any() else math.nan)
    return out[0], out[1]


def _check_spectrum(out: str, objective: np.ndarray, constraints: np.ndarray, levels: list[tuple[float, ...]]) -> None:
    res = read_result(out)
    require(not res["summary"]["comparison_flagged"], "comparison flagged")
    rows = [r for r in read_csv(out, "spectrum.csv") if r["method"] == "variational"]
    require(len(rows) == len(levels), f"{len(rows)} levels, expected {len(levels)}")
    for row, alpha in zip(rows, levels):
        # reference maxima with delta shrunk and widened; nan where nothing is feasible
        inner, outer = _best_f(objective, constraints, alpha, SPECTRUM_DELTA)
        feasible = row["feasible"] == "true"
        if math.isnan(outer):
            require(not feasible, f"level {alpha} reported feasible, reference has no candidate")
        elif not math.isnan(inner):
            require(feasible, f"level {alpha} reported infeasible, reference has candidates")
        if feasible:
            f = float(row["f"])
            require(0.0 <= f <= 1.0 + 1e-12, f"f = {f!r} outside [0, 1]")
            refs = [x for x in (inner, outer) if not math.isnan(x)]
            require(
                min(refs) - 1e-12 <= f <= max(refs) + 1e-12,
                f"f({alpha}) = {f!r}, reference {inner!r}..{outer!r}",
            )


def spectrum_plan(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    p_legendre = float(rng.uniform(0.2, 0.4))
    p_joint = (float(rng.uniform(0.15, 0.35)), float(rng.uniform(0.6, 0.85)))
    q_golden = float(rng.uniform(0.3, 0.7))

    # Bernoulli candidates on the 2-branch map: nu = (u, 1-u)
    u = _grid(SPECTRUM_STEP)
    s1, s2 = (math.log(s) for s in SPECTRUM_SLOPES)
    lyap = u * s1 + (1.0 - u) * s2
    bern_objective = -(u * np.log(u) + (1.0 - u) * np.log(1.0 - u)) / lyap
    legendre_cons = _bernoulli_constraint(u, p_legendre, lyap)[:, None]
    lo = min(-math.log(1.0 - p_legendre) / s2, -math.log(p_legendre) / s1)
    hi = max(-math.log(1.0 - p_legendre) / s2, -math.log(p_legendre) / s1)
    legendre_levels = [(float(a),) for a in np.linspace(lo, hi, SPECTRUM_LEGENDRE_LEVELS + 2)[1:-1]]
    joint_cons = np.stack([_bernoulli_constraint(u, p, lyap) for p in p_joint], axis=1)
    picks = np.linspace(0.15 * len(u), 0.85 * len(u), SPECTRUM_LEVELS).astype(int)
    joint_levels = [tuple(float(x) for x in joint_cons[i]) for i in picks]

    # Markov candidates on the golden-mean map: row 1 = (x, 1-x), row 2 = (1, 0)
    x = _grid(SPECTRUM_STEP)
    q = np.zeros((len(x), 2, 2))
    q[:, 0, 0], q[:, 0, 1], q[:, 1, 0] = x, 1.0 - x, 1.0
    pi = np.stack([1.0 / (2.0 - x), (1.0 - x) / (2.0 - x)], axis=1)
    golden_log_slope = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    golden_objective = entropy_rate(pi, q) / golden_log_slope
    ref_integral = pi[:, 0] * (x * math.log(q_golden) + (1.0 - x) * math.log(1.0 - q_golden))
    golden_cons = (-ref_integral / golden_log_slope)[:, None]
    lo, hi = float(golden_cons.min()), float(golden_cons.max())
    golden_levels = [(float(a),) for a in np.linspace(lo, hi, GOLDEN_LEVELS + 2)[1:-1]]

    bound = math.log((2.0 + PERTURBATION / 2.0) / (2.0 - PERTURBATION / 2.0))

    def write_inputs(d: str) -> None:
        from thermoshift import documents, interval_maps, measures, sft

        ts2, golden = sft.TransitionSystem.full_shift(2), sft.TransitionSystem(GOLDEN)
        _put(d, "map2.txt", documents.dump_map(interval_maps.full_branch_linear(SPECTRUM_SLOPES)))
        _put(d, "golden_map.txt", documents.dump_map(interval_maps.golden_mean_linear()))
        _put(d, "map3.txt", documents.dump_map(interval_maps.full_branch_linear(MAP_CHECK_SLOPES)))
        perturbed = interval_maps.perturbed_doubling(PERTURBATION)
        _put(
            d,
            "perturbed.txt",
            documents.dump_map(perturbed, builtin="perturbed-doubling", params={"c": PERTURBATION}),
        )
        bern = measures.MarkovMeasure.bernoulli
        _put(d, "bern.txt", documents.dump_measure(bern(ts2, (p_legendre, 1.0 - p_legendre))))
        for i, p in enumerate(p_joint):
            _put(d, f"joint{i}.txt", documents.dump_measure(bern(ts2, (p, 1.0 - p))))
        golden_ref = measures.MarkovMeasure.from_stochastic(golden, [[q_golden, 1.0 - q_golden], [1.0, 0.0]])
        _put(d, "golden_ref.txt", documents.dump_measure(golden_ref))
        common = {"step": SPECTRUM_STEP, "delta": SPECTRUM_DELTA}
        _config(
            d,
            "legendre.json",
            {"map": "map2.txt", "measures": ["bern.txt"], "alpha_count": SPECTRUM_LEGENDRE_LEVELS, **common},
        )
        _config(
            d,
            "golden.json",
            {"map": "golden_map.txt", "measures": ["golden_ref.txt"], "alpha_grid": [list(a) for a in golden_levels], **common},
        )
        _config(
            d,
            "joint.json",
            {"map": "map2.txt", "measures": ["joint0.txt", "joint1.txt"], "alpha_grid": [list(a) for a in joint_levels], **common},
        )
        _config(d, "map_linear.json", {"map": "map3.txt", "n_max": MAP_CHECK_LINEAR_N})
        # sampled itineraries come from the CLI's default seed: the work of a
        # sampled check depends on its sample paths, not only on its size
        _config(d, "map_general.json", {"map": "perturbed.txt", "n_max": MAP_CHECK_GENERAL_N})

    def legendre(out: str) -> None:
        _check_spectrum(out, bern_objective, legendre_cons, legendre_levels)

    def golden_check(out: str) -> None:
        _check_spectrum(out, golden_objective, golden_cons, golden_levels)

    def joint(out: str) -> None:
        _check_spectrum(out, bern_objective, joint_cons, joint_levels)

    def map_linear(out: str) -> None:
        values = [float(r["m_value"]) for r in read_csv(out, "ujr.csv")]
        require(len(values) == MAP_CHECK_LINEAR_N, f"{len(values)} values of M(n)")
        require(all(v == 0.0 for v in values), f"M(n) not exactly 0.0: max {max(values)!r}")

    def map_general(out: str) -> None:
        require(read_result(out)["passed"], "tail of M(n) not nonincreasing")
        values = [float(r["m_value"]) for r in read_csv(out, "ujr.csv")]
        require(len(values) == MAP_CHECK_GENERAL_N, f"{len(values)} values of M(n)")
        # |log D_n + S_n gamma| <= n (max gamma - min gamma) by the mean value theorem
        require(all(0.0 <= v <= bound for v in values), f"M(n) outside [0, {bound}]")

    legendre_job = Job("spectrum/legendre", cli_check(legendre), ["spectrum", "legendre.json"])
    # the slowest kind runs three times per pass: with 7 jobs the median falls
    # inside spectrum/joint's block and the tail inside legendre's
    jobs = [
        Job("map-check/linear3", cli_check(map_linear), ["map-check", "map_linear.json"]),
        legendre_job,
        Job("spectrum/golden", cli_check(golden_check), ["spectrum", "golden.json"]),
        legendre_job,
        Job("map-check/perturbed", cli_check(map_general), ["map-check", "map_general.json"]),
        Job("spectrum/joint", cli_check(joint), ["spectrum", "joint.json"]),
        legendre_job,
    ]
    return Plan(jobs, write_inputs)


# ---------------------------------------------------------------------------
# pressure-sweep: library session, warm caches

SWEEP_N_MAX = 30
SWEEP_ATOMFREE_N = 10
SWEEP_STALL_BETAS = tuple(0.0875 * i for i in range(1, 9))
# the depth-2 potential of the Perron-solver stall on the full 2-shift
STALL_TABLE = {(1, 1): -10.0, (2, 2): -11.0, (1, 2): 0.3, (2, 1): 0.0}
# (label, transition matrix, depth, number of betas in [0.25, 4]).  Each table is a fixed base drawn in
# [-0.5, 0.5], so beta * phi stays within [-2, 2] for beta <= 4, plus a seeded
# jitter of at most SWEEP_JITTER: solver iterations and witness lengths, and
# so the work per job, then barely depend on the seed.
SWEEP_BASE_SEED = 1505
SWEEP_JITTER = 0.02
# The two cheapest tables get 12 betas, so that the median job falls inside
# the full3-d3 points rather than where they meet the cheapest ones.
SWEEP_TABLES = (
    ("full3-d3", full(3), 3, 16),
    ("full5-d2", full(5), 2, 12),
    ("golden-d2", GOLDEN, 2, 12),
    ("full10-d3", full(10), 3, 16),
)


def sweep_job(session: Any, objects: list, index: int) -> tuple:
    """One (phi, beta) point: spectral, cylinder and periodic routes, checks."""
    measures, potentials, pressure = session
    phi = objects[index]
    spectral = pressure.pressure_spectral(phi)
    cylinder = pressure.pressure_limit("cylinder", phi, 1, SWEEP_N_MAX)
    periodic = pressure.pressure_limit("periodic", phi, 1, SWEEP_N_MAX)
    atomfree = (
        measures.atomfree_check(phi, SWEEP_ATOMFREE_N) if phi.system.k <= 3 else None
    )
    etas = [potentials.eta(phi, n) for n in range(1, phi.depth + 1)]
    return spectral, cylinder, periodic, atomfree, etas


def sweep_plan(seed: int) -> Plan:
    rng = np.random.default_rng([seed, 3])
    base_rng = np.random.default_rng(SWEEP_BASE_SEED)
    points: list[tuple[str, Any, int, dict]] = []
    refs: list[float] = []
    base = block_log_edges(full(2), 2, STALL_TABLE)
    for beta in SWEEP_STALL_BETAS:
        points.append(("stall", full(2), 2, {w: beta * v for w, v in STALL_TABLE.items()}))
        refs.append(log_perron_root(beta * base))
    for label, matrix, depth, count in SWEEP_TABLES:
        jitter = draw_table(rng, matrix, depth, -SWEEP_JITTER, SWEEP_JITTER)
        table = {w: v + jitter[w] for w, v in draw_table(base_rng, matrix, depth, -0.5, 0.5).items()}
        base = block_log_edges(matrix, depth, table)
        for beta in np.linspace(0.25, 4.0, count):
            beta = float(beta)
            points.append((label, matrix, depth, {w: beta * v for w, v in table.items()}))
            refs.append(log_perron_root(beta * base))

    def write_inputs(_: str) -> list:
        from thermoshift import potentials, sft

        return [
            potentials.LocallyConstantPotential(sft.TransitionSystem(m), d, t)
            for _, m, d, t in points
        ]

    def make_check(ref: float, k: int, depth: int) -> Callable[[Any], None]:
        def check(result) -> None:
            spectral, cylinder, periodic, atomfree, etas = result
            require(abs(spectral - ref) <= 1e-9, f"spectral {spectral!r}, reference {ref!r}")
            for est in (cylinder, periodic):
                gap = abs(est.extrapolated - ref)
                require(
                    gap <= est.error_bar + 1e-6,
                    f"{est.method} {est.extrapolated!r} is {gap:.2e} from {ref!r}, "
                    f"error bar {est.error_bar:.2e}",
                )
            require(k > 3 or atomfree is None or 1 <= atomfree <= SWEEP_ATOMFREE_N, f"witness {atomfree!r}")
            require(len(etas) == depth and all(0.0 <= e < math.inf for e in etas), f"eta {etas}")

        return check

    jobs = [
        Job(label, make_check(ref, len(matrix), depth), point=i)
        for i, ((label, matrix, depth, _), ref) in enumerate(zip(points, refs))
    ]
    return Plan(jobs, write_inputs, sweep_job)


PLANS: dict[str, Callable[[int], Plan]] = {
    "certify": certify_plan,
    "pressure-sweep": sweep_plan,
    "spectrum": spectrum_plan,
}
