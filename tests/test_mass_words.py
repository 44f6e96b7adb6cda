"""Array mass kernels against per-word reference loops, bit for bit.

``mass_words`` must give each row the bits ``mass`` gives that word, and the
checks that run on it (oracle validation, the Gibbs-one check, the zero-mass
scan, shift invariance, integrals) must report the gaps and witnesses of
the per-word loops written here.  Every sum in the references adds its
terms one at a time from 0.0, in the order the loops visit them.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (
    LocallyConstantPotential,
    MarkovMeasure,
    TableMeasure,
    TransitionSystem,
    ZeroCylinderMassError,
    build_log_mass_sequence,
    build_rpf,
    check_gibbs_one,
    integrate,
    shift_invariance_gap,
    validate_oracle,
    word_array,
)
from thermoshift.log_mass import LogMassSequence
from thermoshift.measures import CylinderMeasureOracle, _chain_fold

from conftest import brute_words, markov_rows, mixing_systems

T3 = TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1)))


def bits(values):
    return [float(x).hex() for x in values]


def ordered_sum(values):
    total = 0.0
    for x in values:
        total += x
    return total


def rows(ts, n):
    return [tuple(int(s) for s in row) for row in word_array(ts, n)]


def random_table(ts, depth, seed):
    rng = np.random.default_rng(seed)
    return {w: float(rng.uniform(-2.0, 2.0)) for w in brute_words(ts.matrix, depth)}


def table_of(mu, depth):
    masses = {w: mu.mass(w) for n in range(1, depth + 1) for w in brute_words(mu.system.matrix, n)}
    return TableMeasure(mu.system, depth, masses)


# ---------------------------------------------------------------------------
# per-word references


def reference_markov_mass(mu, word):
    """π_{w1}·Π Q_{w_j w_{j+1}} of a Markov oracle, multiplied left to right."""
    m = mu.stationary[word[0] - 1]
    for a, b in zip(word, word[1:]):
        m *= mu.rows[a - 1][b - 1]
    return m


def reference_rpf_mass(data, word):
    """μ(C_w) of an RPF oracle by the block path of ``blocks.index``."""
    bl = data.graph.width
    blocks = list(map(tuple, data.graph.states.tolist()))
    if len(word) < bl:
        return ordered_sum(
            p for b, p in zip(blocks, data.chain.stationary) if b[: len(word)] == word
        )
    path = [blocks.index(word[j : j + bl]) for j in range(len(word) - bl + 1)]
    m = data.chain.stationary[path[0]]
    for a, b in zip(path, path[1:]):
        m *= data.chain.rows[a][b]
    return m


def reference_validation(oracle, n_max, atol=1e-12):
    ts = oracle.system
    worst, witness, zero = 0.0, None, None
    gap = abs(ordered_sum(oracle.mass((s,)) for s in range(1, ts.k + 1)) - 1.0)
    if gap > worst:
        worst, witness = gap, ()
    for n in range(1, n_max):
        for w in brute_words(ts.matrix, n):
            ext = ordered_sum(oracle.mass(w + (s,)) for s in ts.successors(w[-1]))
            gap = abs(oracle.mass(w) - ext)
            if gap > worst:
                worst, witness = gap, w
    for n in range(1, n_max + 1):
        zero = next((w for w in brute_words(ts.matrix, n) if not oracle.mass(w) > 0), None)
        if zero is not None:
            break
    total_ok = abs(oracle.mass(()) - 1.0) <= atol
    return total_ok, worst, witness if worst > atol else None, zero


def reference_gibbs_one(oracle, n_max):
    worst, witness = 0.0, None
    for n in range(1, n_max + 1):
        for w in brute_words(oracle.system.matrix, n):
            m = oracle.mass(w)
            if not m > 0:
                raise ZeroCylinderMassError(f"admissible word {w} has zero mass")
            err = abs(m / math.exp(math.log(m)) - 1.0)
            if err > worst:
                worst, witness = err, w
    return worst, witness


def reference_shift_gap(oracle, n_max):
    ts = oracle.system
    worst = 0.0
    for n in range(1, n_max + 1):
        for w in brute_words(ts.matrix, n):
            back = ordered_sum(
                oracle.mass((s,) + w) for s in range(1, ts.k + 1) if ts.allows(s, w[0])
            )
            worst = max(worst, abs(back - oracle.mass(w)))
    return worst


def reference_integral(phi, oracle):
    return ordered_sum(oracle.mass(w) * phi.table[w] for w in brute_words(phi.system.matrix, phi.depth))


class Halved(CylinderMeasureOracle):
    """Every mass scaled by 1/2, empty word included."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def system(self):
        return self.inner.system

    def mass(self, word):
        return 0.5 * self.inner.mass(word)


def check_oracle_matches_references(oracle, n_max):
    report = validate_oracle(oracle, n_max)
    total_ok, gap, witness, zero = reference_validation(oracle, n_max)
    assert report.total_mass_ok == total_ok
    assert report.additivity_gap.hex() == gap.hex()
    assert report.additivity_witness == witness
    assert report.zero_mass_witness == zero
    assert report.positivity_ok == (zero is None)


# ---------------------------------------------------------------------------
# mass_words row for row


@pytest.mark.parametrize("ts", [TransitionSystem.full_shift(3), TransitionSystem.golden_mean(), T3])
def test_markov_mass_words_are_the_bits_of_mass(ts):
    rng = np.random.default_rng(ts.k)
    q = ts.as_array * rng.uniform(0.05, 1.0, (ts.k, ts.k))
    mu = MarkovMeasure.from_stochastic(ts, (q / q.sum(axis=1)[:, None]).tolist())
    for n in range(1, 8):
        want = bits(reference_markov_mass(mu, w) for w in rows(ts, n))
        assert bits(mu.mass_words(word_array(ts, n))) == want
        assert bits(mu.mass(w) for w in rows(ts, n)) == want


@pytest.mark.parametrize(
    "ts, depth",
    [
        (TransitionSystem.full_shift(3), 1),
        (TransitionSystem.full_shift(2), 3),
        (TransitionSystem.golden_mean(), 3),
        (T3, 3),
    ],
)
def test_rpf_mass_words_follow_the_block_path(ts, depth):
    data = build_rpf(LocallyConstantPotential(ts, depth, random_table(ts, depth, depth)))
    for n in range(1, 8):  # n < 3 are words shorter than a depth-3 block
        want = [reference_rpf_mass(data, w) for w in rows(ts, n)]
        assert bits(data.mass_words(word_array(ts, n))) == bits(want)
        assert bits(data.mass(w) for w in rows(ts, n)) == bits(want)
        if n < data.graph.width:  # longer words add logs, which differs in the last bits
            assert bits(data.log_mass_words(word_array(ts, n))) == bits(math.log(m) for m in want)


def test_a_stack_of_chains_folds_each_to_its_own_bits():
    # the candidate families fold (N, k) heads and (N, k, k) steps at once
    chains = []
    for seed in range(4):
        q = T3.as_array * np.random.default_rng(seed).uniform(0.05, 1.0, (3, 3))
        chains.append(MarkovMeasure.from_stochastic(T3, (q / q.sum(axis=1)[:, None]).tolist()))
    pi = np.array([mu.stationary for mu in chains])
    q = np.array([mu.rows for mu in chains])
    words = word_array(T3, 6)
    stacked = _chain_fold(pi, q, iter((words.T - 1).astype(np.int64)), np.multiply)
    for mu, row in zip(chains, stacked):
        assert bits(row) == bits(reference_markov_mass(mu, w) for w in rows(T3, 6))


def test_table_measure_uses_the_mass_loop(golden):
    table = table_of(MarkovMeasure.maximal_entropy(golden), 5)
    for n in range(1, 6):
        assert bits(table.mass_words(word_array(golden, n))) == bits(
            table.mass(w) for w in rows(golden, n)
        )


# ---------------------------------------------------------------------------
# the checks that run on mass_words


def passing_and_failing_oracles():
    full2, golden = TransitionSystem.full_shift(2), TransitionSystem.golden_mean()
    bern = MarkovMeasure.bernoulli(full2, (0.3, 0.7))
    corrupted = table_of(bern, 4)
    corrupted.masses[(1, 2)] += 1e-6
    scaled = table_of(bern, 3)
    for w in scaled.masses:
        scaled.masses[w] *= 0.5
    zero = table_of(bern, 3)
    zero.masses[(2, 1, 1)] = 0.0
    rpf = build_rpf(LocallyConstantPotential(golden, 3, random_table(golden, 3, 5)))
    return [
        ("bernoulli", bern, 6),
        ("parry", MarkovMeasure.maximal_entropy(golden), 7),
        ("rpf", rpf, 6),
        ("table", table_of(MarkovMeasure.maximal_entropy(golden), 5), 5),
        ("corrupted", corrupted, 4),
        ("scaled", scaled, 3),
        ("zero", zero, 3),
        ("halved", Halved(bern), 3),
    ]


@pytest.mark.parametrize("name, oracle, n_max", passing_and_failing_oracles())
def test_validation_matches_the_per_word_loop(name, oracle, n_max):
    for n in range(0, n_max + 1):
        check_oracle_matches_references(oracle, n)


@pytest.mark.parametrize("name, oracle, n_max", passing_and_failing_oracles())
def test_gibbs_one_matches_the_per_word_loop(name, oracle, n_max):
    seq = LogMassSequence(oracle)  # no scan: the check meets zero masses itself
    try:
        worst, witness = reference_gibbs_one(oracle, n_max)
    except ZeroCylinderMassError as exc:
        with pytest.raises(ZeroCylinderMassError, match=re.escape(str(exc))):
            check_gibbs_one(seq, n_max)
        with pytest.raises(ZeroCylinderMassError, match=re.escape(str(exc))):
            build_log_mass_sequence(oracle)
        return
    check_gibbs_one_matches(seq, n_max, worst, witness)


def check_gibbs_one_matches(seq, n_max, worst, witness):
    report = check_gibbs_one(seq, n_max)
    assert report.max_rel_error.hex() == worst.hex()
    assert report.witness == (witness if worst > 1e-14 else None)
    assert report.passed == (worst <= 1e-14)


@pytest.mark.parametrize("name, oracle, n_max", passing_and_failing_oracles())
def test_shift_gap_and_integral_match_the_per_word_loops(name, oracle, n_max):
    assert shift_invariance_gap(oracle, n_max - 1).hex() == reference_shift_gap(oracle, n_max - 1).hex()
    for depth in (1, 2):
        phi = LocallyConstantPotential(oracle.system, depth, random_table(oracle.system, depth, 9))
        assert integrate(phi, oracle).hex() == reference_integral(phi, oracle).hex()


@given(ts=mixing_systems, data=st.data())
@settings(max_examples=25, deadline=None)
def test_random_chains_validate_as_the_per_word_loop_does(ts, data):
    mu = MarkovMeasure.from_stochastic(ts, data.draw(markov_rows(ts)))
    check_oracle_matches_references(mu, 5)
    check_gibbs_one_matches(LogMassSequence(mu), 5, *reference_gibbs_one(mu, 5))
