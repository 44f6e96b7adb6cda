"""The structured-oracle view: ``block_chain`` and ``reference_potential``.

A Markov measure is a stationary chain on its block graph of width 1 and an
RPF measure one on a block graph of width b ≥ 1.  Folding a word along the
chain's block path must give the bits of ``mass``, the reference potential
must have pressure 0, and an oracle with no structure answers None to both
and is certified by enumeration.  ``_window_ranks`` skips its rank table
where rank and base-k code agree, and must still mark forbidden windows.
"""

import itertools

import numpy as np
import pytest

from thermoshift import (
    AdditiveSequence,
    LocallyConstantPotential,
    MarkovMeasure,
    TableMeasure,
    TransitionSystem,
    build_rpf,
    certify_weak_gibbs,
    enumerate_words,
    pressure_spectral,
    word_array,
)
from thermoshift.log_mass import LogMassSequence
from thermoshift.measures import CylinderMeasureOracle
from thermoshift.sft import _rank_table, _window_codes, _window_ranks

T3 = TransitionSystem(((1, 1, 0), (0, 1, 1), (1, 1, 1)))
SYSTEMS = [
    TransitionSystem.full_shift(2),
    TransitionSystem.full_shift(3),
    TransitionSystem.golden_mean(),
    T3,
]


def random_table(ts, depth, seed):
    rng = np.random.default_rng(seed)
    return {w: float(rng.uniform(-2.0, 2.0)) for w in enumerate_words(ts, depth)}


def random_markov(ts, seed):
    rng = np.random.default_rng(seed)
    q = ts.as_array * rng.uniform(0.05, 1.0, (ts.k, ts.k))
    return MarkovMeasure.from_stochastic(ts, (q / q.sum(axis=1)[:, None]).tolist())


def structured_oracles():
    """(oracle, block width b) for Markov chains, and for RPF measures of
    depth 2..4, whose block width is b = depth − 1."""
    cases = []
    for i, ts in enumerate(SYSTEMS):
        name = f"k{ts.k}" if ts.is_full else ("golden" if ts.k == 2 else "T3")
        cases.append(pytest.param(random_markov(ts, i), 1, id=f"markov-{name}"))
        for depth in (2, 3, 4):
            phi = LocallyConstantPotential(ts, depth, random_table(ts, depth, 10 * i + depth))
            cases.append(pytest.param(build_rpf(phi), depth - 1, id=f"rpf{depth - 1}-{name}"))
    return cases


class Delegate(CylinderMeasureOracle):
    """A chain's masses behind an oracle that declares no structure."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def system(self):
        return self.inner.system

    def mass(self, word):
        return self.inner.mass(word)


def block_fold_mass(graph, chain, word):
    """μ(C_w) by the chain's left-to-right product along w's block path."""
    states = [tuple(s) for s in graph.states.tolist()]
    b = graph.width
    path = [states.index(tuple(word[j : j + b])) for j in range(len(word) - b + 1)]
    m = chain.stationary[path[0]]
    for u, v in zip(path, path[1:]):
        m *= chain.rows[u][v]
    return m


@pytest.mark.parametrize("oracle, b", structured_oracles())
def test_folding_along_the_block_chain_gives_the_bits_of_mass(oracle, b):
    graph, chain = oracle.block_chain()
    assert graph.width == b
    assert graph.ts == oracle.system
    for n in range(b, b + 4):
        for w in enumerate_words(oracle.system, n):
            assert block_fold_mass(graph, chain, w).hex() == oracle.mass(w).hex()


@pytest.mark.parametrize("oracle, b", structured_oracles())
def test_the_reference_potential_has_pressure_zero(oracle, b):
    rho = oracle.reference_potential()
    assert rho.system == oracle.system
    assert abs(pressure_spectral(rho)) <= 1e-12
    assert LogMassSequence(oracle).family_member(3) == rho


def unstructured_oracles():
    golden = TransitionSystem.golden_mean()
    chain = MarkovMeasure.maximal_entropy(golden)
    masses = {w: chain.mass(w) for n in range(1, 7) for w in enumerate_words(golden, n)}
    return [
        pytest.param(TableMeasure(golden, 6, masses), id="table"),
        pytest.param(Delegate(chain), id="delegate"),
    ]


@pytest.mark.parametrize("oracle", unstructured_oracles())
def test_an_oracle_without_structure_has_no_view_and_is_enumerated(oracle):
    assert oracle.block_chain() is None
    assert oracle.reference_potential() is None
    assert LogMassSequence(oracle).family_member(1) is None
    phi = LocallyConstantPotential(oracle.system, 1, {(1,): -0.5, (2,): 0.25})
    cert = certify_weak_gibbs(oracle, AdditiveSequence(phi), pressure_spectral(phi), 6)
    assert cert.route == "enumeration"
    assert cert.block_order is None


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_window_ranks_on_a_full_shift_are_the_rank_table_indices(k, width):
    ts = TransitionSystem.full_shift(k)
    words = word_array(ts, 5)
    table = _rank_table(ts, width)
    want = [table[code] for code in _window_codes(words, k, width)]
    got = list(_window_ranks(ts, words, width))
    assert len(got) == len(want) == 5 - width + 1
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


@pytest.mark.parametrize("ts", [TransitionSystem.golden_mean(), T3], ids=["golden", "T3"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_window_ranks_mark_forbidden_windows(ts, width):
    # every word over the alphabet, admissible or not
    words = np.array(list(itertools.product(range(1, ts.k + 1), repeat=4)), dtype=np.int8)
    index = {tuple(w): i for i, w in enumerate(word_array(ts, width).tolist())}
    for j, ranks in enumerate(_window_ranks(ts, words, width)):
        want = [index.get(tuple(row[j : j + width]), -1) for row in words.tolist()]
        assert ranks.tolist() == want
    if width > 1:
        assert -1 in ranks.tolist()
