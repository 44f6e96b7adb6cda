"""K*(n) by the block-graph recursion against the folds it must reproduce.

For a Markov or RPF oracle against an additive target, certification reads
log K*(n) off a (max,+) recursion on the block graph.  The recursion must
return, bit for bit, the largest |log r| of the fold written out word by
word here in Python floats, and must stay within rounding of the
enumeration route (``_log_gibbs_ratios``) that every other oracle and
target still takes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoshift import (
    AdditiveSequence,
    ExplicitSequence,
    LocallyConstantPotential,
    MarkovMeasure,
    TableMeasure,
    TransitionSystem,
    ZeroCylinderMassError,
    build_log_mass_sequence,
    build_rpf,
    certify_weak_gibbs,
    check_sandwich,
    enumerate_words,
)
from thermoshift.log_mass import LogMassSequence
from thermoshift.measures import (
    _gibbs_ratio_rows,
    _log_gibbs_ratios,
    _log_kstar_series,
)

from conftest import markov_rows

SYSTEMS = (
    TransitionSystem.full_shift(2),
    TransitionSystem.full_shift(3),
    TransitionSystem.full_shift(4),
    TransitionSystem.golden_mean(),
)


def reference_folds(oracle, phi, p, n):
    """log r of every word of length n + d − 1, in word order: position t
    adds fl(log Q(block step ending at t) − φ(window ending at t)), a part
    left out where it does not exist, log π of the first block at t = b,
    and n·p last."""
    if isinstance(oracle, MarkovMeasure):
        chain, blocks = oracle, [(s,) for s in range(1, oracle.system.k + 1)]
    else:
        chain, blocks = oracle.chain, list(map(tuple, oracle.graph.states.tolist()))
    b, d = len(blocks[0]), phi.depth
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.asarray(chain.stationary)).tolist()
        log_q = np.log(np.asarray(chain.rows)).tolist()
    out = []
    for w in enumerate_words(phi.system, n + d - 1):
        acc = 0.0
        for t in range(1, n + d):
            mass = None
            if t == b:
                mass = log_pi[blocks.index(w[:b])]
            elif b < t <= n:
                mass = log_q[blocks.index(w[t - b - 1 : t - 1])][blocks.index(w[t - b : t])]
            window = phi.table[w[t - d : t]] if t >= d else None
            if mass is None and window is None:
                continue
            if window is None:
                acc += mass
            elif mass is None:
                acc += -window
            else:
                acc += mass - window
        out.append(acc + n * p)
    return out


@st.composite
def chain_cases(draw):
    """(oracle, potential, p, n_max): a Markov or RPF oracle with at most
    about 2000 words at n_max."""
    ts = draw(st.sampled_from(SYSTEMS))
    values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

    def table(depth):
        return {w: draw(values) for w in enumerate_words(ts, depth)}

    if draw(st.booleans()):
        oracle = MarkovMeasure.from_stochastic(ts, draw(markov_rows(ts)))
    else:
        depth = draw(st.integers(min_value=1, max_value=3))
        oracle = build_rpf(LocallyConstantPotential(ts, depth, table(depth)))
    d = draw(st.integers(min_value=1, max_value=3))
    phi = LocallyConstantPotential(ts, d, table(d))
    p = draw(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    longest = int(math.log(2000) / math.log(ts.k))
    return oracle, phi, p, longest - d + 1


@settings(max_examples=60, deadline=None)
@given(case=chain_cases())
def test_recursion_equals_the_enumerated_fold_and_the_enumeration_route(case):
    oracle, phi, p, n_max = case
    seq = AdditiveSequence(phi)
    log_ks, fold = _log_kstar_series(oracle, seq, p, n_max)
    assert fold is not None and len(log_ks) == n_max
    for n in range(fold.width, n_max + 1):
        folds = reference_folds(oracle, phi, p, n)
        assert log_ks[n - 1] == max(abs(x) for x in folds)
        words, rows = _gibbs_ratio_rows(oracle, seq, p, n, fold)
        assert rows.tolist() == folds
        legacy = float(np.max(np.abs(_log_gibbs_ratios(oracle, seq, p, n)[1])))
        assert abs(log_ks[n - 1] - legacy) <= 1e-13
    for n in range(1, fold.width):  # below the graph's word length: enumerated
        legacy = float(np.max(np.abs(_log_gibbs_ratios(oracle, seq, p, n)[1])))
        assert log_ks[n - 1] == legacy


def test_bernoulli_constant_is_exactly_one():
    ts = TransitionSystem.full_shift(3)
    probs = (0.2, 0.3, 0.5)
    mu = MarkovMeasure.bernoulli(ts, probs)
    phi = LocallyConstantPotential.from_symbol_values(ts, np.log(probs).tolist())
    cert = certify_weak_gibbs(mu, AdditiveSequence(phi), 0.0, 12)
    assert cert.route == "max-plus"
    assert all(k == 1.0 for _, k in cert.kstar)
    assert cert.verdict == "gibbs" and cert.gibbs_constant == 1.0


def test_markov_against_its_transition_potential_has_the_closed_form():
    # log r(w) = log π_{w_1} − log Q_{w_n s} for the extension symbol s
    ts = TransitionSystem.full_shift(3)
    rows = ((0.2, 0.5, 0.3), (0.6, 0.1, 0.3), (0.25, 0.25, 0.5))
    mu = MarkovMeasure.from_stochastic(ts, rows)
    log_pi, log_q = np.log(mu.stationary), np.log(rows)
    first = float(np.max(np.abs(log_pi[:, None] - log_q)))
    later = float(np.max(np.abs(log_pi[:, None, None] - log_q[None, :, :])))
    cert = certify_weak_gibbs(mu, AdditiveSequence(mu.transition_log_potential()), 0.0, 12)
    assert cert.route == "max-plus" and cert.block_order == 3
    assert abs(cert.log_k(1) - first) <= 1e-15
    for n in range(2, 13):
        assert abs(cert.log_k(n) - later) <= 1e-15


def test_long_windows_certify_a_six_symbol_chain():
    ts = TransitionSystem.full_shift(6)
    rng = np.random.default_rng(6)
    q = rng.uniform(0.2, 1.0, (6, 6))
    mu = MarkovMeasure.from_stochastic(ts, (q / q.sum(axis=1)[:, None]).tolist())
    cert = certify_weak_gibbs(mu, AdditiveSequence(mu.transition_log_potential()), 0.0, 1000)
    assert cert.verdict == "gibbs"
    assert cert.n_max == 1000


def test_certificates_record_their_route(full2, example_potential):
    data = build_rpf(example_potential)  # depth 2: blocks are symbols
    cert = certify_weak_gibbs(data, AdditiveSequence(example_potential), data.pressure, 6)
    assert (cert.route, cert.block_order) == ("max-plus", 2)
    table = {w: 0.1 * sum(w) for w in enumerate_words(full2, 3)}
    depth3 = LocallyConstantPotential(full2, 3, table)
    data3 = build_rpf(depth3)  # blocks of length 2
    cert = certify_weak_gibbs(data3, AdditiveSequence(depth3), data3.pressure, 6)
    assert (cert.route, cert.block_order) == ("max-plus", 4)
    masses = {w: data.mass(w) for n in range(1, 8) for w in enumerate_words(full2, n)}
    cert = certify_weak_gibbs(
        TableMeasure(full2, 7, masses), AdditiveSequence(example_potential), data.pressure, 6
    )
    assert (cert.route, cert.block_order) == ("enumeration", None)
    explicit = ExplicitSequence(full2, lambda n, w: 0.0, lambda n: n)
    cert = certify_weak_gibbs(data, explicit, 0.0, 5)
    assert (cert.route, cert.block_order) == ("enumeration", None)


def test_a_smaller_constant_names_the_first_violating_word(example_potential):
    data = build_rpf(example_potential)
    seq, target = build_log_mass_sequence(data), AdditiveSequence(example_potential)
    cert = certify_weak_gibbs(data, target, data.pressure, 8)
    assert check_sandwich(seq, target, data.pressure, cert, 8).slacks == (0.0,) * 8
    constant = math.exp(cert.log_k(3)) * 0.999
    report = check_sandwich(seq, target, data.pressure, constant, 8)
    n_bad, word = report.first_violation
    assert n_bad == min(n for n, lk in cert.log_kstar if lk > math.log(constant))
    folds = reference_folds(data, example_potential, data.pressure, n_bad)
    first = next(i for i, x in enumerate(folds) if abs(x) > math.log(constant))
    # the example potential has depth 2: each n-word is read with one extension
    assert word == list(enumerate_words(data.system, n_bad + 1))[first][:n_bad]


def test_zero_mass_witness_is_the_first_bad_word_of_the_first_bad_n(full2):
    # a golden-mean chain written on the full shift: 2 → 2 is allowed but
    # carries no weight, so (2, 2) is the first zero-mass cylinder
    mu = MarkovMeasure.from_stochastic(full2, ((0.5, 0.5), (1.0, 0.0)))
    phi = LocallyConstantPotential.from_symbol_values(full2, (0.0, 0.0))
    with pytest.raises(ZeroCylinderMassError, match=r"\(2, 2\) has zero mass"):
        certify_weak_gibbs(mu, AdditiveSequence(phi), 0.0, 6)
    # the sandwich does not raise: the zero mass is its first violation
    report = check_sandwich(LogMassSequence(mu), AdditiveSequence(phi), 0.0, 10.0, 6)
    assert report.first_violation == (2, (2, 2))
