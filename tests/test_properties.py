"""Property tests: the block round trip, the invariance check, the channel wire format
and spin labels."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dense_casimir_projectors, random_axis_angle, random_hermitian
from spinchannels.channel import channel_from_json, channel_to_json, random_channel
from spinchannels.invariant import (
    IsotypicDistribution,
    _require_invariant,
    isotypic_probabilities,
    state_from_distribution,
)
from spinchannels.linalg import ContractViolation
from spinchannels.spin import SpinLabel, rotation_unitary

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _dirichlet(twice_s, seed, concentration):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(twice_s + 1, concentration))


@settings(max_examples=30, deadline=None)
@given(
    twice_s=st.integers(min_value=1, max_value=10),
    seed=SEEDS,
    concentration=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_block_weights_round_trip(twice_s, seed, concentration):
    label = SpinLabel(twice_s)
    probs = _dirichlet(twice_s, seed, concentration)
    distribution = IsotypicDistribution(label, tuple(probs))
    state = state_from_distribution(distribution)

    found = isotypic_probabilities(state, label)
    assert np.abs(np.array(found.probs) - np.array(distribution.probs)).max() < 1e-10

    reference = sum(
        p * block / (2 * j + 1)
        for j, (p, block) in enumerate(zip(distribution.probs, dense_casimir_projectors(label)))
    )
    assert np.abs(state - reference).max() < 1e-12


def _sampled_rotation_deviation(rho, label):
    """Worst entry of W rho W^dagger - rho over ten seeded rotations W = U x U.

    The invariance test the twirl check replaced, with the same seed and draws.
    """
    rng = np.random.default_rng(171717)
    worst = 0.0
    for _ in range(10):
        u = rotation_unitary(label, *random_axis_angle(rng))
        w = np.kron(u, u)
        worst = max(worst, float(np.abs(w @ rho @ w.conj().T - rho).max()))
    return worst


@settings(max_examples=60, deadline=None)
@given(
    twice_s=st.integers(min_value=1, max_value=4),
    seed=SEEDS,
    log_eps=st.floats(min_value=-11.0, max_value=-7.0),
)
def test_twirl_check_never_accepts_what_sampled_rotations_reject(twice_s, seed, log_eps):
    label = SpinLabel(twice_s)
    rng = np.random.default_rng(seed)
    d2 = label.dimension**2
    probs = rng.dirichlet(np.ones(twice_s + 1))
    h = random_hermitian(rng, d2)
    h -= np.trace(h).real / d2 * np.eye(d2)
    h /= np.linalg.norm(h)
    rho = state_from_distribution(IsotypicDistribution(label, tuple(probs))) + 10.0**log_eps * h
    try:
        _require_invariant(rho, label, 1e-8)
    except ContractViolation:
        return
    assert _sampled_rotation_deviation(rho, label) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=5),
    n_kraus=st.integers(min_value=1, max_value=4),
    seed=SEEDS,
)
def test_channel_wire_format_round_trips_exactly(dim, n_kraus, seed):
    channel = random_channel(dim, n_kraus, seed)
    payload = channel_to_json(channel)
    for data in (payload, json.loads(json.dumps(payload))):
        rebuilt = channel_from_json(data)
        assert rebuilt.kraus.dtype == channel.kraus.dtype
        assert np.array_equal(rebuilt.kraus, channel.kraus)


TWICE_S = st.integers(min_value=0, max_value=10**6)


@given(twice_s=TWICE_S)
def test_spin_label_round_trips_through_text_and_numbers(twice_s):
    label = SpinLabel(twice_s)
    assert SpinLabel.from_string(str(label)) == label
    assert SpinLabel.coerce(label.twice_s / 2) == label


@pytest.mark.parametrize("denominator", range(3, 13))
@settings(max_examples=20)
@given(numerator=st.integers(min_value=-(10**6), max_value=10**6))
def test_spin_label_rejects_other_fractions(denominator, numerator):
    assume(math.gcd(numerator, denominator) == 1)
    with pytest.raises(ContractViolation):
        SpinLabel.from_string(f"{numerator}/{denominator}")


@given(twice_s=st.integers(min_value=1, max_value=10**6))
def test_spin_label_rejects_negative_values(twice_s):
    negative = -Fraction(twice_s, 2)
    with pytest.raises(ContractViolation):
        SpinLabel.from_string(str(negative))
    with pytest.raises(ContractViolation):
        SpinLabel.coerce(float(negative))
