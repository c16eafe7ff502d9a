"""Property tests: the block round trip and the channel wire format."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_casimir_projectors
from spinchannels.channel import channel_from_json, channel_to_json, random_channel
from spinchannels.invariant import (
    IsotypicDistribution,
    isotypic_probabilities,
    state_from_distribution,
)
from spinchannels.spin import SpinLabel

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
