"""Property tests: the block round trip, the invariance check, the Kraus channel
invariants and wire format, the entropy gain's convexity bound, the single-use
minimum's certified bound, the two-copy minimum's certified bound, and spin
labels."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_casimir_projectors,
    random_axis_angle,
    random_density,
    random_hermitian,
    random_pure,
)
from spinchannels.channel import (
    TP_TOL,
    apply,
    channel_from_json,
    channel_to_json,
    entropy_gain,
    isotropic_channel,
    random_channel,
    tensor,
)
from spinchannels.invariant import (
    _INVARIANCE_TOL,
    IsotypicDistribution,
    _casimir_sectors,
    _twirl_pass,
    isotypic_probabilities,
    joint_min_bound,
    single_min_bound,
    state_from_distribution,
)
from spinchannels.linalg import ContractViolation, spectrum_entropy
from spinchannels.optimize import gain_convexity_bound
from spinchannels.spin import SpinLabel, rotation_unitary, singlet_state

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
    if _twirl_pass(rho, _casimir_sectors(label))[2] <= _INVARIANCE_TOL:  # the check accepts rho
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


CHANNEL_SIZES = {
    "dim": st.integers(min_value=1, max_value=4),
    "n_kraus": st.integers(min_value=1, max_value=3),
}


@settings(max_examples=25, deadline=None)
@given(**CHANNEL_SIZES, other_dim=st.integers(1, 3), other_kraus=st.integers(1, 3), seed=SEEDS)
def test_random_channels_and_their_products_are_trace_preserving(
    dim, n_kraus, other_dim, other_kraus, seed
):
    a = random_channel(dim, n_kraus, seed)
    b = random_channel(other_dim, other_kraus, [seed, 1])
    product = tensor(a, b)
    assert product.kraus.shape == (n_kraus * other_kraus, dim * other_dim, dim * other_dim)
    for channel in (a, b, product):
        assert channel.trace_preservation_defect() <= TP_TOL


@settings(max_examples=25, deadline=None)
@given(**CHANNEL_SIZES, seed=SEEDS)
def test_apply_keeps_trace_hermiticity_and_positivity(dim, n_kraus, seed):
    channel = random_channel(dim, n_kraus, seed)
    rho = random_density(np.random.default_rng([seed, 2]), dim)
    out = apply(channel, rho)
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.abs(out - out.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-12


@settings(max_examples=20, deadline=None)
@given(twice_s=st.integers(min_value=1, max_value=20))
def test_isotropic_channels_are_bistochastic(twice_s):
    channel = isotropic_channel(SpinLabel(twice_s))
    assert channel.trace_preservation_defect() <= TP_TOL
    assert channel.is_bistochastic()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=4),
    n_kraus=st.integers(min_value=1, max_value=3),
    seed=SEEDS,
    log_mixing=st.floats(min_value=-4.0, max_value=0.0),
)
def test_gain_convexity_bound_is_below_every_gain(dim, n_kraus, seed, log_mixing):
    """The bound at any full-rank state lies below the gain of every state: a global bound.

    rho mixes a pure state with a random one at weight 10**log_mixing, so some
    are nearly rank-deficient; sigma runs over random mixed states, pure states
    and states a small step from rho, where the linearization is tightest.
    """
    channel = random_channel(dim, n_kraus, seed)
    rng = np.random.default_rng([seed, 3])
    pure = random_pure(rng, dim)
    mixing = 10.0**log_mixing
    rho = (1.0 - mixing) * np.outer(pure, pure.conj()) + mixing * random_density(rng, dim)
    bound = gain_convexity_bound(channel, rho)
    assert math.isfinite(bound)
    for _ in range(4):
        mixed = random_density(rng, dim)
        other = random_pure(rng, dim)
        near = (1.0 - 1e-3) * rho + 1e-3 * mixed
        for sigma in (mixed, np.outer(other, other.conj()), near, rho):
            assert bound <= entropy_gain(channel, sigma)


@settings(max_examples=60, deadline=None)
@given(
    twice_s=st.integers(min_value=1, max_value=8),
    seed=SEEDS,
    start=st.sampled_from(["haar", "+x", "-x", "+y", "-y"]),
    log_step=st.floats(min_value=-9.0, max_value=0.0),
)
def test_single_min_bound_is_below_every_output_entropy(twice_s, seed, start, log_step):
    """No pure input's output has an eigenvalue above max(s, 1)/(s+1) or an entropy below the bound.

    Besides Haar states, psi starts at |+-s> along x or y, the kernels of P(0)
    and P(pi) where the certificate is tightest, and steps 10**log_step
    towards a random state.
    """
    label = SpinLabel(twice_s)
    s, d = label.s, label.dimension
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, d)
    if start != "haar":
        axis = [0.0, 1.0, 0.0] if start[1] == "x" else [1.0, 0.0, 0.0]  # z turns to x or y
        top = np.eye(d)[0 if start[0] == "+" else -1]
        psi = rotation_unitary(label, axis, np.pi / 2) @ top + 10.0**log_step * psi
        psi /= np.linalg.norm(psi)
    spectrum = np.linalg.eigvalsh(apply(isotropic_channel(label), np.outer(psi, psi.conj())))
    assert spectrum[-1] <= max(s, 1.0) / (s + 1.0) + 1e-14
    assert spectrum_entropy(spectrum) >= single_min_bound(label)


@settings(max_examples=60, deadline=None)
@given(
    twice_s=st.sampled_from([1, 2]),
    seed=SEEDS,
    start=st.sampled_from(["haar", "product", "singlet", "top"]),
    log_step=st.floats(min_value=-9.0, max_value=0.0),
)
def test_joint_min_bound_is_below_every_two_copy_output_entropy(twice_s, seed, start, log_step):
    """S((Lambda x Lambda)(psi)) >= `joint_min_bound` at spins 1/2 and 1.

    psi is a Haar state, a product of two, or a step of 10**log_step from
    the singlet or from |s, s> (the product minimum) towards a Haar state.
    """
    label = SpinLabel(twice_s)
    d = label.dimension
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, d * d)
    if start == "product":
        psi = np.kron(random_pure(rng, d), random_pure(rng, d))
    elif start != "haar":
        near = singlet_state(label) if start == "singlet" else np.eye(d * d)[0]
        psi = near + 10.0**log_step * psi
        psi /= np.linalg.norm(psi)
    pair = tensor(isotropic_channel(label), isotropic_channel(label))
    spectrum = np.linalg.eigvalsh(apply(pair, np.outer(psi, psi.conj())))
    assert spectrum_entropy(spectrum) >= joint_min_bound(label)


TWICE_S = st.integers(min_value=0, max_value=10**6)


@given(twice_s=TWICE_S)
def test_spin_label_round_trips_through_text_and_numbers(twice_s):
    label = SpinLabel(twice_s)
    assert SpinLabel.from_string(str(label)) == label
    assert SpinLabel.coerce(label.twice_s / 2) == label


@pytest.mark.parametrize("denominator", range(3, 13))
@settings(max_examples=20)
@given(data=st.data())
def test_spin_label_rejects_other_fractions(denominator, data):
    # every numerator in +-10^6 coprime to the denominator, as q * denominator + r
    residues = [r for r in range(denominator) if math.gcd(r, denominator) == 1]
    r = data.draw(st.sampled_from(residues))
    q = data.draw(st.integers(-((10**6 + r) // denominator), (10**6 - r) // denominator))
    numerator = q * denominator + r
    with pytest.raises(ContractViolation):
        SpinLabel.from_string(f"{numerator}/{denominator}")


@given(twice_s=st.integers(min_value=1, max_value=10**6))
def test_spin_label_rejects_negative_values(twice_s):
    negative = -Fraction(twice_s, 2)
    with pytest.raises(ContractViolation):
        SpinLabel.from_string(str(negative))
    with pytest.raises(ContractViolation):
        SpinLabel.coerce(float(negative))
