import math

import numpy as np
import pytest

from helpers import random_density
from spinchannels import invariant, spin
from spinchannels.channel import apply, isotropic_channel, tensor
from spinchannels.invariant import (
    EXACT_EXCESS,
    EXACT_PAIR_ENTROPY,
    EXACT_SINGLE_CHANNEL_MIN,
    IsotypicDistribution,
    _require_invariant,
    decohered_singlet,
    invariant_state_entropy,
    isotypic_probabilities,
    moment_probabilities,
    singlet_decoherence,
    state_from_distribution,
)
from spinchannels.linalg import ContractViolation, spectrum_entropy, von_neumann_entropy
from spinchannels.spin import SpinLabel, casimir_projectors, coupled_zero_m_state, singlet_state

SPINS = [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(4)]


def werner_mixture(label, weights):
    """Invariant state sum_j w_j P_j / (2j+1) built directly from projectors."""
    blocks = casimir_projectors(label)
    out = sum(w * p / (2 * j + 1) for j, (w, p) in enumerate(zip(weights, blocks)))
    return out.astype(complex)


class TestIsotypicDistribution:
    def test_accepts_and_clamps(self):
        dist = IsotypicDistribution(SpinLabel(1), (0.25, 0.75 + 1e-11))
        assert dist.probs[0] == 0.25
        noisy = IsotypicDistribution(SpinLabel(1), (-1e-11, 1.0))
        assert noisy.probs[0] == 0.0

    def test_rejects_bad_distributions(self):
        with pytest.raises(ContractViolation, match="sum"):
            IsotypicDistribution(SpinLabel(1), (0.5, 0.6))
        with pytest.raises(ContractViolation, match="positivity"):
            IsotypicDistribution(SpinLabel(1), (-0.1, 1.1))
        with pytest.raises(ContractViolation, match="expected"):
            IsotypicDistribution(SpinLabel(1), (1.0,))

    def test_rejects_non_finite_weights(self):
        # NaN passes every > comparison, so it needs its own check
        with pytest.raises(ContractViolation, match="not finite"):
            IsotypicDistribution("1/2", (np.nan, 0.5))


class TestIsotypicProbabilities:
    @pytest.mark.parametrize("label", SPINS)
    def test_recovers_werner_weights(self, label):
        rng = np.random.default_rng(61)
        raw = rng.uniform(0.1, 1.0, label.twice_s + 1)
        weights = raw / raw.sum()
        rho = werner_mixture(label, weights)
        dist = isotypic_probabilities(rho, label)
        assert np.abs(np.array(dist.probs) - weights).max() < 1e-10

    def test_singlet_projector_is_detected(self):
        label = SpinLabel(2)
        psi = singlet_state(label)
        dist = isotypic_probabilities(np.outer(psi, psi.conj()), label)
        expected = np.zeros(3)
        expected[0] = 1.0
        assert np.abs(np.array(dist.probs) - expected).max() < 1e-10

    def test_rejects_non_invariant_states(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 4)
        with pytest.raises(ContractViolation, match="invariant"):
            isotypic_probabilities(rho, "1/2")

    def test_rejects_non_finite_entries(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 1] = np.nan
        with pytest.raises(ContractViolation, match="not finite"):
            isotypic_probabilities(rho, "1/2")

    def test_rejects_wrong_dimension_and_trace(self):
        with pytest.raises(ContractViolation, match="match"):
            isotypic_probabilities(np.eye(6) / 6.0, "1/2")
        with pytest.raises(ContractViolation, match="trace"):
            isotypic_probabilities(np.eye(4), "1/2")


class TestThreePathAgreement:
    @pytest.mark.parametrize("label", SPINS)
    def test_projector_element_and_moment_routes(self, label):
        rho = decohered_singlet(label)
        projector_route = [
            float(np.trace(p @ rho).real) for p in casimir_projectors(label)
        ]
        element_route = [
            (2 * j + 1) * float(np.vdot(coupled_zero_m_state(label, j), rho @ coupled_zero_m_state(label, j)).real)
            for j in range(label.twice_s + 1)
        ]
        moment_route = list(moment_probabilities(label).probs)
        for a, b, c in zip(projector_route, element_route, moment_route):
            assert abs(a - b) < 1e-9
            assert abs(a - c) < 1e-9


class TestInvariantStateEntropy:
    @pytest.mark.parametrize("label", SPINS)
    def test_formula_matches_diagonalization(self, label):
        rng = np.random.default_rng(63)
        raw = rng.uniform(0.1, 1.0, label.twice_s + 1)
        weights = raw / raw.sum()
        rho = werner_mixture(label, weights)
        dist = isotypic_probabilities(rho, label)
        assert abs(invariant_state_entropy(dist) - von_neumann_entropy(rho)) < 1e-10

    def test_zero_probability_blocks_contribute_nothing(self):
        dist = IsotypicDistribution(SpinLabel(1), (0.0, 1.0))
        assert abs(invariant_state_entropy(dist) - math.log(3.0)) < 1e-15

    def test_base_conversion(self):
        dist = IsotypicDistribution(SpinLabel(1), (0.5, 0.5))
        nats = invariant_state_entropy(dist)
        bits = invariant_state_entropy(dist, base=2)
        assert abs(bits - nats / math.log(2.0)) < 1e-12


class TestStateFromDistribution:
    @pytest.mark.parametrize("label", SPINS[:3])
    def test_reconstructs_the_decohered_singlet(self, label):
        rho = decohered_singlet(label)
        dist = isotypic_probabilities(rho, label)
        rebuilt = state_from_distribution(dist)
        assert np.abs(rebuilt - rho).max() < 1e-10


class TestDecoheredSinglet:
    def test_output_matches_direct_channel_application(self):
        label = SpinLabel(1)
        one = isotropic_channel(label)
        psi = singlet_state(label)
        direct = apply(tensor(one, one), np.outer(psi, psi.conj()))
        assert np.abs(decohered_singlet(label) - direct).max() < 1e-14

    def test_spin_half_block_probabilities(self):
        report = singlet_decoherence("1/2")
        assert abs(report.probs[0] - 1.0 / 3.0) < 1e-10
        assert abs(report.probs[1] - 2.0 / 3.0) < 1e-10

    def test_spin_one_block_probabilities(self):
        report = singlet_decoherence("1")
        expected = (1.0 / 3.0, 1.0 / 4.0, 5.0 / 12.0)
        for got, want in zip(report.probs, expected):
            assert abs(got - want) < 1e-10

    def test_high_spin_blocks_above_two_vanish(self):
        # two spin operators acting on the singlet reach only j <= 2
        for label in (SpinLabel(3), SpinLabel(4), SpinLabel(5)):
            report = singlet_decoherence(label)
            for j in range(3, label.twice_s + 1):
                assert abs(report.probs[j]) < 1e-12

    def test_closed_form_entropies(self):
        half = singlet_decoherence("1/2")
        assert abs(half.entropy - EXACT_PAIR_ENTROPY[1]) < 1e-10
        assert abs(half.excess - EXACT_EXCESS[1]) < 1e-9
        assert half.excess > 0.0
        one = singlet_decoherence("1")
        assert abs(one.entropy - EXACT_PAIR_ENTROPY[2]) < 1e-10
        assert abs(one.excess - EXACT_EXCESS[2]) < 1e-9
        assert one.entropy > 2.0 * math.log(2.0)

    def test_reference_fields_follow_known_spins(self):
        half = singlet_decoherence("1/2")
        assert abs(half.two_channel_reference - 2.0 * EXACT_SINGLE_CHANNEL_MIN[1]) < 1e-12
        high = singlet_decoherence("3/2")
        assert high.single_channel_min is None
        assert high.two_channel_reference is None
        assert high.excess is None

    def test_base_conversion(self):
        nats = singlet_decoherence("1/2")
        bits = singlet_decoherence("1/2", base=2)
        assert abs(bits.entropy - nats.entropy / math.log(2.0)) < 1e-12
        assert np.abs(np.array(bits.probs) - np.array(nats.probs)).max() < 1e-15

    def test_as_dict_shapes(self):
        payload = singlet_decoherence("1/2", base=2).as_dict()
        assert payload["spin"] == "1/2"
        assert payload["log_base"] == "2"
        assert len(payload["probs"]) == 2
        assert "excess" in payload
        sparse = singlet_decoherence("2").as_dict()
        assert "excess" not in sparse
        assert "single_channel_min" not in sparse

    def test_spin_zero_rejected(self):
        with pytest.raises(ContractViolation, match="spin 0"):
            singlet_decoherence(0)


class TestSampledInvariance:
    def test_rejects_non_invariant_states(self):
        rng = np.random.default_rng(65)
        for twice_s in (1, 2, 3):
            d = twice_s + 1
            with pytest.raises(ContractViolation, match="invariant"):
                _require_invariant(random_density(rng, d * d), SpinLabel(twice_s), 1e-8)
            top = np.zeros((d * d, d * d), dtype=complex)
            top[0, 0] = 1.0  # |m=s> x |m=s>, the top of the j = 2s block
            with pytest.raises(ContractViolation, match="invariant"):
                _require_invariant(top, SpinLabel(twice_s), 1e-8)

    @pytest.mark.parametrize("twice_s", range(1, 9))
    def test_accepts_decohered_singlets(self, twice_s):
        label = SpinLabel(twice_s)
        _require_invariant(decohered_singlet(label), label, 1e-8)


class TestTwirlCheck:
    @pytest.mark.parametrize("twice_s", range(1, 5))
    def test_rejects_an_off_sector_perturbation(self, twice_s):
        label = SpinLabel(twice_s)
        rho = state_from_distribution(IsotypicDistribution(label, (1.0,) + (0.0,) * twice_s))
        _require_invariant(rho, label, 1e-8)
        # indices 0 and 1 hold |s>|s> (M = 2s) and |s>|s-1> (M = 2s-1)
        rho[0, 1] += 1e-8
        rho[1, 0] += 1e-8
        with pytest.raises(ContractViolation, match="not rotationally invariant"):
            _require_invariant(rho, label, 1e-8)

    def test_nan_residual_fails(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = np.nan
        with pytest.raises(ContractViolation, match="not rotationally invariant"):
            _require_invariant(rho, SpinLabel(1), 1e-8)

    @pytest.mark.parametrize("twice_s", [24, 40])
    def test_round_trip_at_large_spin(self, twice_s):
        label = SpinLabel(twice_s)
        probs = np.random.default_rng(66).dirichlet(np.ones(twice_s + 1))
        found = isotypic_probabilities(state_from_distribution(IsotypicDistribution(label, probs)), label)
        assert np.abs(np.array(found.probs) - probs).max() < 1e-12


class TestWorkCount:
    def test_one_sector_pass_and_no_rotations(self, monkeypatch):
        label = SpinLabel(4)
        rho = decohered_singlet(label)
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        sectors = counted("_casimir_sectors", spin._casimir_sectors)
        monkeypatch.setattr(spin, "_casimir_sectors", sectors)
        monkeypatch.setattr(invariant, "_casimir_sectors", sectors)
        monkeypatch.setattr(spin, "rotation_unitary", counted("rotation_unitary", spin.rotation_unitary))
        isotypic_probabilities(rho, label)
        assert calls == ["_casimir_sectors"]

    def test_total_spin_squared_runs_a_constant_number_of_times(self, monkeypatch):
        original = spin.total_spin_squared
        calls = []

        def counted(label):
            calls.append(label)
            return original(label)

        monkeypatch.setattr(spin, "total_spin_squared", counted)
        counts = []
        for twice_s in (2, 8):
            label = SpinLabel(twice_s)
            calls.clear()
            singlet_decoherence(label)
            assert calls == []
            isotypic_probabilities(decohered_singlet(label), label)
            moment_probabilities(label)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert 1 <= counts[0] <= 4


class TestClosedFormMatchesMatrixRoutes:
    @pytest.mark.parametrize("twice_s", range(1, 13))
    def test_weights_and_entropy(self, twice_s):
        label = SpinLabel(twice_s)
        report = singlet_decoherence(label)
        rho = decohered_singlet(label)
        closed = np.array(report.probs)
        for route in (isotypic_probabilities(rho, label), moment_probabilities(label)):
            assert np.abs(closed - np.array(route.probs)).max() < 1e-9
        assert abs(report.entropy - spectrum_entropy(np.linalg.eigvalsh(rho))) < 1e-10


class TestSizeGuard:
    def test_oversized_spin_is_rejected_before_allocating(self):
        with pytest.raises(ContractViolation, match="cap"):
            singlet_decoherence(2000000)

    def test_cap_admits_spin_eight(self):
        report = singlet_decoherence(8)
        q = 1.0 / (2.0 * 8.0 * 9.0)
        expected = [1.0 / 3.0, q, 2.0 / 3.0 - q] + [0.0] * 14
        assert np.abs(np.array(report.probs) - expected).max() < 1e-10
