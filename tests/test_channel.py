import json
import math

import numpy as np
import pytest

from helpers import (
    random_axis_angle,
    random_density,
    random_pure,
    replacement_channel,
    time_reversal_apply,
)
from spinchannels import channel as channel_module
from spinchannels.channel import (
    KrausChannel,
    apply,
    channel_from_json,
    channel_to_json,
    entropy_gain,
    isotropic_channel,
    load_channel,
    output_gram,
    random_channel,
    save_channel,
    tensor,
)
from spinchannels.linalg import ContractViolation, von_neumann_entropy
from spinchannels.spin import SpinLabel, rotation_unitary, spin_operators


class TestKrausChannel:
    def test_shape_and_properties(self):
        channel = random_channel(3, 2, seed=0)
        assert channel.n_kraus == 2
        assert channel.dim_in == 3
        assert channel.dim_out == 3
        assert channel.trace_preservation_defect() < 1e-12

    def test_single_matrix_promotes_to_stack(self):
        channel = KrausChannel(np.eye(2))
        assert channel.n_kraus == 1
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.abs(apply(channel, rho) - rho).max() < 1e-15

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ContractViolation, match="trace preserving"):
            KrausChannel(np.stack([np.eye(2), np.eye(2)]))

    def test_rejects_ragged_input(self):
        with pytest.raises(ContractViolation):
            KrausChannel([np.eye(2), np.eye(3)])
        with pytest.raises(ContractViolation, match="stack of matrices"):
            KrausChannel(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ContractViolation, match="stack of matrices"):
            KrausChannel(np.zeros((0, 2, 2)))

    def test_kraus_stack_is_read_only(self):
        channel = random_channel(2, 2, seed=1)
        with pytest.raises(ValueError):
            channel.kraus[0, 0, 0] = 1.0

    def test_bistochastic_predicate(self):
        assert isotropic_channel("1").is_bistochastic()
        assert not replacement_channel(3).is_bistochastic()


class TestIsotropicChannel:
    @pytest.mark.parametrize("label", [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(4)])
    def test_kraus_operators_are_scaled_spin_matrices(self, label):
        channel = isotropic_channel(label)
        scale = 1.0 / math.sqrt(label.s * (label.s + 1.0))
        for op, spin_op in zip(channel.kraus, spin_operators(label)):
            assert np.abs(op - scale * spin_op).max() < 1e-15

    @pytest.mark.parametrize("label", [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(5)])
    def test_bistochastic(self, label):
        assert isotropic_channel(label).bistochastic_defect() < 1e-12

    def test_rotational_covariance(self):
        rng = np.random.default_rng(41)
        for label in [SpinLabel(1), SpinLabel(2), SpinLabel(3)]:
            channel = isotropic_channel(label)
            for _ in range(10):
                rho = random_density(rng, label.dimension)
                axis, angle = random_axis_angle(rng)
                u = rotation_unitary(label, axis, angle)
                left = apply(channel, u @ rho @ u.conj().T)
                right = u @ apply(channel, rho) @ u.conj().T
                assert np.abs(left - right).max() < 1e-10

    def test_spin_zero_rejected(self):
        for _ in range(3):  # a failed build keeps nothing, so it raises every time
            with pytest.raises(ContractViolation, match="spin 0"):
                isotropic_channel(0)

    def test_each_spin_is_built_once_and_shared_read_only(self):
        shared = isotropic_channel("3/2")
        assert isotropic_channel(1.5) is shared and isotropic_channel(SpinLabel(3)) is shared
        assert not shared.kraus.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared.kraus[0, 0, 0] = 1.0
        maxsize = channel_module._isotropic_channel.cache_info().maxsize
        assert maxsize is not None and 6 <= maxsize <= 64


class TestApply:
    def test_matches_explicit_kraus_sum(self):
        rng = np.random.default_rng(42)
        channel = random_channel(3, 4, seed=2)
        rho = random_density(rng, 3)
        explicit = sum(op @ rho @ op.conj().T for op in channel.kraus)
        assert np.abs(apply(channel, rho) - explicit).max() < 1e-13

    def test_preserves_state_properties(self):
        rng = np.random.default_rng(43)
        for d, n in ((2, 3), (3, 2), (4, 4)):
            channel = random_channel(d, n, seed=d * 10 + n)
            rho = random_density(rng, d)
            out = apply(channel, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_is_linear(self):
        rng = np.random.default_rng(44)
        channel = random_channel(3, 2, seed=3)
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        mixed = apply(channel, 0.3 * a + 0.7 * b)
        split = 0.3 * apply(channel, a) + 0.7 * apply(channel, b)
        assert np.abs(mixed - split).max() < 1e-13

    def test_rejects_dimension_mismatch(self):
        channel = random_channel(3, 2, seed=4)
        with pytest.raises(ContractViolation, match="match"):
            apply(channel, np.eye(2) / 2.0)


class TestTensor:
    def test_factorizes_on_products(self):
        rng = np.random.default_rng(45)
        a = random_channel(2, 2, seed=5)
        b = random_channel(3, 2, seed=6)
        joint = tensor(a, b)
        assert joint.n_kraus == 4
        assert joint.dim_in == 6
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        left = apply(joint, np.kron(rho, sigma))
        right = np.kron(apply(a, rho), apply(b, sigma))
        assert np.abs(left - right).max() < 1e-12

    def test_isotropic_pair_is_bistochastic(self):
        one = isotropic_channel("1/2")
        assert tensor(one, one).bistochastic_defect() < 1e-12


class TestOutputGram:
    def test_entries_match_definition(self):
        rng = np.random.default_rng(46)
        channel = random_channel(3, 4, seed=7)
        phi = random_pure(rng, 3)
        gram = output_gram(channel, phi)
        moved = [op @ phi for op in channel.kraus]
        for k in range(4):
            for l in range(4):
                assert abs(gram[k, l] - np.vdot(moved[l], moved[k])) < 1e-13

    def test_adjoint_free_form_for_hermitian_kraus(self):
        # with Hermitian Kraus operators the entries reduce to <phi, X_l X_k phi>
        rng = np.random.default_rng(48)
        channel = isotropic_channel("1")
        phi = random_pure(rng, 3)
        gram = output_gram(channel, phi)
        for k in range(3):
            for l in range(3):
                plain = np.vdot(phi, channel.kraus[l] @ channel.kraus[k] @ phi)
                assert abs(gram[k, l] - plain) < 1e-13

    def test_spectrum_matches_channel_output(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            channel = random_channel(d, n, seed=int(rng.integers(0, 10**6)))
            phi = random_pure(rng, d)
            gram_spectrum = np.linalg.eigvalsh(output_gram(channel, phi))
            out_spectrum = np.linalg.eigvalsh(apply(channel, np.outer(phi, phi.conj())))
            size = max(n, d)
            padded_gram = np.zeros(size)
            padded_out = np.zeros(size)
            padded_gram[:n] = np.sort(gram_spectrum)[::-1]
            padded_out[:d] = np.sort(out_spectrum)[::-1]
            assert np.abs(padded_gram - padded_out).max() < 1e-9

    def test_spin_half_gram_spectrum_is_constant(self):
        # every pure input of the spin-1/2 channel yields spectrum (2/3, 1/3, 0)
        rng = np.random.default_rng(48)
        channel = isotropic_channel("1/2")
        for _ in range(20):
            phi = random_pure(rng, 2)
            spectrum = np.sort(np.linalg.eigvalsh(output_gram(channel, phi)))[::-1]
            assert np.abs(spectrum - np.array([2.0 / 3.0, 1.0 / 3.0, 0.0])).max() < 1e-9

    def test_rejects_unnormalized_or_mismatched_states(self):
        channel = isotropic_channel("1/2")
        with pytest.raises(ContractViolation, match="normalized"):
            output_gram(channel, np.array([1.0, 1.0]))
        with pytest.raises(ContractViolation, match="match"):
            output_gram(channel, np.array([1.0, 0.0, 0.0]))


class TestEntropyGain:
    def test_replacement_channel_on_mixed_input(self):
        for d in (2, 3, 4):
            channel = replacement_channel(d)
            gain = entropy_gain(channel, np.eye(d) / d)
            assert abs(gain + math.log(d)) < 1e-12

    def test_rejects_a_state_of_the_wrong_size(self):
        with pytest.raises(ContractViolation, match="does not match channel input dim 2"):
            entropy_gain(isotropic_channel("1/2"), np.eye(3) / 3.0)

    def test_bistochastic_gain_is_nonnegative(self):
        rng = np.random.default_rng(49)
        for label in [SpinLabel(1), SpinLabel(2)]:
            channel = isotropic_channel(label)
            for _ in range(10):
                rho = random_density(rng, label.dimension)
                assert entropy_gain(channel, rho) >= -1e-10


class TestTimeReversal:
    def test_matches_kraus_form(self):
        rng = np.random.default_rng(50)
        channel = isotropic_channel("1/2")
        for _ in range(50):
            rho = random_density(rng, 2)
            assert np.abs(time_reversal_apply(rho) - apply(channel, rho)).max() < 1e-12

    def test_algebraic_identity(self):
        # for Hermitian rho the map reduces to (2 tr(rho) I - rho) / 3
        rng = np.random.default_rng(51)
        rho = random_density(rng, 2)
        expected = (2.0 * np.trace(rho) * np.eye(2) - rho) / 3.0
        assert np.abs(time_reversal_apply(rho) - expected).max() < 1e-13

    def test_rejects_other_dimensions(self):
        with pytest.raises(ContractViolation, match="dimension 2"):
            time_reversal_apply(np.eye(3) / 3.0)


class TestRandomChannel:
    def test_deterministic_per_seed(self):
        a = random_channel(3, 2, seed=123)
        b = random_channel(3, 2, seed=123)
        c = random_channel(3, 2, seed=124)
        assert np.array_equal(a.kraus, b.kraus)
        assert not np.array_equal(a.kraus, c.kraus)

    def test_single_kraus_is_unitary(self):
        channel = random_channel(4, 1, seed=9)
        u = channel.kraus[0]
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_rejects_bad_counts(self):
        with pytest.raises(ContractViolation):
            random_channel(0, 2, seed=0)
        with pytest.raises(ContractViolation):
            random_channel(2, 0, seed=0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        channel = random_channel(3, 2, seed=14)
        path = tmp_path / "channel.json"
        save_channel(channel, path)
        loaded = load_channel(path)
        assert np.abs(loaded.kraus - channel.kraus).max() < 1e-15

    def test_wire_format_shape(self):
        channel = isotropic_channel("1/2")
        data = channel_to_json(channel)
        assert data["dim_in"] == 2
        assert data["dim_out"] == 2
        assert len(data["kraus"]) == 3
        rebuilt = channel_from_json(data)
        assert np.abs(rebuilt.kraus - channel.kraus).max() < 1e-15

    def test_rejects_missing_fields(self):
        with pytest.raises(ContractViolation, match="missing"):
            channel_from_json({"dim_in": 2, "kraus": []})

    def test_rejects_dimension_mismatch(self):
        data = channel_to_json(isotropic_channel("1/2"))
        data["dim_in"] = 5
        with pytest.raises(ContractViolation, match="declared"):
            channel_from_json(data)

    def test_rejects_non_trace_preserving_payload(self):
        data = {
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
        }
        with pytest.raises(ContractViolation, match="residual"):
            channel_from_json(data)

    def test_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ContractViolation, match="malformed"):
            load_channel(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_channel(tmp_path / "missing.json")


def test_entropy_never_decreases_under_isotropic_channels():
    rng = np.random.default_rng(52)
    for label in [SpinLabel(1), SpinLabel(2)]:
        channel = isotropic_channel(label)
        for _ in range(10):
            rho = random_density(rng, label.dimension)
            assert von_neumann_entropy(apply(channel, rho)) >= von_neumann_entropy(rho) - 1e-10


class TestNonFiniteAndDefects:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ContractViolation, match="trace preserving"):
            KrausChannel([[[bad, 0.0], [0.0, 1.0]]])
        with pytest.raises(ContractViolation, match="trace preserving"):
            KrausChannel(np.stack([np.eye(2) / math.sqrt(2.0), np.diag([bad, 0.0])]))

    def test_defects_match_the_kraus_sums(self):
        rng = np.random.default_rng(77)
        gaussian = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        q, _ = np.linalg.qr(gaussian)
        rectangular = KrausChannel(q.reshape(4, 3, 2))
        gram = sum(x.conj().T @ x for x in rectangular.kraus)
        assert rectangular.trace_preservation_defect() == pytest.approx(
            np.abs(gram - np.eye(2)).max(), abs=1e-15
        )
        leaky = replacement_channel(3)
        unital = sum(x @ x.conj().T for x in leaky.kraus)
        assert leaky.bistochastic_defect() == pytest.approx(
            np.abs(unital - np.eye(3)).max(), abs=1e-15
        )
        with pytest.raises(ContractViolation, match="rectangular"):
            rectangular.bistochastic_defect()


_IDENTITY_KRAUS = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]


@pytest.mark.parametrize(
    "payload",
    [
        {"dim_in": 2.9, "dim_out": 2, "kraus": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]},
        {"dim_in": 2.9, "dim_out": 2, "kraus": _IDENTITY_KRAUS},
        {"dim_in": 2, "dim_out": 2.0, "kraus": _IDENTITY_KRAUS},
        {"dim_in": True, "dim_out": 2, "kraus": _IDENTITY_KRAUS},
        {"dim_in": "2", "dim_out": 2, "kraus": _IDENTITY_KRAUS},
        {"dim_in": 2, "dim_out": 2, "kraus": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]},
        {"dim_in": 2, "dim_out": 2, "kraus": [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]]},
    ],
    ids=["float-dim-and-bool", "float-dim", "integral-float-dim", "bool-dim", "string-dim",
         "bool-entry", "string-entry"],
)
def test_wire_format_rejects_values_that_only_look_like_numbers(payload):
    with pytest.raises(ContractViolation):
        channel_from_json(payload)
