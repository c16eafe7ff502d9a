"""End-to-end acceptance criteria.

Each test checks one numbered criterion at its stated tolerance and prints a
[PASS] or [FAIL] line naming it, so the suite output doubles as a
reproduction report for the closed-form values and inequalities the package
implements.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dense_casimir_projectors,
    exact_moment_probabilities,
    exact_zero_m_states,
    operator_norm,
    partial_trace,
    random_axis_angle,
    random_density,
    random_pure,
    relative_entropy,
    replacement_channel,
    vector_from_json,
)
from spinchannels.channel import (
    apply,
    entropy_gain,
    isotropic_channel,
    output_gram,
    random_channel,
    tensor,
)
from spinchannels.cli import main
from spinchannels.invariant import isotypic_probabilities
from spinchannels.optimize import (
    SearchConfig,
    additivity_probe,
    haar_pure,
    min_entropy_gain,
    min_output_entropy,
)
from spinchannels.spin import SpinLabel, rotation_unitary

LN2 = math.log(2.0)
LN3 = math.log(3.0)
SPIN_HALF_MIN = LN3 - 2.0 * LN2 / 3.0
PAIR_HALF_ENTROPY = 5.0 * LN3 / 3.0 - 2.0 * LN2 / 3.0
PAIR_ONE_ENTROPY = LN3 + 4.0 * LN2 / 3.0
EXCESS_HALF = math.log(4.0 / 3.0) / 3.0


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[FAIL] criterion {number:02d}: {description}")
            raise
        with capsys.disabled():
            print(f"\n[PASS] criterion {number:02d}: {description}")

    return _criterion


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_01_spin_half_min_output(criterion, capsys):
    with criterion(1, "spin-1/2 minimum output entropy is ln 3 - (2/3) ln 2, all restarts equal"):
        code, out = run_cli(capsys, "min-output", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - SPIN_HALF_MIN) <= 1e-8
        values = payload["restart_values"]
        assert values[-1] - values[0] <= 1e-9


def test_criterion_02_spin_one_min_output(criterion, capsys):
    with criterion(2, "spin-1 minimum output entropy is ln 2 with output spectrum (1/2, 1/2, 0)"):
        code, out = run_cli(capsys, "min-output", "--spin", "1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - LN2) <= 1e-6
        argmin = vector_from_json(payload["argmin"])
        output = apply(isotropic_channel("1"), np.outer(argmin, argmin.conj()))
        spectrum = np.sort(np.linalg.eigvalsh(output))[::-1]
        assert np.abs(spectrum - np.array([0.5, 0.5, 0.0])).max() <= 1e-6


def test_criterion_03_gram_norm_bound(criterion):
    with criterion(3, "spin-1 Gram operator norm stays at or below 1/2 and approaches it"):
        channel = isotropic_channel("1")
        largest = 0.0
        for seed in range(1000):
            phi = haar_pure(3, seed=seed)
            largest = max(largest, operator_norm(output_gram(channel, phi)))
        assert largest <= 0.5 + 1e-12
        assert largest > 0.45


def test_criterion_04_singlet_spin_half(criterion, capsys):
    with criterion(4, "spin-1/2 decohered singlet: probs (1/3, 2/3), entropy, positive excess"):
        code, out = run_cli(capsys, "singlet", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["probs"][0] - 1.0 / 3.0) <= 1e-10
        assert abs(payload["probs"][1] - 2.0 / 3.0) <= 1e-10
        assert abs(payload["entropy"] - PAIR_HALF_ENTROPY) <= 1e-10
        assert abs(payload["excess"] - EXCESS_HALF) <= 1e-9
        assert payload["excess"] > 0.0


def test_criterion_05_singlet_spin_one(criterion, capsys):
    with criterion(5, "spin-1 decohered singlet: probs (1/3, 1/4, 5/12) and entropy above 2 ln 2"):
        code, out = run_cli(capsys, "singlet", "--spin", "1")
        assert code == 0
        payload = json.loads(out)
        expected = (1.0 / 3.0, 1.0 / 4.0, 5.0 / 12.0)
        for got, want in zip(payload["probs"], expected):
            assert abs(got - want) <= 1e-10
        assert abs(payload["entropy"] - PAIR_ONE_ENTROPY) <= 1e-10
        assert payload["entropy"] > 2.0 * LN2


def test_criterion_06_three_path_agreement(criterion):
    with criterion(6, "three block-probability routes agree for s in {1/2, 1, 3/2, 2}"):
        for label in [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(4)]:
            one = isotropic_channel(label)
            states = exact_zero_m_states(label)
            rho = apply(tensor(one, one), np.outer(states[0], states[0]))
            projector_route = [
                float(np.trace(p @ rho).real) for p in dense_casimir_projectors(label)
            ]
            element_route = [
                (2 * j + 1) * float(np.vdot(v, rho @ v).real) for j, v in enumerate(states)
            ]
            moment_route = exact_moment_probabilities(label)
            package_route = isotypic_probabilities(rho, label).probs
            for a, b, c, p in zip(projector_route, element_route, moment_route, package_route):
                assert abs(a - b) <= 1e-9
                assert abs(a - c) <= 1e-9
                assert abs(a - p) <= 1e-9


def test_criterion_07_rotational_covariance(criterion):
    with criterion(7, "isotropic channels commute with rotations on random states"):
        rng = np.random.default_rng(777)
        worst = 0.0
        for label in [SpinLabel(1), SpinLabel(2), SpinLabel(3)]:
            channel = isotropic_channel(label)
            for _ in range(100):
                rho = random_density(rng, label.dimension)
                axis, angle = random_axis_angle(rng)
                u = rotation_unitary(label, axis, angle)
                left = apply(channel, u @ rho @ u.conj().T)
                right = u @ apply(channel, rho) @ u.conj().T
                worst = max(worst, float(np.abs(left - right).max()))
        assert worst <= 1e-10


def test_criterion_08_gram_spectrum_shortcut(criterion):
    with criterion(8, "Gram matrix and channel output share their nonzero spectra"):
        rng = np.random.default_rng(888)
        worst = 0.0
        for _ in range(100):
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
            worst = max(worst, float(np.abs(padded_gram - padded_out).max()))
        assert worst <= 1e-9


def test_criterion_09_entropy_gain_bounds(criterion):
    with criterion(9, "minimum entropy gain obeys [-ln d, 0], vanishing for bistochastic"):
        cfg = SearchConfig(restarts=8, seed=9)
        for d in (2, 3):
            for seed in range(10):
                channel = random_channel(d, 3, seed=100 * d + seed)
                report = min_entropy_gain(channel, cfg)
                assert -math.log(d) - 1e-8 <= report.value <= 1e-8
        for spin in ("1/2", "1"):
            report = min_entropy_gain(isotropic_channel(spin), cfg)
            assert abs(report.value) <= 1e-8
        for d in (2, 3):
            report = min_entropy_gain(replacement_channel(d), cfg)
            assert abs(report.value + math.log(d)) <= 1e-6


def test_criterion_10_gain_additivity_and_proof_inequalities(criterion):
    with criterion(10, "gain superadditivity, relative-entropy monotonicity, and additivity"):
        rng = np.random.default_rng(1010)
        super_violation = 0.0
        mono_violation = 0.0
        for _ in range(200):
            d_a = int(rng.integers(2, 4))
            d_b = int(rng.integers(2, 4))
            chan_a = random_channel(d_a, 2, seed=int(rng.integers(0, 10**6)))
            chan_b = random_channel(d_b, 2, seed=int(rng.integers(0, 10**6)))
            joint_channel = tensor(chan_a, chan_b)
            rho = random_density(rng, d_a * d_b)
            rho_a = partial_trace(rho, (d_a, d_b), "A")
            rho_b = partial_trace(rho, (d_a, d_b), "B")

            joint_gain = entropy_gain(joint_channel, rho)
            split_gain = entropy_gain(chan_a, rho_a) + entropy_gain(chan_b, rho_b)
            super_violation = max(super_violation, split_gain - joint_gain)

            before = relative_entropy(rho, np.kron(rho_a, rho_b))
            after = relative_entropy(
                apply(joint_channel, rho),
                np.kron(apply(chan_a, rho_a), apply(chan_b, rho_b)),
            )
            mono_violation = max(mono_violation, after - before)
        assert super_violation <= 1e-8
        assert mono_violation <= 1e-8

        single_cfg = SearchConfig(restarts=8, seed=20)
        joint_cfg = SearchConfig(restarts=12, seed=21)
        for pair in range(10):
            chan_a = random_channel(2, 3, seed=2000 + pair)
            chan_b = random_channel(2, 3, seed=3000 + pair)
            g_a = min_entropy_gain(chan_a, single_cfg).value
            g_b = min_entropy_gain(chan_b, single_cfg).value
            g_joint = min_entropy_gain(tensor(chan_a, chan_b), joint_cfg).value
            assert abs(g_joint - g_a - g_b) <= 1e-3


def test_criterion_11_additivity_probe(criterion):
    with criterion(11, "256-restart probe finds the spin-1/2 pair additive on product states"):
        one = isotropic_channel("1/2")
        probe = additivity_probe(one, one, SearchConfig(restarts=256, seed=0))
        assert abs(probe.joint.value - 2.0 * SPIN_HALF_MIN) <= 1e-6
        assert probe.schmidt_coefficients[1] <= 1e-3
        assert probe.joint.value - probe.single_a.value - probe.single_b.value <= 1e-8


def test_criterion_12_byte_identical_json(criterion, capsys):
    with criterion(12, "identical flags produce byte-identical JSON output"):
        argv = ["min-output", "--spin", "1", "--restarts", "8", "--seed", "5"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        command = [sys.executable, "-m", "spinchannels", "singlet", "--spin", "1/2"]
        runs = [
            subprocess.run(command, capture_output=True, env=env, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert json.loads(runs[0].decode())["spin"] == "1/2"
