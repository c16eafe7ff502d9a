"""Self-check battery behind the `verify` CLI command.

Each check compares a package computation against an independent route
(algebraic identity, closed form, or brute-force construction) and records
the worst residual seen. A check passes when its residual stays at or below
its tolerance. The battery is deterministic: every random draw comes from a
fixed seed. It checks the package's spin physics, isotropic channels,
searches and block decomposition; the generic linear-algebra and
random-channel identities are left to the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import invariant as inv
from . import optimize as opt
from .linalg import spectrum_entropy, unitarity_defect
from .spin import (
    SpinLabel,
    _random_axis_angle,
    rotation_unitary,
    singlet_state,
    spin_operators,
)

_SEED = 20240817
_SPINS = [SpinLabel(1), SpinLabel(2), SpinLabel(3), SpinLabel(4), SpinLabel(5)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float
    passed: bool


def _result(name: str, worst: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(worst), float(tolerance), float(worst) <= float(tolerance))


def _random_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _check_spin_algebra() -> list:
    commutator = 0.0
    casimir = 0.0
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for label in _SPINS:
        ops = spin_operators(label)
        d = label.dimension
        for (a, b), c in eps.items():
            residual = ops[a] @ ops[b] - ops[b] @ ops[a] - 1j * ops[c]
            commutator = max(commutator, float(np.abs(residual).max()))
        total = sum(op @ op for op in ops)
        casimir = max(
            casimir,
            float(np.abs(total - label.s * (label.s + 1.0) * np.eye(d)).max()),
        )
    return [
        _result("spin: commutators close the angular momentum algebra", commutator, 1e-12),
        _result("spin: sum of squares equals s(s+1)", casimir, 1e-12),
    ]


def _check_rotations(rng) -> list:
    unitarity = 0.0
    composition = 0.0
    for label in _SPINS[:3]:
        for _ in range(5):
            axis, angle = _random_axis_angle(rng)
            extra = float(rng.uniform(0.0, 2.0 * math.pi))
            u1 = rotation_unitary(label, axis, angle)
            u2 = rotation_unitary(label, axis, extra)
            u12 = rotation_unitary(label, axis, angle + extra)
            unitarity = max(unitarity, unitarity_defect(u1))
            composition = max(composition, float(np.abs(u1 @ u2 - u12).max()))
    return [
        _result("spin: rotation matrices are unitary", unitarity, 1e-10),
        _result("spin: same-axis rotations compose additively", composition, 1e-9),
    ]


def _check_singlet(rng) -> list:
    invariance = 0.0
    for label in _SPINS:
        psi = singlet_state(label)
        for _ in range(4):
            axis, angle = _random_axis_angle(rng)
            u = rotation_unitary(label, axis, angle)
            rotated = np.kron(u, u) @ psi
            overlap_phase = np.vdot(psi, rotated)
            invariance = max(invariance, float(np.linalg.norm(rotated - overlap_phase * psi)))
    return [_result("spin: the singlet is rotation invariant", invariance, 1e-10)]


def _check_bistochastic() -> list:
    worst = max(ch.isotropic_channel(label).bistochastic_defect() for label in _SPINS)
    return [_result("channel: isotropic channels are bistochastic", worst, 1e-12)]


def _check_covariance(rng) -> list:
    worst = 0.0
    for label in _SPINS[:3]:
        channel = ch.isotropic_channel(label)
        for _ in range(20):
            rho = _random_density(rng, label.dimension)
            axis, angle = _random_axis_angle(rng)
            u = rotation_unitary(label, axis, angle)
            left = ch.apply(channel, u @ rho @ u.conj().T)
            right = u @ ch.apply(channel, rho) @ u.conj().T
            worst = max(worst, float(np.abs(left - right).max()))
    return [_result("channel: isotropic channels are rotation covariant", worst, 1e-10)]


def _check_time_reversal(rng) -> list:
    worst = 0.0
    channel = ch.isotropic_channel(SpinLabel(1))
    for _ in range(50):
        rho = _random_density(rng, 2)
        worst = max(
            worst, float(np.abs(ch.time_reversal_apply(rho) - ch.apply(channel, rho)).max())
        )
    return [_result("channel: antiunitary form matches the Kraus form", worst, 1e-12)]


def _check_search() -> list:
    cfg = opt.SearchConfig(restarts=12, seed=_SEED)
    half = opt.min_output_entropy(ch.isotropic_channel(SpinLabel(1)), cfg)
    one = opt.min_output_entropy(ch.isotropic_channel(SpinLabel(2)), cfg)
    known = max(
        abs(half.value - inv.EXACT_SINGLE_CHANNEL_MIN[1]),
        abs(one.value - inv.EXACT_SINGLE_CHANNEL_MIN[2]),
    )
    spread = half.restart_values[-1] - half.restart_values[0]

    again = opt.min_output_entropy(ch.isotropic_channel(SpinLabel(2)), cfg)
    determinism = max(
        abs(one.value - again.value),
        float(np.abs(one.argmin - again.argmin).max()),
        max(abs(p - q) for p, q in zip(one.restart_values, again.restart_values)),
    )

    probe_cfg = opt.SearchConfig(restarts=8, seed=_SEED)
    iso = ch.isotropic_channel(SpinLabel(1))
    probe = opt.additivity_probe(iso, iso, probe_cfg)
    return [
        _result("optimize: search recovers the known closed-form minima", known, 1e-6),
        _result("optimize: the constant objective shows no restart spread", spread, 1e-9),
        _result("optimize: repeated searches are bit-identical", determinism, 0.0),
        _result("optimize: the probe never violates subadditivity", probe.gap, 1e-8),
    ]


def _check_invariant() -> list:
    # The closed-form report is compared with the matrix route.
    agreement = 0.0
    reconstruction = 0.0
    formula = 0.0
    reports = []
    for label in _SPINS[:4]:
        rho = inv.decohered_singlet(label)
        dist = inv.isotypic_probabilities(rho, label)
        report = inv.singlet_decoherence(label)
        reports.append(report)
        agreement = max(agreement, max(abs(a - b) for a, b in zip(dist.probs, report.probs)))
        rebuilt = inv.state_from_distribution(dist)
        reconstruction = max(reconstruction, float(np.abs(rebuilt - rho).max()))
        direct = spectrum_entropy(np.linalg.eigvalsh(rho))
        for entropy in (inv.invariant_state_entropy(dist), report.entropy):
            formula = max(formula, abs(entropy - direct))
    half, one = reports[:2]
    margin = max(0.09 - half.excess, 0.63 - one.excess)
    return [
        _result("invariant: all block-probability routes agree", agreement, 1e-9),
        _result("invariant: block mixture reconstructs the output state", reconstruction, 1e-9),
        _result("invariant: entropy formula matches diagonalization", formula, 1e-10),
        _result("invariant: decohered singlets exceed the additivity reference", margin, 0.0),
    ]


def run_checks() -> list:
    """Run the whole battery; deterministic, every draw seeded from _SEED."""
    rng = np.random.default_rng(_SEED)
    results = []
    results += _check_spin_algebra()
    results += _check_rotations(rng)
    results += _check_singlet(rng)
    results += _check_bistochastic()
    results += _check_covariance(rng)
    results += _check_time_reversal(rng)
    results += _check_search()
    results += _check_invariant()
    return results


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.worst:>12.3e}  {r.tolerance:>9.1e}  {status}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
