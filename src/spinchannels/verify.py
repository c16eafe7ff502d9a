"""Self-check battery behind the `verify` CLI command.

Each check compares a package computation against an independent route
(algebraic identity, closed form, or brute-force construction) and records
the worst residual seen. A check passes when its residual stays at or below
its tolerance. The battery is deterministic: every random draw comes from a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import invariant as inv
from . import optimize as opt
from .linalg import (
    partial_trace,
    relative_entropy,
    spectrum_entropy,
    unitarity_defect,
    von_neumann_entropy,
)
from .spin import (
    SpinLabel,
    _coupled_zero_m_states,
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


def _check_entropy_identities(rng) -> list:
    invariance = 0.0
    additivity = 0.0
    for d in (2, 3, 4):
        rho = _random_density(rng, d)
        sigma = _random_density(rng, d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        invariance = max(
            invariance,
            abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho)),
        )
        additivity = max(
            additivity,
            abs(
                von_neumann_entropy(np.kron(rho, sigma))
                - von_neumann_entropy(rho)
                - von_neumann_entropy(sigma)
            ),
        )
    return [
        _result("linalg: entropy is unitarily invariant", invariance, 1e-10),
        _result("linalg: entropy is additive on products", additivity, 1e-10),
    ]


def _check_partial_trace(rng) -> list:
    worst = 0.0
    for d_a, d_b in ((2, 3), (3, 2), (2, 2)):
        rho = _random_density(rng, d_a)
        sigma = _random_density(rng, d_b)
        product = np.kron(rho, sigma)
        worst = max(worst, float(np.abs(partial_trace(product, (d_a, d_b), "A") - rho).max()))
        worst = max(worst, float(np.abs(partial_trace(product, (d_a, d_b), "B") - sigma).max()))
    return [_result("linalg: partial trace inverts tensor products", worst, 1e-12)]


def _check_relative_entropy(rng) -> list:
    most_negative = 0.0
    for d in (2, 3, 4):
        for _ in range(5):
            rho = _random_density(rng, d)
            sigma = _random_density(rng, d)
            value = relative_entropy(rho, sigma)
            most_negative = max(most_negative, max(0.0, -value))
    return [_result("linalg: relative entropy is nonnegative", most_negative, 1e-10)]


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


def _check_coupled_states(rng) -> list:
    # The J^2 and J_3 eigenvector residuals of these states are checked, at
    # 1e-10, every time the stack is built.
    gram = 0.0
    invariance = 0.0
    for label in _SPINS:
        d = label.dimension
        states = _coupled_zero_m_states(label)
        overlap = states.conj() @ states.T
        gram = max(gram, float(np.abs(overlap - np.eye(d)).max()))
        psi = singlet_state(label)
        for _ in range(4):
            axis, angle = _random_axis_angle(rng)
            u = rotation_unitary(label, axis, angle)
            rotated = np.kron(u, u) @ psi
            overlap_phase = np.vdot(psi, rotated)
            invariance = max(invariance, float(np.linalg.norm(rotated - overlap_phase * psi)))
    return [
        _result("spin: coupled |j;0> states are orthonormal", gram, 1e-10),
        _result("spin: the singlet is rotation invariant", invariance, 1e-10),
    ]


def _check_channel_basics(rng) -> list:
    bistochastic = 0.0
    trace_dev = 0.0
    positivity = 0.0
    factorization = 0.0
    for label in _SPINS:
        bistochastic = max(bistochastic, ch.isotropic_channel(label).bistochastic_defect())
    for d, n in ((2, 3), (3, 2), (4, 4)):
        channel = ch.random_channel(d, n, rng)
        rho = _random_density(rng, d)
        out = ch.apply(channel, rho)
        trace_dev = max(trace_dev, abs(float(np.trace(out).real) - 1.0))
        positivity = max(positivity, max(0.0, -float(np.linalg.eigvalsh(out).min())))
    for _ in range(3):
        a = ch.random_channel(2, 2, rng)
        b = ch.random_channel(3, 2, rng)
        rho = _random_density(rng, 2)
        sigma = _random_density(rng, 3)
        joint = ch.apply(ch.tensor(a, b), np.kron(rho, sigma))
        split = np.kron(ch.apply(a, rho), ch.apply(b, sigma))
        factorization = max(factorization, float(np.abs(joint - split).max()))
    return [
        _result("channel: isotropic channels are bistochastic", bistochastic, 1e-12),
        _result("channel: outputs stay trace one", trace_dev, 1e-12),
        _result("channel: outputs stay positive", positivity, 1e-10),
        _result("channel: tensor factorizes on product states", factorization, 1e-10),
    ]


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


def _check_gram(rng) -> list:
    worst = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        channel = ch.random_channel(d, n, rng)
        phi = opt._haar_from_rng(rng, d)
        gram = ch.output_gram(channel, phi)
        out = ch.apply(channel, np.outer(phi, phi.conj()))
        size = max(n, d)
        a = np.zeros(size)
        b = np.zeros(size)
        a[:n] = np.linalg.eigvalsh(gram)[::-1][:n]
        b[:d] = np.linalg.eigvalsh(out)[::-1][:d]
        worst = max(worst, float(np.abs(np.sort(a) - np.sort(b)).max()))
    return [_result("channel: Gram matrix carries the output spectrum", worst, 1e-9)]


def _check_time_reversal(rng) -> list:
    worst = 0.0
    channel = ch.isotropic_channel(SpinLabel(1))
    for _ in range(50):
        rho = _random_density(rng, 2)
        worst = max(
            worst, float(np.abs(ch.time_reversal_apply(rho) - ch.apply(channel, rho)).max())
        )
    return [_result("channel: antiunitary form matches the Kraus form", worst, 1e-12)]


def _check_monotonicity(rng) -> list:
    violation = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 4))
        channel = ch.random_channel(d, int(rng.integers(2, 4)), rng)
        rho = _random_density(rng, d)
        sigma = _random_density(rng, d)
        before = relative_entropy(rho, sigma)
        after = relative_entropy(ch.apply(channel, rho), ch.apply(channel, sigma))
        violation = max(violation, max(0.0, after - before))
    return [_result("channel: relative entropy is monotone", violation, 1e-8)]


def _check_gain_superadditivity(rng) -> list:
    violation = 0.0
    for _ in range(10):
        d_a = int(rng.integers(2, 4))
        d_b = int(rng.integers(2, 4))
        a = ch.random_channel(d_a, 2, rng)
        b = ch.random_channel(d_b, 2, rng)
        rho = _random_density(rng, d_a * d_b)
        joint = ch.entropy_gain(ch.tensor(a, b), rho)
        part_a = ch.entropy_gain(a, partial_trace(rho, (d_a, d_b), "A"))
        part_b = ch.entropy_gain(b, partial_trace(rho, (d_a, d_b), "B"))
        violation = max(violation, max(0.0, part_a + part_b - joint))
    return [_result("channel: entropy gain is superadditive", violation, 1e-8)]


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
    # The closed-form report is compared with the three matrix routes.
    three_path = 0.0
    reconstruction = 0.0
    formula = 0.0
    reports = []
    for label in _SPINS[:4]:
        rho = inv.decohered_singlet(label)
        dist = inv.isotypic_probabilities(rho, label)
        moments = inv.moment_probabilities(label)
        report = inv.singlet_decoherence(label)
        reports.append(report)
        for probs in (moments.probs, report.probs):
            three_path = max(three_path, max(abs(a - b) for a, b in zip(dist.probs, probs)))
        rebuilt = inv.state_from_distribution(dist)
        reconstruction = max(reconstruction, float(np.abs(rebuilt - rho).max()))
        direct = spectrum_entropy(np.linalg.eigvalsh(rho))
        for entropy in (inv.invariant_state_entropy(dist), report.entropy):
            formula = max(formula, abs(entropy - direct))
    half, one = reports[:2]
    margin = max(0.09 - half.excess, 0.63 - one.excess)
    return [
        _result("invariant: all block-probability routes agree", three_path, 1e-9),
        _result("invariant: block mixture reconstructs the output state", reconstruction, 1e-9),
        _result("invariant: entropy formula matches diagonalization", formula, 1e-10),
        _result("invariant: decohered singlets exceed the additivity reference", margin, 0.0),
    ]


def run_checks(seed: int = _SEED) -> list:
    """Run the whole battery; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    results = []
    results += _check_entropy_identities(rng)
    results += _check_partial_trace(rng)
    results += _check_relative_entropy(rng)
    results += _check_spin_algebra()
    results += _check_rotations(rng)
    results += _check_coupled_states(rng)
    results += _check_channel_basics(rng)
    results += _check_covariance(rng)
    results += _check_gram(rng)
    results += _check_time_reversal(rng)
    results += _check_monotonicity(rng)
    results += _check_gain_superadditivity(rng)
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
