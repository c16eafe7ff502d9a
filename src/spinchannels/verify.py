"""Self-check battery behind the `verify` CLI command.

Each check compares a package computation against an independent route
(closed form or repeated run) and records the worst residual seen. A check
passes when its residual stays at or below its tolerance. The battery is
deterministic: every search is seeded. It checks the paper's three claims:
at 2s = 1 to 8, the single-copy minimum `invariant.single_min_entropy`
against a search, and the decohered singlet's excess over twice it against
the eigenvalues of its state; and the additivity of the minimum entropy
gain on one seeded product of random channels. The gain row passes only
when all three of its searches close a certified bracket
(`optimize.gain_convexity_bound`) and their values add. One more row
checks that a repeated spin-3/2 search, run without its certified bound so
that every restart takes steps, is bit-identical. Restart spread, the
additivity probe, the block-decomposition routes, spin algebra, rotations,
channel identities and generic linear algebra are left to the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import invariant as inv
from . import optimize as opt
from .linalg import spectrum_entropy
from .spin import SpinLabel

_SEED = 20240817
_SPINS = tuple(map(SpinLabel, range(1, 9)))  # 2s = 1 to 8, the closed-form and excess rows


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float
    passed: bool


def _result(name: str, worst: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(worst), float(tolerance), float(worst) <= float(tolerance))


def _check_search() -> list:
    cfg = opt.SearchConfig(restarts=12, seed=_SEED)
    searches = {spin: opt.min_output_entropy(ch.isotropic_channel(spin), cfg) for spin in _SPINS}
    known = max(abs(r.value - inv.single_min_entropy(spin)) for spin, r in searches.items())

    # No search gets `invariant.single_min_bound`, so every restart runs: spin 3/2 takes L-BFGS
    # steps (216 evaluations here), where `min-output --spin 3/2` stops at restart 0. It reruns.
    rerun = SpinLabel(3)
    one, again = searches[rerun], opt.min_output_entropy(ch.isotropic_channel(rerun), cfg)
    determinism = max(
        abs(one.value - again.value),
        float(np.abs(one.argmin - again.argmin).max()),
        max(abs(p - q) for p, q in zip(one.restart_values, again.restart_values)),
    )
    return [
        _result("optimize: search recovers the known closed-form minima", known, 1e-6),
        _result("optimize: repeated searches are bit-identical", determinism, 0.0),
    ]


def _check_invariant() -> list:
    # the claim: the singlet's entropy exceeds twice the single minimum by the excess
    excess = 0.0
    for label in _SPINS:
        direct = spectrum_entropy(np.linalg.eigvalsh(inv.decohered_singlet(label)))
        report = inv.singlet_decoherence(label)
        excess = max(excess, abs(direct - 2.0 * inv.single_min_entropy(label) - report.excess))
    return [_result("invariant: decohered singlet excess equals its closed form", excess, 1e-12)]


def _check_gain_additivity() -> list:
    # The first channel pair of acceptance criterion 10, at its search settings.
    chan_a = ch.random_channel(2, 3, seed=2000)
    chan_b = ch.random_channel(2, 3, seed=3000)
    single_cfg = opt.SearchConfig(restarts=8, seed=20)
    a = opt.min_entropy_gain(chan_a, single_cfg)
    b = opt.min_entropy_gain(chan_b, single_cfg)
    joint = opt.min_entropy_gain(ch.tensor(chan_a, chan_b), opt.SearchConfig(restarts=12, seed=21))
    # a search whose bracket stays open fails the row, whatever its value
    certified = all(r.certificate == "certified" for r in (a, b, joint))
    gap = abs(joint.value - a.value - b.value) if certified else math.inf
    return [
        _result(
            "optimize: the minimum entropy gain adds on a seeded pair (certified bracket)",
            gap,
            1e-9,
        )
    ]


def run_checks() -> list:
    """Run the whole battery; deterministic, every search seeded."""
    return _check_search() + _check_invariant() + _check_gain_additivity()


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.worst:>12.3e}  {r.tolerance:>9.1e}  {status}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
