"""Angular momentum operators of one half-integer spin, and the two-spin singlet.

Conventions
-----------
The single-spin basis is ordered by decreasing magnetic quantum number,
m = s, s-1, ..., -s, so S_3 = diag(s, s-1, ..., -s). Ladder operators carry
the standard matrix elements sqrt(s(s+1) - m(m+1)), with hbar = 1 throughout.
Two-spin indices flatten as (m_row, m'_col) -> row * d + col, matching
`linalg.kron`.

The coupled states |j; M> of two spins, up to sign, are found and kept by
`invariant`, whose block routes need no phase. The one state used with a
phase, the singlet |0; 0>, comes from its closed form in `singlet_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import ContractViolation, maximally_entangled


@dataclass(frozen=True, order=True)
class SpinLabel:
    """A half-integer spin s, stored exactly as the integer 2s."""

    twice_s: int

    def __post_init__(self):
        if not isinstance(self.twice_s, int) or isinstance(self.twice_s, bool):
            raise ContractViolation(f"twice_s must be an int, got {self.twice_s!r}")
        if self.twice_s < 0:
            raise ContractViolation(f"spin must be nonnegative, got 2s = {self.twice_s}")

    @property
    def s(self) -> float:
        return self.twice_s / 2.0

    @property
    def dimension(self) -> int:
        return self.twice_s + 1

    @classmethod
    def from_string(cls, text: str) -> "SpinLabel":
        """Parse '1/2', '1', '0.5', '3/2', ... into a label.

        Anything that is not an exact nonnegative half-integer is rejected.
        """
        try:
            value = Fraction(str(text).strip())
        except (ValueError, ZeroDivisionError):
            raise ContractViolation(f"cannot parse spin value {text!r}") from None
        return cls._from_ratio(value.numerator, value.denominator, text)

    @classmethod
    def coerce(cls, value) -> "SpinLabel":
        """Accept a SpinLabel, a string, or an exact half-integer number.

        Python and numpy integer and real scalars count as numbers; bools,
        NaN and infinities do not. A number is read exactly as the integer
        ratio numerator / denominator (`as_integer_ratio`, or value / 1 for
        an integer), and 2s is the quotient of 2 numerator by denominator,
        which must leave no remainder.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_string(value)
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return cls._from_ratio(int(value), 1, value)
        if isinstance(value, (float, np.floating)):
            try:
                numerator, denominator = value.as_integer_ratio()
            except (ValueError, OverflowError):
                raise ContractViolation(f"cannot interpret {value!r} as a spin") from None
            return cls._from_ratio(numerator, denominator, value)
        raise ContractViolation(f"cannot interpret {value!r} as a spin")

    @classmethod
    def _from_ratio(cls, numerator: int, denominator: int, original) -> "SpinLabel":
        """The label of numerator / denominator, denominator > 0, reported as `original`."""
        if numerator < 0:
            raise ContractViolation(f"spin must be nonnegative, got {original!r}")
        twice_s, rest = divmod(2 * numerator, denominator)
        if rest:
            raise ContractViolation(f"spin must be a half-integer, got {original!r}")
        return cls(twice_s)

    def __str__(self) -> str:
        if self.twice_s % 2 == 0:
            return str(self.twice_s // 2)
        return f"{self.twice_s}/2"


def _raising_elements(label: SpinLabel) -> np.ndarray:
    """The superdiagonal <m+1|S_+|m> = sqrt(s(s+1) - m(m+1)), m = s-1, ..., -s."""
    s = label.s
    m = s - np.arange(1, label.dimension)
    return np.sqrt(s * (s + 1) - m * (m + 1))


def spin_operators(spin):
    """Return the triple (S_1, S_2, S_3) for the given spin.

    S_3 is diagonal in the m-basis; S_1 and S_2 come from the raising and
    lowering operators, so [S_a, S_b] = i eps_abc S_c and
    sum_k S_k^2 = s(s+1) I hold to machine precision.
    """
    label = SpinLabel.coerce(spin)
    s3 = np.diag((label.s - np.arange(label.dimension)).astype(np.complex128))
    raising = np.diag(_raising_elements(label), 1).astype(np.complex128)
    lowering = raising.conj().T
    s1 = (raising + lowering) / 2.0
    s2 = (raising - lowering) / 2.0j
    return s1, s2, s3


def rotation_unitary(spin, axis, angle: float) -> np.ndarray:
    """exp(-i angle (axis . S)) for a unit 3-vector axis."""
    label = SpinLabel.coerce(spin)
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,):
        raise ContractViolation(f"rotation axis must be a 3-vector, got shape {n.shape}")
    norm, angle = float(np.linalg.norm(n)), float(angle)
    if not abs(norm - 1.0) <= 1e-10:  # a NaN norm fails too
        if not np.isfinite(n).all():
            raise ContractViolation("rotation axis is not finite")
        raise ContractViolation(f"rotation axis must be a unit vector, |axis| = {norm!r}")
    if not np.isfinite(angle):
        raise ContractViolation(f"rotation angle must be finite, got {angle!r}")
    s1, s2, s3 = spin_operators(label)
    generator = n[0] * s1 + n[1] * s2 + n[2] * s3
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * angle * w)) @ v.conj().T


def singlet_state(spin) -> np.ndarray:
    """The rotationally invariant two-spin state |0; 0>, from its closed form.

    In the m-basis |0; 0> = sum_i (-1)^i |i> x |d-1-i> / sqrt(d), with the
    Condon-Shortley phase: the coefficient of |s> x |-s> is positive. This is
    `linalg.maximally_entangled(d, d)`; no eigensolve and no J^2 is built.
    """
    d = SpinLabel.coerce(spin).dimension
    return maximally_entangled(d, d)
