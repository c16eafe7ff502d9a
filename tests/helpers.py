"""Shared constructors for the test suite."""

import math
from fractions import Fraction

import numpy as np

from spinchannels.channel import KrausChannel
from spinchannels.spin import total_spin_squared


def replacement_channel(dim, target=0):
    """Constant map onto a basis pure state: Kraus set {|target><i|}."""
    ops = np.zeros((dim, dim, dim), dtype=complex)
    for i in range(dim):
        ops[i, target, i] = 1.0
    return KrausChannel(ops)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_axis_angle(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis, float(rng.uniform(0.0, 2.0 * np.pi))


def dense_casimir_projectors(label):
    """Reference P_j, j = 0..2s, from one eigh of the full d^2 x d^2 J^2.

    Each eigenvalue is clustered to the nearest j(j+1) within 1e-6, and block
    j must hold 2j+1 eigenvectors. Independent of the package's sector route.
    """
    w, v = np.linalg.eigh(total_spin_squared(label))
    j = np.rint((np.sqrt(1.0 + 4.0 * np.clip(w, 0.0, None)) - 1.0) / 2.0).astype(int)
    assert np.abs(w - j * (j + 1)).max() < 1e-6
    projectors = []
    for block in range(label.twice_s + 1):
        basis = v[:, j == block]
        assert basis.shape[1] == 2 * block + 1
        projectors.append(basis @ basis.conj().T)
    return projectors


def exact_zero_m_states(label):
    """|j; 0> for j = 0..2s as rows of a (d, d^2) array, from the Racah formula.

    With n = 2s and a = s - m, <s m; s -m | j 0> is
    j!^2 a! (n-a)! sqrt((2j+1) (n-j)! / (n+j+1)!) times
    sum_k (-1)^k / (k! (n-j-k)! (a-k)!^2 (j-a+k)!^2). The sum runs in exact
    rationals, so no cancellation is lost, and the Condon-Shortley signs it
    gives make every |s> x |-s> coefficient positive. Independent of the
    package's eigensolves.
    """
    n, d = label.twice_s, label.dimension
    f = math.factorial
    states = np.zeros((d, d * d))
    for j in range(d):
        ratio = Fraction((2 * j + 1) * f(n - j), f(n + j + 1))
        for a in range(d):
            terms = range(max(0, a - j), min(n - j, a) + 1)
            total = sum(
                Fraction((-1) ** k, f(k) * f(n - j - k) * f(a - k) ** 2 * f(j - a + k) ** 2)
                for k in terms
            )
            c = f(j) ** 2 * f(a) * f(n - a) * total
            states[j, a * d + (n - a)] = math.copysign(math.sqrt(c * c * ratio), c)
    return states
