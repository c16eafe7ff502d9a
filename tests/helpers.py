"""Shared constructors for the test suite."""

import math
from fractions import Fraction

import numpy as np

from spinchannels.channel import KrausChannel
from spinchannels.spin import spin_operators

LN2, LN3 = math.log(2.0), math.log(3.0)

# Closed-form output entropy of the doubly decohered singlet and its excess
# over twice the single-copy minimum, in nats, keyed by 2s.
EXACT_PAIR_ENTROPY = {1: 5.0 * LN3 / 3.0 - 2.0 * LN2 / 3.0, 2: LN3 + 4.0 * LN2 / 3.0}
EXACT_EXCESS = {1: math.log(4.0 / 3.0) / 3.0, 2: LN3 - 2.0 * LN2 / 3.0}


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


def dense_total_spin_squared(label):
    """J^2 on the two-spin space, with J_k = S_k x I + I x S_k, as one d^2 x d^2 array.

    Formed as 2s(s+1) I + 2 sum_k S_k x S_k, which is the same matrix since
    sum_k S_k^2 = s(s+1) I.
    """
    out = 2.0 * label.s * (label.s + 1.0) * np.eye(label.dimension**2, dtype=complex)
    for s_k in spin_operators(label):
        out += 2.0 * np.kron(s_k, s_k)
    return out


def dense_casimir_projectors(label):
    """Reference P_j, j = 0..2s, from one eigh of the full d^2 x d^2 J^2.

    Each eigenvalue is clustered to the nearest j(j+1) within 1e-6, and block
    j must hold 2j+1 eigenvectors. Independent of the package's sector route.
    """
    w, v = np.linalg.eigh(dense_total_spin_squared(label))
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


def exact_moment_probabilities(label):
    """Block weights of the doubly decohered singlet from spin moments, as an array.

    p_j = (2j+1) / (s(s+1))^2 * sum_kl |<j;0| S_k x S_l |0;0>|^2, with
    S_k x S_l |0;0> = vec(S_k Psi S_l^T) for the d x d matrix Psi of |0;0>,
    on the exact |j;0> of `exact_zero_m_states`. Builds no output state.
    """
    d, s = label.dimension, label.s
    states = exact_zero_m_states(label)
    psi = states[0].reshape(d, d)
    ops = spin_operators(label)
    totals = sum(np.abs(states @ (a @ psi @ b.T).ravel()) ** 2 for a in ops for b in ops)
    return (2 * np.arange(d) + 1) * totals / (s * (s + 1.0)) ** 2
