"""Shared constructors and reference routines for the test suite."""

import math
from fractions import Fraction

import numpy as np

from spinchannels.channel import KrausChannel
from spinchannels.linalg import (
    EIGENVALUE_ERROR,
    ContractViolation,
    _complex_from_json,
    as_complex_matrix,
    as_count,
    require_hermitian,
)
from spinchannels.spin import spin_operators

LN2, LN3 = math.log(2.0), math.log(3.0)

# Closed-form single-copy minimum output entropy, output entropy of the doubly
# decohered singlet and its excess over twice that minimum, in nats, keyed by 2s.
EXACT_SINGLE_MIN = {1: LN3 - 2.0 * LN2 / 3.0, 2: LN2}
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


def partial_trace(matrix, dims, keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    Parameters
    ----------
    matrix : array, shape (d_a * d_b, d_a * d_b)
    dims : pair (d_a, d_b)
    keep : "A" to return the d_a x d_a reduction, "B" for d_b x d_b
    """
    rho = as_complex_matrix(matrix)
    d_a, d_b = as_count(dims[0], "dims[0]"), as_count(dims[1], "dims[1]")
    if d_a < 1 or d_b < 1:
        raise ContractViolation(f"invalid factor dimensions {dims!r}")
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ContractViolation(
            f"operator shape {rho.shape} does not match factor dimensions ({d_a}, {d_b})"
        )
    blocks = rho.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abad->bd", blocks)
    raise ContractViolation(f"keep must be 'A' or 'B', got {keep!r}")


SUPPORT_THRESHOLD = 1e-10


def relative_entropy(rho, sigma) -> float:
    """Relative entropy S(rho | sigma) = tr(rho log rho) - tr(rho log sigma), in nats.

    Returns inf when rho places weight above SUPPORT_THRESHOLD outside the
    support of sigma. Eigenvalues of sigma below SUPPORT_THRESHOLD do not
    count as support.
    """
    r = require_hermitian(rho, name="rho")
    s = require_hermitian(sigma, name="sigma")
    if r.shape != s.shape:
        raise ContractViolation(f"dimension mismatch: rho {r.shape} vs sigma {s.shape}")
    lam, v_vecs = np.linalg.eigh(r)
    mu, w_vecs = np.linalg.eigh(s)
    if float(lam.min()) < -EIGENVALUE_ERROR or float(mu.min()) < -EIGENVALUE_ERROR:
        raise ContractViolation("relative entropy requires positive semidefinite arguments")
    lam = np.clip(lam, 0.0, None)
    mu = np.clip(mu, 0.0, None)

    outside = mu <= SUPPORT_THRESHOLD
    if bool(outside.any()):
        w_out = w_vecs[:, outside]
        weight = float(np.real(np.sum(w_out.conj() * (r @ w_out))))
        if weight > SUPPORT_THRESHOLD:
            return math.inf

    inside = ~outside
    # |<v_i|w_j>|^2 with rho-eigenvectors v_i, the columns paired with lam.
    overlaps = np.abs(v_vecs.conj().T @ w_vecs[:, inside]) ** 2
    pos = lam > 0.0
    first = float((lam[pos] * np.log(lam[pos])).sum())
    second = float((lam[:, None] * overlaps * np.log(mu[inside])[None, :]).sum())
    return first - second


def operator_norm(matrix) -> float:
    """Largest singular value."""
    m = as_complex_matrix(matrix)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def vector_from_json(entries) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ContractViolation("vector payload must be a nonempty list")
    parsed = [_complex_from_json(entry, "vector", k) for k, entry in enumerate(entries)]
    return np.asarray(parsed, dtype=np.complex128)


_FLIP = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128)


def time_reversal_apply(rho):
    """Spin-1/2 isotropic channel through its antiunitary normal form.

    Evaluates (tr rho) I/3 + T rho T^dagger / 3 where T conjugates in the
    m-basis and then applies the spin flip [[0, -1], [1, 0]]. Agrees with the
    three-Kraus form to machine precision; kept as an independent route.
    """
    m = as_complex_matrix(rho)
    if m.shape != (2, 2):
        raise ContractViolation(f"time reversal form is specific to dimension 2, got {m.shape}")
    flipped = _FLIP @ m.conj() @ _FLIP.conj().T
    return np.trace(m) * np.eye(2, dtype=np.complex128) / 3.0 + flipped / 3.0
