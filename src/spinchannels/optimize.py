"""Multi-start searches for entropy minima of channels.

Both searches start from a mix of deterministic and seeded random points and
keep the best local minimum found. Every restart runs L-BFGS-B with the exact
gradient of its objective. The results are heuristic upper bounds: nothing
here certifies global optimality, and the reports say so through their
restart statistics rather than pretending to a proof.

Parametrizations
----------------
Pure states use 2d real parameters (re, im interleaved blockwise); the
objective normalizes internally, so the search space is effectively the unit
sphere with a redundant scale direction, along which the gradient vanishes.
Input states for the entropy gain use a full complex d x d matrix A with
rho = A A^dagger / tr(A A^dagger), which covers every density matrix
including rank-deficient ones.

All objective evaluation happens in nats; the requested logarithm base only
rescales the final report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channel import KrausChannel, _apply_stack, tensor
from .linalg import ConsistencyError, ContractViolation, log_divisor, spectrum_entropy
from .spin import SpinLabel, singlet_state

# Returned, with a zero gradient, when the parameter vector collapses below
# numerical rank; large enough to repel either search from the origin without
# overflowing anything.
_COLLAPSE_PENALTY = 1e3
_COLLAPSE_NORM = 1e-8

# Largest accepted simplex_tolerance. Parameters live on the unit sphere, so
# a gradient tolerance near 1 stops every pure-input restart at its start.
MAX_SIMPLEX_TOLERANCE = 1e-3


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the multi-start searches.

    simplex_tolerance is the gradient tolerance of each restart (L-BFGS-B
    gtol); it must lie in (0, MAX_SIMPLEX_TOLERANCE]. objective_tolerance is
    the relative stop on objective changes (ftol), and
    max_iterations_per_restart caps the iterations of each restart.
    Restart seeds derive from (seed, restart_index), so reports are
    reproducible bit for bit at fixed config and identical across channels
    given on different occasions.
    """

    restarts: int = 64
    seed: int = 0
    max_iterations_per_restart: int = 2000
    simplex_tolerance: float = 1e-9
    objective_tolerance: float = 1e-12
    log_base: float | None = None

    def __post_init__(self):
        counts = (self.restarts, self.seed, self.max_iterations_per_restart)
        if any(not isinstance(v, int) or isinstance(v, bool) for v in counts):
            raise ContractViolation(
                f"restarts, seed and max_iterations_per_restart must be integers, got {counts!r}"
            )
        if self.restarts < 1:
            raise ContractViolation(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be nonnegative, got {self.seed}")
        if self.max_iterations_per_restart < 1:
            raise ContractViolation("max_iterations_per_restart must be >= 1")
        for tol in (float(self.simplex_tolerance), float(self.objective_tolerance)):
            # written so that NaN fails too: every comparison with NaN is False
            if not (tol > 0 and math.isfinite(tol)):
                raise ContractViolation(f"tolerances must be positive and finite, got {tol!r}")
        if float(self.simplex_tolerance) > MAX_SIMPLEX_TOLERANCE:
            raise ContractViolation(
                f"simplex_tolerance must be at most {MAX_SIMPLEX_TOLERANCE:g},"
                f" got {self.simplex_tolerance!r}"
            )
        log_divisor(self.log_base)  # validates the base


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one multi-start search, values in the configured base.

    restart_values holds every restart's local minimum, sorted ascending;
    value equals its first entry. converged_fraction counts restarts that
    stopped on a tolerance target (scipy status 0) rather than an iteration
    limit or a failed line search.
    """

    value: float
    argmin: np.ndarray
    restart_values: list[float]
    converged_fraction: float
    evaluations: int


@dataclass(frozen=True)
class ProbeReport:
    """Additivity probe outcome for a product channel.

    gap = joint_min - sum_of_singles. Subadditivity keeps the gap at or below
    zero up to search noise; a gap well below -1e-8 would mean the joint
    search found a genuinely better entangled input, which is worth reporting
    loudly rather than erroring. schmidt_coefficients describe the joint
    argmin (descending); a vanishing second coefficient means a product state
    achieved the joint minimum.
    """

    joint_min: float
    sum_of_singles: float
    gap: float
    argmin: np.ndarray
    schmidt_coefficients: np.ndarray
    joint: SearchReport
    single_a: SearchReport
    single_b: SearchReport


def haar_pure(dim: int, seed) -> np.ndarray:
    """Haar-distributed pure state, deterministic in the seed.

    A normalized vector of iid standard complex Gaussians is uniform on the
    sphere. dim = 1 returns the lone basis vector with phase fixed to 1.
    """
    if int(dim) < 1:
        raise ContractViolation(f"dimension must be >= 1, got {dim}")
    if int(dim) == 1:
        return np.ones(1, dtype=np.complex128)
    return _haar_from_rng(np.random.default_rng(seed), int(dim))


def _haar_from_rng(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def schmidt_coefficients(phi, dims) -> np.ndarray:
    """Descending Schmidt coefficients of a bipartite pure state."""
    d_a, d_b = int(dims[0]), int(dims[1])
    v = np.asarray(phi, dtype=np.complex128)
    if v.shape != (d_a * d_b,):
        raise ContractViolation(
            f"state shape {v.shape} does not match factor dimensions ({d_a}, {d_b})"
        )
    return np.linalg.svd(v.reshape(d_a, d_b), compute_uv=False)


def _params_from_state(phi: np.ndarray) -> np.ndarray:
    return np.concatenate([phi.real, phi.imag])


def _state_from_params(x: np.ndarray, dim: int) -> np.ndarray:
    v = x[:dim] + 1j * x[dim:]
    return v / np.linalg.norm(v)


def _entropy_and_log_term(m: np.ndarray):
    """Entropy of a positive matrix m and f(m), from one eigh.

    f(w) = log w + 1 on the support and 0 off it: dS = -tr(f(m) dm).
    """
    w, u = np.linalg.eigh(m)
    positive = w > 0.0
    f = np.zeros_like(w)
    f[positive] = np.log(w[positive]) + 1.0
    return spectrum_entropy(w), (u * f) @ u.conj().T


def _pure_entropy_and_gradient(channel: KrausChannel):
    """Output entropy (nats) and its gradient in the 2*dim_in real parameters.

    One eigh of whichever of the Gram matrix <X_k phi, X_l phi> or the output
    state is smaller gives the value and the vector
    B phi = sum_k X_k^dagger f(rho) X_k phi. The Gram route uses
    f(M M^dagger) M = M f(M^dagger M) for the matrix M whose columns are
    X_k phi, so the output state is never formed. The gradient of
    S(v / |v|) is -(2 / |v|) (B phi - <phi, B phi> phi): the entropy's
    derivative projected onto the sphere's tangent space.
    """
    ops = channel.kraus
    conj_ops = ops.conj()
    n, dim_out, dim_in = ops.shape
    use_gram = n <= dim_out

    def objective(x):
        v = x[:dim_in] + 1j * x[dim_in:]
        norm = np.linalg.norm(v)
        if norm < _COLLAPSE_NORM:
            return _COLLAPSE_PENALTY, np.zeros(2 * dim_in)
        phi = v / norm
        m = (ops @ phi).T  # column k is X_k phi
        value, f_of = _entropy_and_log_term(m.conj().T @ m if use_gram else m @ m.conj().T)
        fm = m @ f_of if use_gram else f_of @ m
        b_phi = np.einsum("kij,ik->j", conj_ops, fm)
        g = (-2.0 / norm) * (b_phi - np.vdot(phi, b_phi).real * phi)
        return value, np.concatenate([g.real, g.imag])

    return objective


def _gain_objective(channel: KrausChannel):
    """Entropy gain (nats) and its gradient over rho = A A^dagger / t, t = |A|_F^2.

    With B = Lambda^dagger(f(Lambda rho)) - f(rho), the gain changes by
    -tr(B d rho), so its gradient in A is -(2 / t) (B A - tr(B rho) A),
    returned as [re, im] of the flattened matrix. It stays bounded where rho
    is rank-deficient: an eigenvalue w of rho enters as w^(1/2) log w.
    """
    ops = channel.kraus
    adjoint_ops = ops.conj().transpose(0, 2, 1)
    dim = channel.dim_in
    block = dim * dim

    def objective(x):
        a = (x[:block] + 1j * x[block:]).reshape(dim, dim)
        total = float(np.vdot(a, a).real)
        if total < _COLLAPSE_NORM**2:
            return _COLLAPSE_PENALTY, np.zeros(2 * block)
        rho = (a @ a.conj().T) / total
        s_in, f_in = _entropy_and_log_term(rho)
        s_out, f_out = _entropy_and_log_term(_apply_stack(ops, rho))
        b = _apply_stack(adjoint_ops, f_out) - f_in
        g = (-2.0 / total) * (b @ a - np.trace(b @ rho).real * a)
        return s_out - s_in, np.concatenate([g.real.ravel(), g.imag.ravel()])

    return objective


def _multistart(
    objective, config: SearchConfig, deterministic_inits, random_init, decode
) -> SearchReport:
    """Shared engine: run the restarts and report the best point found.

    objective returns (value, gradient); each restart is one L-BFGS-B run
    with the stops of SearchConfig. decode maps the best parameter vector to
    the report's argmin. Values are searched in nats and divided by the
    configured base's log only here.
    """
    options = {
        "maxiter": config.max_iterations_per_restart,
        "gtol": float(config.simplex_tolerance),
        "ftol": float(config.objective_tolerance),
    }
    best_value = math.inf
    best_x = None
    values = []
    evaluations = 0
    converged = 0
    for index in range(config.restarts):
        if index < len(deterministic_inits):
            x0 = np.asarray(deterministic_inits[index], dtype=float)
        else:
            x0 = random_init(np.random.default_rng([config.seed, index]))
        result = minimize(objective, x0, method="L-BFGS-B", jac=True, options=options)
        value = float(result.fun)
        values.append(value)
        evaluations += int(result.nfev)
        if result.status == 0:
            converged += 1
        if value < best_value:
            best_value = value
            best_x = np.asarray(result.x, dtype=float).copy()
    divisor = log_divisor(config.log_base)
    return SearchReport(
        value=best_value / divisor,
        argmin=decode(best_x),
        restart_values=[v / divisor for v in sorted(values)],
        converged_fraction=converged / config.restarts,
        evaluations=evaluations,
    )


def _pure_search(channel: KrausChannel, config: SearchConfig, leading_inits) -> SearchReport:
    """Pure-input search from the given starts, the first basis vector, then Haar states."""
    dim = channel.dim_in
    basis = np.zeros(dim, dtype=np.complex128)
    basis[0] = 1.0
    return _multistart(
        _pure_entropy_and_gradient(channel),
        config,
        [*leading_inits, _params_from_state(basis)],
        lambda rng: _params_from_state(_haar_from_rng(rng, dim)),
        lambda x: _state_from_params(x, dim),
    )


def min_output_entropy(channel: KrausChannel, config: SearchConfig | None = None) -> SearchReport:
    """Search for the minimum output entropy over pure inputs.

    Restart 0 starts from the first basis vector; the rest start from Haar
    states seeded by (config.seed, restart_index). The returned value is the
    best local minimum seen, an upper bound on the true minimum.
    """
    return _pure_search(channel, config if config is not None else SearchConfig(), [])


def gain_lower_bound(channel: KrausChannel) -> float:
    """Certified lower bound -ln||Lambda(I)|| on the entropy gain, in nats.

    Monotonicity of relative entropy under the channel, applied to D(rho||I)
    and D(Lambda(rho)||Lambda(I)), gives S(Lambda(rho)) - S(rho) >= -ln of
    the largest eigenvalue of Lambda(I). That eigenvalue is at most
    tr Lambda(I) = d, so the bound is never below -ln d, and it is 0 for
    unital channels.
    """
    image = _apply_stack(channel.kraus, np.eye(channel.dim_in, dtype=np.complex128))
    return -math.log(float(np.linalg.eigvalsh(image)[-1]))


def min_entropy_gain(channel: KrausChannel, config: SearchConfig | None = None) -> SearchReport:
    """Search for the minimum entropy gain over all input states.

    Restart 0 starts from the maximally mixed state (gain <= 0 there for
    bistochastic channels); the rest use complex Gaussian matrices seeded by
    (config.seed, restart_index). No start is rank-deficient: the gradient
    B A - tr(B rho) A vanishes on every zero column of A, so such a start
    would never leave its rank. The report's argmin is the best density
    matrix itself.
    """
    cfg = config if config is not None else SearchConfig()
    if channel.dim_in != channel.dim_out:
        raise ContractViolation("entropy gain search requires matching input and output dims")
    dim = channel.dim_in
    block = dim * dim

    def pack(a):
        flat = np.asarray(a, dtype=np.complex128).reshape(block)
        return np.concatenate([flat.real, flat.imag])

    def random_init(rng):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return pack(a)

    def decode(x):
        a = (x[:block] + 1j * x[block:]).reshape(dim, dim)
        return (a @ a.conj().T) / float(np.vdot(a, a).real)

    report = _multistart(_gain_objective(channel), cfg, [pack(np.eye(dim))], random_init, decode)
    lower = gain_lower_bound(channel) / log_divisor(cfg.log_base)
    if report.value < lower - 1e-8 or report.value > 1e-8:
        raise ConsistencyError(
            f"entropy gain minimum {report.value!r} escaped the certified range [{lower!r}, 0]"
        )
    return report


def _entangled_init(d_a: int, d_b: int) -> np.ndarray:
    """Alternating-sign maximally entangled start for the joint search.

    For equal factor dimensions this is the rotation singlet,
    `spin.singlet_state`; otherwise a plain maximally entangled state on the
    smaller dimension.
    """
    if d_a == d_b:
        return singlet_state(SpinLabel(d_a - 1))
    d = min(d_a, d_b)
    v = np.zeros(d_a * d_b, dtype=np.complex128)
    for i in range(d):
        v[i * d_b + i] = 1.0
    return v / np.linalg.norm(v)


def additivity_probe(
    channel_a: KrausChannel, channel_b: KrausChannel, config: SearchConfig | None = None
) -> ProbeReport:
    """Compare the joint minimum output entropy against the sum of singles.

    Runs the single-channel searches first, then searches the product channel
    starting from (in order) the product of the single argmins, an entangled
    state, the first basis vector, and seeded Haar states. The product start
    guarantees gap <= 0 up to search noise; the entangled start gives
    entanglement a genuine chance to win. Heuristic evidence only: a zero gap
    here is not a proof of additivity.
    """
    cfg = config if config is not None else SearchConfig()
    report_a = min_output_entropy(channel_a, cfg)
    report_b = min_output_entropy(channel_b, cfg)
    d_a = channel_a.dim_in
    d_b = channel_b.dim_in
    joint = _pure_search(
        tensor(channel_a, channel_b),
        cfg,
        [
            _params_from_state(np.kron(report_a.argmin, report_b.argmin)),
            _params_from_state(_entangled_init(d_a, d_b)),
        ],
    )
    total_singles = report_a.value + report_b.value
    return ProbeReport(
        joint_min=joint.value,
        sum_of_singles=total_singles,
        gap=joint.value - total_singles,
        argmin=joint.argmin,
        schmidt_coefficients=schmidt_coefficients(joint.argmin, (d_a, d_b)),
        joint=joint,
        single_a=report_a,
        single_b=report_b,
    )
