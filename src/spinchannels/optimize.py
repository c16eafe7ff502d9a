"""Searches for entropy minima of channels.

The pure-state searches start from a mix of deterministic and seeded random
points and keep the best local minimum found. The restarts advance together,
one row of an (R, n) array each: a Riemannian L-BFGS with an Armijo backtrack
on the unit sphere (Absil, Mahony and Sepulchre, Optimization Algorithms on
Matrix Manifolds, 2008) moves every row at once, with one stacked objective
call, and so one stacked eigh per trial step. A pure-state search is a
heuristic upper bound unless its caller passes a certified lower bound on
the minimum: `min_output_entropy` and each search of `additivity_probe`
then stop after restart 0 when that bound closes the bracket (for the
isotropic channel the CLI passes `invariant.single_min_bound` at every spin,
and `invariant.joint_min_bound` for two copies at spins 1/2 and 1). The
entropy gain is convex in the input state, so a first-order bound at one
full-rank point is a certified lower bound on its minimum
(`gain_convexity_bound`), and the gain search is one descent, resumed until
the range bound `gain_lower_bound`, checked first, or that bound closes the
bracket. Every report says which case it is in. The searches read only
Kraus stacks, so nothing here depends on spins.

Parametrizations
----------------
A search point is a complex vector read as reals: a row of an (R, n) float
array is the memory of n / 2 complex entries, re and im interleaved, so
x.view(np.complex128) is the point and g.view(float) its gradient. Pure
states are the d complex amplitudes; input states for the entropy gain are
a full complex d x d matrix A, with rho = A A^dagger / tr(A A^dagger), which
covers every density matrix including rank-deficient ones. Both objectives
take a stack of points (R, n), one per row, and return R values and an
(R, n) gradient array. They normalize internally, so their gradients vanish
along the scale direction; the search keeps every row on |x| = 1
(|A|_F = 1 for the gain), where the gradient is the Riemannian one.

Every value, searched and reported, is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import KrausChannel, _apply_stack, _product_columns
from .linalg import (
    ConsistencyError,
    ContractViolation,
    as_count,
    maximally_entangled,
    require_hermitian,
    size_text,
    spectrum_entropy,
)

# L-BFGS pairs kept per restart, the Armijo sufficient-decrease constant, the
# trial steps one line search makes before its restart stops unconverged, the
# rise in value, relative to max(|f|, 1), that still counts as rounding, the
# iterations a restart may take, and the two stops at which it has converged:
# its largest gradient component, and the relative reduction of one step.
_MEMORY = 10
_ARMIJO = 1e-4
_MAX_TRIALS = 20
_ROUNDING = 16 * np.finfo(float).eps
_MAX_ITERATIONS = 2000
_GRADIENT_TOL = 1e-9
_REDUCTION_TOL = 1e-12

# Slack of the gain range check [-ln||Lambda(I)||, 0] and of `bracket`: 5e-9 nats, under 1e-8 bits.
_GAIN_SLACK = 5e-9

# Widest bracket [lower_bound, value], in nats, that a report labels "certified".
CERTIFIED_WIDTH = 1e-6

# Largest array a search may build, in bytes: the 1 GiB of the singlet cap.
SEARCH_BYTE_CAP = 2**30

# Largest input dimension each command searches (for "probe", the product of
# the factors'), a time guard: at each cap 64 restarts take at most about 25 s
# on one core (gain; min-output and probe under 10 s), and the time grows faster
# than the dimension (tables in CHANGES.md).
SEARCH_DIMENSION_CAP = {"min-output": 400, "probe": 1024, "gain": 64}

# Restart budget, the time guard on the restart count: a search of a d-dimensional
# input may run min(MAX_RESTARTS, RESTARTS_AT_CAP * cap // d) restarts, that is
# restarts * max(d, cap / 64) <= 64 * cap. A restart's time grows at least about
# linearly in d (table in CHANGES.md), so no accepted search takes much longer
# than 64 restarts at the cap; the floor cap / 64 bounds small-d searches too.
RESTARTS_AT_CAP = 64
MAX_RESTARTS = 4096


@dataclass(frozen=True)
class SearchConfig:
    """What a caller sets of a search: how many restarts, and their seed.

    restarts and seed are Python or numpy integers, stored as int. Restart
    seeds derive from (seed, restart_index), so reports are reproducible bit
    for bit at fixed config and identical across channels given on
    different occasions. The gain draws no random state: restarts caps the
    legs of its one descent. The stop rule is fixed: see `_sphere_lbfgs`.
    """

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "seed"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.restarts < 1:
            raise ContractViolation(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search, values in nats.

    argmin is the best restart's end point as a unit complex vector (the
    gain's is the density matrix it encodes). restart_values holds the local
    minimum of every restart that ran (the gain's: every leg's end), sorted
    ascending; value equals its first entry. converged_fraction is the share
    of those restarts that stopped on one of the two tolerance stops
    (_GRADIENT_TOL on the gradient, _REDUCTION_TOL on the relative reduction)
    rather than the iteration limit or a line search that found no decrease.
    lower_bound and certificate are set by `bracket`: a certified bound
    passed to min-output or the probe, or the gain's convexity bound, and
    "certified" where the bracket closes; otherwise None and "heuristic".
    """

    value: float
    argmin: np.ndarray
    restart_values: list[float]
    converged_fraction: float
    evaluations: int
    lower_bound: float | None = None
    certificate: str = "heuristic"


def _closes(value: float, lower_bound: float) -> bool:
    """Whether [lower_bound, value] is at most CERTIFIED_WIDTH wide: the one closing rule."""
    return value - lower_bound <= CERTIFIED_WIDTH


def bracket(report: SearchReport, lower_bound: float) -> SearchReport:
    """report with lower_bound set, "certified" if `_closes` holds for its value and
    "heuristic" otherwise; a value more than _GAIN_SLACK below the bound is a
    ConsistencyError, since no correct bound allows it."""
    if report.value < lower_bound - _GAIN_SLACK:
        raise ConsistencyError(f"value {report.value!r} is below its lower bound {lower_bound!r}")
    label = "certified" if _closes(report.value, lower_bound) else "heuristic"
    return replace(report, lower_bound=lower_bound, certificate=label)


@dataclass(frozen=True)
class ProbeReport:
    """Additivity probe outcome for a product channel: its three searches.

    joint searches the product channel, single_a and single_b its factors. The
    gap joint.value - single_a.value - single_b.value is left to the printer.
    Subadditivity keeps it at or below zero up to search noise; a gap well
    below -1e-8 would mean the joint search found a genuinely better entangled
    input, worth reporting loudly rather than erroring. schmidt_coefficients
    describe joint.argmin (descending); a vanishing second one means a product
    state achieved the joint minimum.
    """

    joint: SearchReport
    single_a: SearchReport
    single_b: SearchReport
    schmidt_coefficients: np.ndarray


def _search_bytes(command: str, restarts: int, shape, other=None) -> int:
    """Bytes of the largest array a search builds, in integer arithmetic.

    shape is (n_kraus, dim_out, dim_in) of the searched channel; for "probe",
    of the first factor, and other of the second (by default the same). The
    largest array is a factor's Kraus stack (no product stack is built) or,
    once per row, the history (s, y, rho s, rho y) of _MEMORY steps in real
    parameters, or the stacked columns (X_k tensor Y_l) phi (pure inputs) or
    X_k rho (the "gain" command), at 16 bytes per complex entry. A pure
    search runs R rows, one per restart; the gain runs one row per leg. Python
    ints do not overflow, so the estimate holds for any spin.
    """
    factors = [shape, other or shape] if command == "probe" else [shape]
    n_kraus, dim_out, dim_in = (math.prod(sizes) for sizes in zip(*factors))
    if command == "gain":
        rows, per_row = 1, max(4 * _MEMORY * dim_in * dim_in, n_kraus * dim_out * dim_in)
    else:
        rows = restarts
        per_row = max(4 * _MEMORY * dim_in, n_kraus * dim_out)
    return 16 * max(*(math.prod(factor) for factor in factors), rows * per_row)


def check_search_size(command: str, restarts: int, shape, other=None) -> None:
    """Raise ContractViolation past SEARCH_BYTE_CAP, naming the size in GiB,
    past the command's SEARCH_DIMENSION_CAP, naming the cap, or past its
    restart budget, naming the budget."""
    needed = _search_bytes(command, restarts, shape, other)
    dim_in = shape[2] * (other or shape)[2] if command == "probe" else shape[2]
    if needed > SEARCH_BYTE_CAP:
        of = f"with {restarts} restarts"
        if command == "gain":  # the gain budgets one row, whatever the restarts
            shown = dim_in if dim_in.bit_length() <= 1000 else f"~{size_text(dim_in)}"
            of = f"of a {shown}-dimensional input"
        raise ContractViolation(
            f"{command} {of} needs about {size_text(needed, 30)} GiB"
            f" for its largest array, more than the {size_text(SEARCH_BYTE_CAP, 30)} GiB cap"
        )
    cap = SEARCH_DIMENSION_CAP[command]
    if dim_in > cap:
        raise ContractViolation(
            f"{command} searches a {dim_in}-dimensional input, more than the"
            f" {cap}-dimension cap of {command}"
        )
    allowed = min(MAX_RESTARTS, RESTARTS_AT_CAP * cap // dim_in)
    if restarts > allowed:
        raise ContractViolation(
            f"{command} with {restarts} restarts is past the restart budget of {command}:"
            f" at most {allowed} restarts of a {dim_in}-dimensional input"
        )


def haar_pure(dim: int, seed) -> np.ndarray:
    """Haar-distributed pure state, deterministic in the seed.

    A normalized vector of iid standard complex Gaussians is uniform on the
    sphere. dim = 1 returns the lone basis vector with phase fixed to 1.
    """
    dim = as_count(dim, "dim")
    if dim < 1:
        raise ContractViolation(f"dimension must be >= 1, got {dim}")
    if dim == 1:
        return np.ones(1, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def schmidt_coefficients(phi, dims) -> np.ndarray:
    """Descending Schmidt coefficients of a bipartite pure state."""
    d_a, d_b = as_count(dims[0], "dims[0]"), as_count(dims[1], "dims[1]")
    v = np.asarray(phi, dtype=np.complex128)
    if v.shape != (d_a * d_b,):
        raise ContractViolation(
            f"state shape {v.shape} does not match factor dimensions ({d_a}, {d_b})"
        )
    if not np.isfinite(v).all():
        raise ContractViolation("state vector is not finite")
    return np.linalg.svd(v.reshape(d_a, d_b), compute_uv=False)


def _entropy_and_log_term(m: np.ndarray):
    """Entropies of a stack of positive matrices m and f(m), from one stacked eigh.

    f(w) = log w + 1 on the support and 0 off it: dS = -tr(f(m) dm).
    """
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError:  # LAPACK fails on NaN and infinite entries
        raise ContractViolation("spectrum is not finite: eigh did not converge") from None
    f = np.log(w, out=np.full_like(w, -1.0), where=w > 0.0) + 1.0  # exactly 0 off the support
    return spectrum_entropy(w), (u * f[:, np.newaxis, :]) @ u.conj().transpose(0, 2, 1)


def _pure_entropy_and_gradient(channel_a: KrausChannel, channel_b: KrausChannel | None = None):
    """Output entropy (nats) and its gradient in the 2*dim_in real parameters.

    Takes one channel or two factors, dim_in = in_a * in_b; one channel is
    the product with the 1 x 1 identity. One eigh of whichever of M^dagger M
    or the output state M M^dagger is smaller, for the columns M of
    `channel._product_columns`, gives the value and the vector
    B phi = sum_kl X_k^dagger F_kl conj(Y_l), contracted one factor at a
    time, where F_kl is column (k, l) of f(rho) M = M f(M^dagger M) as an
    out_a x out_b matrix. The gradient of S(v / |v|) is
    -(2 / |v|) (B phi - <phi, B phi> phi): the entropy's derivative projected
    onto the sphere's tangent space. Takes a stack of points (R, 2*dim_in),
    one per row, with one stacked eigh for the stack.
    """
    ops_a = channel_a.kraus
    ops_b = np.ones((1, 1, 1)) if channel_b is None else channel_b.kraus  # 1 x 1 identity
    n_a, out_a, in_a = ops_a.shape
    n_b, out_b, in_b = ops_b.shape
    adjoint_a = ops_a.conj().transpose(2, 1, 0).reshape(in_a, out_a * n_a)  # [i, (a, k)]
    conj_b = ops_b.conj().transpose(1, 0, 2).reshape(out_b * n_b, in_b)
    dim_in = in_a * in_b
    use_gram = n_a * n_b <= out_a * out_b

    def objective(x):
        norm = np.sqrt(np.vecdot(x, x, keepdims=True))
        phi = x.view(np.complex128) / norm
        m = _product_columns(ops_a, ops_b, phi.reshape(-1, in_a, in_b))
        m_dagger = m.conj().transpose(0, 2, 1)
        values, f_of = _entropy_and_log_term(m_dagger @ m if use_gram else m @ m_dagger)
        fm = (m @ f_of if use_gram else f_of @ m).reshape(-1, out_a, out_b, n_a, n_b)
        fm = fm.transpose(0, 1, 3, 2, 4).reshape(-1, out_b * n_b)
        right = np.dot(fm, conj_b).reshape(-1, out_a * n_a, in_b)  # sum_l F_kl conj(Y_l)
        b_phi = (adjoint_a @ right).reshape(-1, dim_in)
        overlap = np.vecdot(phi, b_phi, keepdims=True).real
        g = (-2.0 / norm) * (b_phi - overlap * phi)
        return values, g.view(float)

    return objective


def _gain_terms(ops: np.ndarray, adjoint_ops: np.ndarray, rho: np.ndarray):
    """Gains S(Lambda rho) - S(rho) in nats of a stack of states rho, and
    B = Lambda^dagger(f(Lambda rho)) - f(rho) for each, from one stacked eigh for
    both sides; adjoint_ops holds the adjoints of the Kraus operators ops."""
    values, f_of = _entropy_and_log_term(np.concatenate([rho, _apply_stack(ops, rho)]))
    s_in, s_out = values.reshape(2, -1)
    f_in, f_out = f_of.reshape(2, *rho.shape)
    return s_out - s_in, _apply_stack(adjoint_ops, f_out) - f_in


def _gain_objective(channel: KrausChannel):
    """Entropy gain (nats) and its gradient over rho = A A^dagger / t, t = |A|_F^2.

    With the gain and B from `_gain_terms`, the gain changes by -tr(B d rho), so its
    gradient in A is -(2 / t) (B A - tr(B rho) A), read as reals like A. It stays bounded
    where rho is rank-deficient: an eigenvalue w of rho enters as w^(1/2) log w.
    """
    ops = channel.kraus
    adjoint_ops = ops.conj().transpose(0, 2, 1)
    dim = channel.dim_in

    def objective(x):
        a = x.view(np.complex128).reshape(-1, dim, dim)
        total = np.vecdot(x, x)[:, np.newaxis, np.newaxis]
        rho = (a @ a.conj().transpose(0, 2, 1)) / total
        gain, b = _gain_terms(ops, adjoint_ops, rho)
        # tr(B rho) = sum_ij conj(rho_ij) B_ij, since rho is Hermitian
        trace = np.vecdot(rho.reshape(len(x), -1), b.reshape(len(x), -1)).real
        g = (-2.0 / total) * (b @ a - trace[:, np.newaxis, np.newaxis] * a)
        return gain, g.view(float).reshape(len(x), -1)

    return objective


def _sphere_lbfgs(objective, x0: np.ndarray):
    """Minimize objective from every row of x0 at once, on the unit sphere.

    Each row is one restart with its own L-BFGS history (the last _MEMORY
    pairs) and its own Armijo backtracking step; every trial step is one
    stacked objective call over the rows still searching, and each trial
    point is renormalised onto |x| = 1. The first trial along a direction p
    is t = min(1, 1 / |p|), a turn of at most one radian: from a longer
    step, every backtrack would renormalise to near p / |p|. Where a row's
    value is flat to rounding, a trial that halves its largest gradient
    component also counts as a decrease. A row converges when its largest
    gradient component is at most _GRADIENT_TOL, or when a step lowers
    its value by at most _REDUCTION_TOL relative to max(|f_k|, |f_k+1|, 1):
    the two stops L-BFGS-B reports as convergence. Each line search gives
    each row one next point: its first accepted trial, or else, when
    _MAX_TRIALS trial steps find no decrease, its start, where the row stops
    unconverged, as it does after _MAX_ITERATIONS.
    Stopped rows leave the arrays, so they cost nothing afterwards, and no
    row's arithmetic depends on another's.

    Returns the final values, points, evaluation counts and converged flags,
    one entry per row of x0.
    """
    x = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    f, g = objective(x)
    rows, size = x.shape
    final_f = np.empty(rows)
    final_x = np.empty_like(x)
    evaluations = np.ones(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    index = np.arange(rows)  # the restart each remaining row belongs to
    # slot j of every row's history holds the pair (s, y) of the same iteration, and
    # each scaled by rho = 1 / s.y; per-row scalars are columns that broadcast over x
    history = np.zeros((4, _MEMORY, rows, size))
    scale = np.ones((rows, 1))  # the initial inverse Hessian is scale * I
    largest = np.abs(g).max(axis=1)
    ok = done = largest <= _GRADIENT_TOL
    for iteration in range(_MAX_ITERATIONS + 1):
        if iteration == _MAX_ITERATIONS:
            done = np.ones_like(done)
        if done.any():
            stopped = index[done]
            final_f[stopped], final_x[stopped], converged[stopped] = f[done], x[done], ok[done]
            keep = ~done
            x, f, g, largest, scale, index = (a[keep] for a in (x, f, g, largest, scale, index))
            history = history[:, :, keep]
        if not index.size:
            break
        if iteration == 0:
            scale = 1.0 / np.sqrt(np.vecdot(g, g, keepdims=True))  # a first step of unit length

        # two-loop recursion over the stored pairs, newest first
        s_hist, y_hist, rho_s, rho_y = history
        slots = [(iteration - 1 - j) % _MEMORY for j in range(min(iteration, _MEMORY))]
        q = g.copy()
        alphas = []
        for j in slots:
            alphas.append(np.vecdot(rho_s[j], q, keepdims=True))
            q -= alphas[-1] * y_hist[j]
        q *= scale
        for j, alpha in zip(reversed(slots), reversed(alphas)):
            q += (alpha - np.vecdot(rho_y[j], q, keepdims=True)) * s_hist[j]
        # the descent direction, projected onto the tangent space at x
        p = np.vecdot(q, x, keepdims=True) * x - q
        # descent, since every stored pair has s.y > 0 and g is tangent at x
        slope = np.vecdot(g, p)

        # every row tries t = min(1, 1 / |p|); the rows that backtrack keep their start,
        # direction, value, slope and flatness bounds in `line`, which drops each row that passes
        f_scale = np.maximum(np.abs(f), 1.0)
        line = [x, p, f, slope, _ROUNDING * f_scale, 0.5 * largest]
        pending, t = np.arange(len(f)), 1.0 / np.maximum(np.sqrt(np.vecdot(p, p)), 1.0)
        new_x, new_f, new_g, accepted = x.copy(), f.copy(), g.copy(), np.zeros(len(f), bool)
        for _ in range(_MAX_TRIALS):
            start, direction, start_f, start_slope, rounding, half_largest = line
            trial = start + t[:, np.newaxis] * direction
            trial /= np.sqrt(np.vecdot(trial, trial, keepdims=True))
            trial_f, trial_g = objective(trial)
            evaluations[index[pending]] += 1
            rise = trial_f - start_f
            flat = (rise <= rounding) & (np.abs(trial_g).max(axis=1) <= half_largest)
            good = (rise <= _ARMIJO * t * start_slope) | flat
            took = pending[good]
            new_x[took], new_f[took], new_g[took] = trial[good], trial_f[good], trial_g[good]
            accepted[took] = True
            if good.all():
                break
            back = ~good
            pending, t, rise, start_slope = pending[back], t[back], rise[back], start_slope[back]
            line = [a[back] for a in line]
            # minimizer of the parabola through f, slope and the trial value, within [t/10, t/2]
            parabola = -start_slope * t * t / (2.0 * (rise - t * start_slope))
            t = np.clip(parabola, 0.1 * t, 0.5 * t)

        slot = iteration % _MEMORY
        s = np.subtract(new_x, x, out=s_hist[slot])
        y = np.subtract(new_g, g, out=y_hist[slot])
        sy, yy = np.vecdot(s, y, keepdims=True), np.vecdot(y, y, keepdims=True)
        curved = sy > np.finfo(float).eps * yy
        rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=curved)
        np.multiply(rho, s, out=rho_s[slot])
        np.multiply(rho, y, out=rho_y[slot])
        scale = np.divide(sy, yy, out=scale, where=curved)
        reduction = (f - new_f) / np.maximum(f_scale, np.abs(new_f))
        x, f, g = new_x, new_f, new_g
        largest = np.abs(g).max(axis=1)
        ok = accepted & ((reduction <= _REDUCTION_TOL) | (largest <= _GRADIENT_TOL))
        done = ok | ~accepted  # a row whose line search failed stops where it was
    return final_f, final_x, evaluations, converged


def _report(values, points, evaluations, converged) -> SearchReport:
    """The report of the rows `_sphere_lbfgs` ran, best point as a unit complex vector."""
    best = int(np.argmin(values))  # the first row reaching the lowest value
    return SearchReport(
        value=float(values[best]),
        argmin=points[best].view(np.complex128) / np.linalg.norm(points[best]),
        restart_values=[float(v) for v in np.sort(values)],
        converged_fraction=int(converged.sum()) / len(values),
        evaluations=int(evaluations.sum()),
    )


def _multistart(
    objective, config: SearchConfig, leading_states, dim: int, lower_bound: float | None = None
) -> SearchReport:
    """Engine of the pure-state searches: run the restarts together, report the best.

    Restart i starts from the complex vector leading_states[i], or past their
    end from the Haar state haar_pure(dim, [seed, i]), read as reals;
    objective maps a stack of points to (values, gradients) and _sphere_lbfgs,
    which reads no config, advances them all at once. A one-point space
    (dim = 1) runs one restart, since every start is the same point there.

    lower_bound, when given, is a certified lower bound on the objective's
    minimum. Restart 0 then runs alone, and if its value closes the bracket
    (`_closes`), the report holds that one restart. Otherwise restarts 1 to
    R - 1 run and follow it; no row's arithmetic depends on another's, so that
    report equals the one without the bound, apart from the bound. So
    config.restarts is the most restarts a search runs, and converged_fraction
    is taken over the restarts that ran.
    """
    restarts = 1 if dim == 1 else config.restarts

    def starts(first: int, stop: int) -> np.ndarray:
        states = [
            leading_states[i] if i < len(leading_states) else haar_pure(dim, [config.seed, i])
            for i in range(first, stop)
        ]
        return np.stack(states, dtype=np.complex128).view(float)

    if lower_bound is None:
        return _report(*_sphere_lbfgs(objective, starts(0, restarts)))
    rows = _sphere_lbfgs(objective, starts(0, 1))
    if not _closes(rows[0][0], lower_bound) and restarts > 1:
        rows = map(np.concatenate, zip(rows, _sphere_lbfgs(objective, starts(1, restarts))))
    return bracket(_report(*rows), lower_bound)


def min_output_entropy(
    channel: KrausChannel, config: SearchConfig | None = None, lower_bound: float | None = None
) -> SearchReport:
    """Search for the minimum output entropy over pure inputs.

    Restart 0 starts from the first basis vector; the rest start from Haar
    states seeded by (config.seed, restart_index). The returned value is the
    best local minimum seen, an upper bound on the true minimum.

    lower_bound, when given, must be a certified lower bound on that minimum
    in nats, such as `invariant.single_min_bound` for the isotropic channel,
    whose restart 0 is |m = s>. When restart 0 ends within CERTIFIED_WIDTH of
    it the search stops there, "certified"; otherwise it runs every restart,
    exactly as a search without the bound, and reports "heuristic" unless a
    later restart closes the bracket.
    """
    cfg = config if config is not None else SearchConfig()
    check_search_size("min-output", cfg.restarts, channel.kraus.shape)
    dim = channel.dim_in
    objective = _pure_entropy_and_gradient(channel)
    return _multistart(objective, cfg, [np.eye(1, dim)[0]], dim, lower_bound)


def gain_lower_bound(channel: KrausChannel) -> float:
    """Certified lower bound -ln||Lambda(I)|| on the entropy gain, in nats.

    Monotonicity of relative entropy under the channel, applied to D(rho||I)
    and D(Lambda(rho)||Lambda(I)), gives S(Lambda(rho)) - S(rho) >= -ln of
    the largest eigenvalue of Lambda(I). That eigenvalue is at most
    tr Lambda(I) = d, so -ln of it is never below -ln d, and it is 0 for
    unital channels. The bound subtracts a rounding margin of 16 d eps, since
    the eigenvalue is found to about d eps relative to its size.
    """
    dim = channel.dim_in
    image = _apply_stack(channel.kraus, np.eye(dim, dtype=np.complex128)[np.newaxis])[0]
    return float(-math.log(np.linalg.eigvalsh(image)[-1]) - _ROUNDING * dim)


def gain_convexity_bound(channel: KrausChannel, rho) -> float:
    """Certified lower bound on the minimum entropy gain from one state, in nats.

    The gain is convex in the input: through a Stinespring dilation it is
    -H(E|B), and conditional entropy is concave by strong subadditivity. At
    a positive definite rho its derivative is -tr(B d rho), the gain and B from
    `_gain_terms`, the kernel `_gain_objective` descends on, so every state sigma
    has gain(sigma) >= gain(rho) + tr(B rho) - tr(B sigma) >=
    gain(rho) + tr(B rho) - lambda_max(B). The bound is that minus a rounding
    margin of 16 d eps (max|eig B| + 1 / w_min): an eigenvalue w of rho or of its
    image, off by about d eps, moves log w by d eps / w, and lambda_max(B) by at
    most d eps / w_min, w_min the smallest eigenvalue of rho. rho is a Hermitian
    d x d matrix, scaled to unit trace here; where it is not positive definite
    the gain has no derivative and the bound is -inf.
    """
    m = require_hermitian(rho, name="state")
    dim = channel.dim_in
    if channel.dim_out != dim or m.shape != (dim, dim):
        raise ContractViolation(
            f"state shape {m.shape} does not fit a channel from {dim} to {channel.dim_out} dims"
        )
    w = np.linalg.eigvalsh(m)
    if not w[0] > 0.0:
        return -math.inf
    total = w.sum()
    w, m = w / total, m / total
    gain, b = _gain_terms(channel.kraus, channel.kraus.conj().transpose(0, 2, 1), m[np.newaxis])
    spectrum = np.linalg.eigvalsh(b[0])
    margin = _ROUNDING * dim * (np.abs(spectrum).max() + 1.0 / w[0])
    # tr(B rho) = sum_ij conj(rho_ij) B_ij, since rho is Hermitian
    return float(gain[0] + np.vdot(m, b[0]).real - spectrum[-1] - margin)


def min_entropy_gain(channel: KrausChannel, config: SearchConfig | None = None) -> SearchReport:
    """Search for the minimum entropy gain over all input states, by one descent.

    The gain is convex, so one full-rank start reaches the minimum. The
    descent starts from A = I, the maximally mixed state (gain <= 0 there for
    bistochastic channels); a rank-deficient start would never leave its
    rank, since the gradient B A - tr(B rho) A vanishes on every zero column
    of A. The report's argmin is the density matrix A A^dagger of the best A.

    The descent runs in legs of `_sphere_lbfgs`. After each leg the search
    stops, "certified", once the best value closes the bracket (`_closes`):
    first with `gain_lower_bound`, as every unital channel does at its
    start, and else with the largest of it and `gain_convexity_bound` at
    the legs' end points, computed only where the first leaves it open.
    Otherwise the next leg resumes from the last end point with a fresh
    L-BFGS history, up to config.restarts legs; restart_values and
    converged_fraction count legs. No random state is drawn, so config.seed
    is not read.
    """
    cfg = config if config is not None else SearchConfig()
    if channel.dim_in != channel.dim_out:
        raise ContractViolation("entropy gain search requires matching input and output dims")
    check_search_size("gain", cfg.restarts, channel.kraus.shape)
    dim = channel.dim_in
    objective, lower = _gain_objective(channel), gain_lower_bound(channel)
    x, bound, legs = np.eye(dim, dtype=np.complex128).view(float).reshape(1, -1), lower, []
    for _ in range(cfg.restarts):
        legs.append(_sphere_lbfgs(objective, x))
        x, best = legs[-1][1], min(leg[0][0] for leg in legs)
        if _closes(best, lower):  # every unital channel, at its start I/d
            break
        a = x.view(np.complex128).reshape(dim, dim)
        bound = max(bound, gain_convexity_bound(channel, a @ a.conj().T))
        if _closes(best, bound):
            break
    report = _report(*map(np.concatenate, zip(*legs)))
    a = report.argmin.reshape(dim, dim)
    report = replace(report, argmin=a @ a.conj().T)
    if report.value < lower - _GAIN_SLACK or report.value > _GAIN_SLACK:
        raise ConsistencyError(
            f"entropy gain minimum {report.value!r} escaped the certified range [{lower!r}, 0]"
        )
    return bracket(report, bound)


def additivity_probe(
    channel_a: KrausChannel,
    channel_b: KrausChannel,
    config: SearchConfig | None = None,
    single_bound: float | None = None,
    joint_bound: float | None = None,
) -> ProbeReport:
    """Search a product channel and its two factors, for the additivity gap.

    Runs the single-channel searches first, one if channel_b is channel_a,
    then searches the product channel starting from (in order) the product of
    the single argmins, `linalg.maximally_entangled`, the first basis vector,
    and seeded Haar states. The report holds the three searches; the gap is
    formed from their values. The product start guarantees gap <= 0 up to
    search noise; the entangled start gives entanglement a genuine chance to
    win. single_bound and joint_bound, when given, are certified lower bounds
    in nats on each factor's minimum and on the product's, used as
    `min_output_entropy` uses its bound. Where the joint bracket closes, a
    zero gap shows additivity to CERTIFIED_WIDTH; otherwise the probe is
    heuristic evidence only, and a zero gap is not a proof of additivity.
    """
    cfg = config if config is not None else SearchConfig()
    check_search_size("probe", cfg.restarts, channel_a.kraus.shape, channel_b.kraus.shape)
    report_a = min_output_entropy(channel_a, cfg, single_bound)
    report_b = report_a
    if channel_b is not channel_a:
        report_b = min_output_entropy(channel_b, cfg, single_bound)
    d_a, d_b = channel_a.dim_in, channel_b.dim_in
    product, dim = np.kron(report_a.argmin, report_b.argmin), d_a * d_b
    starts = [product, maximally_entangled(d_a, d_b), np.eye(1, dim)[0]]
    objective = _pure_entropy_and_gradient(channel_a, channel_b)
    joint = _multistart(objective, cfg, starts, dim, joint_bound)
    return ProbeReport(joint, report_a, report_b, schmidt_coefficients(joint.argmin, (d_a, d_b)))
