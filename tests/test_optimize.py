import math
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import replacement_channel
from spinchannels import optimize
from spinchannels.channel import (
    KrausChannel,
    apply,
    entropy_gain,
    isotropic_channel,
    load_channel,
    random_channel,
    save_channel,
    tensor,
)
from spinchannels.invariant import joint_min_bound, single_min_bound
from spinchannels.linalg import (
    ConsistencyError,
    ContractViolation,
    spectrum_entropy,
    von_neumann_entropy,
)
from spinchannels.optimize import (
    ProbeReport,
    SearchConfig,
    SearchReport,
    _entropy_and_log_term,
    _multistart,
    _pure_entropy_and_gradient,
    additivity_probe,
    bracket,
    gain_convexity_bound,
    gain_lower_bound,
    haar_pure,
    min_entropy_gain,
    min_output_entropy,
    schmidt_coefficients,
)
from spinchannels.spin import singlet_state

LN2 = math.log(2.0)
LN3 = math.log(3.0)
SPIN_HALF_MIN = LN3 - 2.0 * LN2 / 3.0


def grid_min_gain(channel, step=0.02, levels=3, shrink=20.0):
    """Independent minimum-gain oracle for d = 2: scan the Bloch ball.

    Works entirely through the Pauli transfer representation; the entropy of
    a qubit state is a function of its Bloch radius alone. Each refinement
    level re-scans a shrunken box around the best point, so the final value
    is accurate well beyond the base step.
    """
    paulis = np.stack(
        [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
    )
    transfer = np.zeros((4, 4))
    for j in range(4):
        out = apply(channel, paulis[j] / 2.0)
        for i in range(4):
            transfer[i, j] = np.trace(paulis[i] @ out).real

    def binary_entropy(radius):
        radius = np.clip(radius, 0.0, 1.0)
        lam = np.clip((1.0 + radius) / 2.0, 1e-300, 1.0)
        mu = np.clip((1.0 - radius) / 2.0, 1e-300, 1.0)
        out = -lam * np.log(lam) - mu * np.log(mu)
        return np.where(radius >= 1.0, 0.0, out)

    def scan(center, half_width, spacing):
        axes = [np.arange(c - half_width, c + half_width + spacing / 2.0, spacing) for c in center]
        x, y, z = np.meshgrid(*axes, indexing="ij")
        r = np.stack([x.ravel(), y.ravel(), z.ravel()])
        inside = (r**2).sum(axis=0) <= 1.0
        r = r[:, inside]
        bloch_in = np.vstack([np.ones(r.shape[1]), r])
        bloch_out = transfer @ bloch_in
        radius_out = np.linalg.norm(bloch_out[1:], axis=0)
        gains = binary_entropy(radius_out) - binary_entropy(np.linalg.norm(r, axis=0))
        best = int(np.argmin(gains))
        return float(gains[best]), r[:, best]

    value, point = scan(np.zeros(3), 1.0, step)
    width = step
    for _ in range(levels):
        spacing = 2.0 * width / shrink
        value, point = scan(point, width, spacing)
        width = spacing
    return value


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.restarts == 64
        assert cfg.seed == 0

    def test_validation(self):
        with pytest.raises(ContractViolation):
            SearchConfig(restarts=0)
        with pytest.raises(ContractViolation):
            SearchConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("simplex_tolerance", math.nan),
            ("simplex_tolerance", math.inf),
        ],
    )
    def test_rejects_non_finite_tolerances(self, field, value):
        with pytest.raises(TypeError, match=field):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize(
        "fields",
        [
            {"restarts": 2.5, "seed": 1.7},
            {"restarts": 3.0},
            {"seed": np.float64(1.0)},
            {"restarts": True},
            {"seed": False},
            {"restarts": "4"},
        ],
    )
    def test_rejects_non_integer_counts(self, fields):
        with pytest.raises(ContractViolation, match="integers"):
            SearchConfig(**fields)

    def test_numpy_integer_counts_are_stored_as_int(self):
        cfg = SearchConfig(restarts=np.int64(8), seed=np.uint32(186))
        assert (cfg.restarts, cfg.seed) == (8, 186)
        assert type(cfg.restarts) is int and type(cfg.seed) is int
        assert len(min_output_entropy(isotropic_channel("1/2"), cfg).restart_values) == 8


class TestHaarPure:
    def test_deterministic_and_normalized(self):
        a = haar_pure(5, seed=7)
        b = haar_pure(5, seed=7)
        c = haar_pure(5, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_one_dimensional_state_has_unit_phase(self):
        assert np.array_equal(haar_pure(1, seed=3), np.array([1.0 + 0.0j]))

    def test_qubit_samples_cover_the_sphere(self):
        # mean Bloch vector of many samples should be near zero
        total = np.zeros(3)
        count = 10**4
        for seed in range(count):
            v = haar_pure(2, seed=seed)
            total += np.array(
                [
                    2.0 * (v[0].conjugate() * v[1]).real,
                    2.0 * (v[0].conjugate() * v[1]).imag,
                    (abs(v[0]) ** 2 - abs(v[1]) ** 2),
                ]
            )
        assert np.linalg.norm(total / count) < 0.05

    def test_rejects_bad_dimension(self):
        with pytest.raises(ContractViolation):
            haar_pure(0, seed=0)


class TestSchmidt:
    def test_product_state(self):
        phi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        coefficients = schmidt_coefficients(phi, (2, 2))
        assert np.abs(coefficients - np.array([1.0, 0.0])).max() < 1e-12

    def test_maximally_entangled_state(self):
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        coefficients = schmidt_coefficients(phi, (2, 2))
        assert np.abs(coefficients - np.full(2, 1.0 / math.sqrt(2.0))).max() < 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            schmidt_coefficients(np.ones(5) / math.sqrt(5.0), (2, 2))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, entry):
        with pytest.raises(ContractViolation, match="not finite"):
            schmidt_coefficients(np.array([entry, 0.0, 0.0, 1.0]), (2, 2))


class TestMinOutputEntropy:
    def test_unitary_channel_reaches_zero(self):
        report = min_output_entropy(random_channel(3, 1, seed=0), SearchConfig(restarts=4))
        assert abs(report.value) < 1e-10

    def test_replacement_channel_reaches_zero(self):
        report = min_output_entropy(replacement_channel(3), SearchConfig(restarts=4))
        assert abs(report.value) < 1e-10

    def test_spin_half_constant_objective(self):
        report = min_output_entropy(isotropic_channel("1/2"), SearchConfig(restarts=16))
        assert abs(report.value - SPIN_HALF_MIN) < 1e-8
        spread = report.restart_values[-1] - report.restart_values[0]
        assert spread < 1e-9

    def test_spin_one_reaches_ln_two(self):
        report = min_output_entropy(isotropic_channel("1"), SearchConfig(restarts=24, seed=5))
        assert abs(report.value - LN2) < 1e-6

    def test_report_invariants(self):
        channel = isotropic_channel("1")
        cfg = SearchConfig(restarts=8, seed=1)
        report = min_output_entropy(channel, cfg)
        assert len(report.restart_values) == 8
        assert report.restart_values == sorted(report.restart_values)
        assert report.value == report.restart_values[0]
        assert 0.0 <= report.converged_fraction <= 1.0
        assert report.evaluations > 0
        assert abs(np.linalg.norm(report.argmin) - 1.0) < 1e-12
        # re-evaluating the argmin must reproduce the reported value
        out = apply(channel, np.outer(report.argmin, report.argmin.conj()))
        assert abs(von_neumann_entropy(out) - report.value) < 1e-10

    def test_deterministic_reports(self):
        # at spin 1 each restart stops at its start; at spin 3/2 the L-BFGS steps are rerun too
        cfg = SearchConfig(restarts=6, seed=9)
        for spin in ("1", "3/2"):
            channel = isotropic_channel(spin)
            first = min_output_entropy(channel, cfg)
            second = min_output_entropy(channel, cfg)
            assert first.value == second.value
            assert first.restart_values == second.restart_values
            assert np.array_equal(first.argmin, second.argmin)
            assert first.evaluations == second.evaluations
        assert first.evaluations > len(first.restart_values)


class TestMinEntropyGain:
    def test_replacement_channel_reaches_minus_log_d(self):
        for d in (2, 3):
            report = min_entropy_gain(replacement_channel(d), SearchConfig(restarts=6, seed=3))
            assert abs(report.value + math.log(d)) < 1e-6

    def test_bistochastic_gain_is_zero(self):
        for spin in ("1/2", "1"):
            report = min_entropy_gain(isotropic_channel(spin), SearchConfig(restarts=6, seed=4))
            assert abs(report.value) < 1e-8

    def test_matches_bloch_grid_oracle(self):
        for seed in (21, 22, 23):
            channel = random_channel(2, 3, seed=seed)
            report = min_entropy_gain(channel, SearchConfig(restarts=12, seed=6))
            oracle = grid_min_gain(channel)
            assert abs(report.value - oracle) < 1e-6

    def test_argmin_is_a_state_reaching_the_value(self):
        channel = random_channel(2, 2, seed=31)
        report = min_entropy_gain(channel, SearchConfig(restarts=8, seed=7))
        rho = report.argmin
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
        assert abs(entropy_gain(channel, rho) - report.value) < 1e-10

    def test_values_respect_certified_bounds(self):
        for seed in range(4):
            channel = random_channel(3, 2, seed=seed)
            report = min_entropy_gain(channel, SearchConfig(restarts=6, seed=8))
            assert -math.log(3.0) - 1e-8 <= report.value <= 1e-8

    def test_rejects_rectangular_channels(self):
        ops = np.zeros((2, 3, 2), dtype=complex)
        ops[0, 0, 0] = 1.0
        ops[1, 1, 1] = 1.0
        with pytest.raises(ContractViolation, match="matching"):
            min_entropy_gain(KrausChannel(ops))


class TestAdditivityProbe:
    def test_spin_half_pair_is_additive(self):
        one = isotropic_channel("1/2")
        probe = additivity_probe(one, one, SearchConfig(restarts=12, seed=10))
        sum_of_singles = probe.single_a.value + probe.single_b.value
        assert abs(probe.joint.value - 2.0 * SPIN_HALF_MIN) < 1e-6
        assert abs(sum_of_singles - 2.0 * SPIN_HALF_MIN) < 1e-8
        assert probe.joint.value - sum_of_singles <= 1e-8
        assert probe.schmidt_coefficients[0] > 1.0 - 1e-6
        assert probe.schmidt_coefficients[1] < 1e-3

    def test_report_consistency(self):
        a = isotropic_channel("1/2")
        b = isotropic_channel("1")
        probe = additivity_probe(a, b, SearchConfig(restarts=8, seed=11))
        # the report is its three searches; every derived value is formed by the caller
        names = [f.name for f in fields(ProbeReport)]
        assert names == ["joint", "single_a", "single_b", "schmidt_coefficients"]
        assert len(probe.schmidt_coefficients) == 2
        assert abs(np.linalg.norm(probe.joint.argmin) - 1.0) < 1e-12
        # mixed-spin pair still satisfies subadditivity up to solver noise
        assert probe.joint.value - probe.single_a.value - probe.single_b.value <= 1e-8

    def test_unitary_pair_gap_is_zero(self):
        a = random_channel(2, 1, seed=41)
        b = random_channel(2, 1, seed=42)
        probe = additivity_probe(a, b, SearchConfig(restarts=4, seed=12))
        assert abs(probe.joint.value) < 1e-9
        assert abs(probe.joint.value - probe.single_a.value - probe.single_b.value) < 1e-9

    def test_one_channel_twice_runs_one_single_search(self, monkeypatch):
        calls = []
        original = optimize._sphere_lbfgs

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimize, "_sphere_lbfgs", counted)
        one = isotropic_channel("1")
        config = SearchConfig(restarts=6, seed=13)
        same = additivity_probe(one, one, config)
        assert len(calls) == 2
        twin = KrausChannel(one.kraus.copy())
        distinct = additivity_probe(one, twin, config)
        assert len(calls) == 5
        assert same.single_b is same.single_a
        for name in ProbeReport.__dataclass_fields__:
            mine, theirs = getattr(same, name), getattr(distinct, name)
            if isinstance(mine, SearchReport):
                mine, theirs = vars(mine), vars(theirs)
                assert mine.keys() == theirs.keys()
                for key in mine:
                    assert np.array_equal(mine[key], theirs[key]), (name, key)
            else:
                assert np.array_equal(mine, theirs), name


    @pytest.mark.parametrize("twice_s", range(1, 7))
    def test_certified_bounds_stop_each_search_at_restart_0(self, twice_s):
        """The single bound closes at every spin, the joint bound at 2s = 1 and 2 (None past)."""
        one = isotropic_channel(twice_s / 2)
        bounds = single_min_bound(twice_s / 2), joint_min_bound(twice_s / 2)
        probe = additivity_probe(one, one, SearchConfig(restarts=8, seed=3), *bounds)
        single, joint = probe.single_a, probe.joint
        assert (single.certificate, single.evaluations) == ("certified", 1)
        assert single.lower_bound == bounds[0]
        if twice_s <= 2:
            assert joint.certificate == "certified"
            assert joint.evaluations == len(joint.restart_values) == 1
            width = optimize.CERTIFIED_WIDTH
            assert joint.lower_bound <= joint.value <= joint.lower_bound + width
        else:
            assert (joint.certificate, joint.lower_bound) == ("heuristic", None)
            assert len(joint.restart_values) == 8


def _joint_report(channel, config):
    return additivity_probe(channel, channel, config).joint


@pytest.mark.parametrize(
    "search, channel",
    [
        (min_output_entropy, isotropic_channel("1")),
        (min_entropy_gain, random_channel(2, 3, seed=21)),
        (_joint_report, isotropic_channel("1/2")),
    ],
    ids=["min-output", "gain", "probe-joint"],
)
def test_report_invariants_of_every_search(search, channel):
    """All three searches report through one engine, so they share its invariants."""
    nats = search(channel, SearchConfig(restarts=5, seed=1))
    # a certified search stopped after restart 0; any other ran every restart
    assert len(nats.restart_values) == (1 if nats.certificate == "certified" else 5)
    assert nats.restart_values == sorted(nats.restart_values)
    assert nats.value == nats.restart_values[0]
    assert 0.0 <= nats.converged_fraction <= 1.0
    assert nats.evaluations > 0


def _one_row(objective, x):
    """Value and gradient of a stacked objective at one point, passed as a one-row stack."""
    values, gradients = objective(x[np.newaxis])
    return float(values[0]), gradients[0]


def _binary_entropy(p):
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


@pytest.mark.parametrize(
    "channel",
    [
        isotropic_channel("1/2"),
        random_channel(3, 5, seed=1),
        isotropic_channel("5/2"),
        random_channel(3, 2, seed=2),
        tensor(isotropic_channel("1"), isotropic_channel("1")),
    ],
    ids=["output-spin-half", "output-random-d3-k5", "gram-spin-5/2", "gram-random-d3-k2", "s1xs1"],
)
def test_pure_gradient_matches_central_differences(channel):
    objective = _pure_entropy_and_gradient(channel)
    dim = channel.dim_in
    rng = np.random.default_rng(17)
    # an unnormalized point, so the 1/|v| factor and the projection are both exercised
    x = 1.7 * rng.standard_normal(2 * dim)
    value, gradient = _one_row(objective, x)
    phi = x.view(np.complex128) / np.linalg.norm(x)
    assert abs(value - von_neumann_entropy(apply(channel, np.outer(phi, phi.conj())))) < 1e-12
    step = 1e-6
    central = np.array(
        [
            (_one_row(objective, x + step * e)[0] - _one_row(objective, x - step * e)[0])
            / (2 * step)
            for e in np.eye(2 * dim)
        ]
    )
    assert np.abs(gradient - central).max() < 1e-8
    # the scale direction is flat
    assert abs(gradient @ x) < 1e-12


def test_spin_three_search_converges_to_the_coherent_state_value():
    report = min_output_entropy(isotropic_channel("3"), SearchConfig(restarts=64))
    assert report.converged_fraction == 1.0
    assert abs(report.value - _binary_entropy(0.25)) < 1e-9


def _bloch_grid_min_output(channel, points=400):
    """Minimum output entropy of a qubit channel over a dense theta x phi grid of pure inputs."""
    theta, phase = np.meshgrid(
        np.linspace(0.0, np.pi, points), np.linspace(0.0, 2.0 * np.pi, 2 * points, endpoint=False)
    )
    states = np.stack(
        [np.cos(theta / 2).ravel(), np.exp(1j * phase).ravel() * np.sin(theta / 2).ravel()], axis=1
    )
    moved = np.einsum("kij,sj->ski", channel.kraus, states)
    outputs = np.einsum("ski,skj->sij", moved, moved.conj())
    w = np.clip(np.linalg.eigvalsh(outputs), 1e-300, None)
    return float((-(w * np.log(w)).sum(axis=1)).min())


@pytest.mark.parametrize("seed, n_kraus", [(51, 2), (52, 3), (53, 4), (54, 2)])
def test_qubit_search_is_no_worse_than_a_dense_bloch_grid(seed, n_kraus):
    channel = random_channel(2, n_kraus, seed=seed)
    report = min_output_entropy(channel, SearchConfig(restarts=8, seed=2))
    assert report.value <= _bloch_grid_min_output(channel) + 1e-12


class TestToleranceBound:
    def test_rejects_simplex_tolerance_above_the_bound(self):
        """No config can switch the gradient stop off: it is a constant within the old 1e-3 bound."""
        with pytest.raises(TypeError, match="simplex_tolerance"):
            SearchConfig(simplex_tolerance=1e-3 * 1.01)
        with pytest.raises(TypeError, match="simplex_tolerance"):
            SearchConfig(simplex_tolerance=1e300)
        assert 0.0 < optimize._GRADIENT_TOL <= 1e-3


class TestGainLowerBound:
    def test_unital_and_replacement_channels(self):
        assert abs(gain_lower_bound(isotropic_channel("3/2"))) < 1e-12
        for d in (2, 3):
            assert abs(gain_lower_bound(replacement_channel(d)) + math.log(d)) < 1e-12

    def test_non_unital_bound_is_tighter_than_minus_log_d(self):
        channel = random_channel(2, 3, seed=0)
        image = sum(k @ k.conj().T for k in channel.kraus)
        expected = -math.log(np.linalg.eigvalsh(image).max())
        bound = gain_lower_bound(channel)
        assert abs(bound - expected) < 1e-12
        assert bound > -math.log(2.0) + 0.3  # -0.357 against -0.693
        report = min_entropy_gain(channel, SearchConfig(restarts=6, seed=3))
        assert bound - 1e-8 <= report.value <= 1e-8

    def test_range_check_uses_the_certified_bound(self, monkeypatch):
        channel = random_channel(2, 3, seed=0)
        # a value inside [-ln d, 0] but below -ln||Lambda(I)|| must be caught, and by the
        # range check rather than by `bracket`, which would raise without naming the range
        point = (np.eye(2, dtype=complex) / math.sqrt(2.0)).view(float).reshape(1, -1)
        fake = (np.array([-0.5]), point, np.array([1]), np.array([True]))
        monkeypatch.setattr(optimize, "_sphere_lbfgs", lambda *args: fake)
        with pytest.raises(ConsistencyError, match="certified range"):
            min_entropy_gain(channel, SearchConfig(restarts=1))


@pytest.mark.parametrize(
    "channel",
    [
        random_channel(2, 3, seed=0),
        random_channel(3, 2, seed=1),
        isotropic_channel("1"),
        random_channel(4, 3, seed=2),
        tensor(random_channel(2, 2, seed=3), random_channel(2, 2, seed=4)),
    ],
    ids=["random-d2-k3", "random-d3-k2", "spin-1", "random-d4-k3", "product-2x2"],
)
def test_gain_gradient_matches_central_differences(channel):
    objective = optimize._gain_objective(channel)
    dim = channel.dim_in
    rng = np.random.default_rng(19)
    # an unnormalized full-rank A, so the 1/t factor and the trace term are both exercised
    x = 1.3 * rng.standard_normal(2 * dim * dim)
    value, gradient = _one_row(objective, x)
    a = x.view(np.complex128).reshape(dim, dim)
    rho = a @ a.conj().T / np.vdot(a, a).real
    assert abs(value - entropy_gain(channel, rho)) < 1e-12
    step = 1e-6
    central = np.array(
        [
            (_one_row(objective, x + step * e)[0] - _one_row(objective, x - step * e)[0])
            / (2 * step)
            for e in np.eye(x.size)
        ]
    )
    assert np.abs(gradient - central).max() < 1e-8
    # the scale direction is flat
    assert abs(gradient @ x) < 1e-12


def test_gain_searches_on_the_criterion_10_pairs_converge_and_add_up():
    """The joint gain of a product equals the sum of the single gains, every restart converging."""
    single_cfg = SearchConfig(restarts=8, seed=20)
    joint_cfg = SearchConfig(restarts=12, seed=21)
    for pair in range(10):
        chan_a = random_channel(2, 3, seed=2000 + pair)
        chan_b = random_channel(2, 3, seed=3000 + pair)
        reports = [
            min_entropy_gain(chan_a, single_cfg),
            min_entropy_gain(chan_b, single_cfg),
            min_entropy_gain(tensor(chan_a, chan_b), joint_cfg),
        ]
        assert [r.converged_fraction for r in reports] == [1.0, 1.0, 1.0]
        g_a, g_b, g_joint = (r.value for r in reports)
        assert abs(g_joint - g_a - g_b) <= 1e-9


@pytest.mark.parametrize("dim, n_kraus", [(2, 3), (3, 2)])
def test_gain_restarts_agree(dim, n_kraus):
    for seed in range(6):
        report = min_entropy_gain(random_channel(dim, n_kraus, seed), SearchConfig(restarts=10))
        assert report.restart_values[-1] - report.restart_values[0] <= 1e-9


def _gain_search_without_bound(channel, config):
    """A bound-free multi-start gain search: A = I, then Haar starts, every restart, no bracket."""
    dim = channel.dim_in
    report = _multistart(optimize._gain_objective(channel), config, [np.eye(dim).ravel()], dim**2)
    a = report.argmin.reshape(dim, dim)
    return replace(report, argmin=a @ a.conj().T)


@pytest.mark.parametrize("dim, n_kraus", [(2, 3), (3, 2)])
def test_a_gain_search_stopped_by_its_bracket_keeps_the_full_value(dim, n_kraus):
    """On the channels of test_gain_restarts_agree, restart 0 alone finds what ten find."""
    config = SearchConfig(restarts=10)
    for seed in range(6):
        channel = random_channel(dim, n_kraus, seed)
        report = min_entropy_gain(channel, config)
        full = _gain_search_without_bound(channel, config)
        assert abs(report.value - full.value) <= 1e-9, seed
        assert report.lower_bound <= full.value
        ran = 1 if report.certificate == "certified" else config.restarts
        assert len(report.restart_values) == ran
        assert report.converged_fraction == 1.0


def test_a_bracket_that_never_closes_runs_every_restart_bit_for_bit(monkeypatch, tmp_path):
    """With no bracket allowed to close, the gain search is one descent of `restarts` legs,
    each resumed from the last one's end point, and its first leg is the bound-free restart 0."""
    path = tmp_path / "random.json"
    save_channel(random_channel(3, 2, seed=41), path)
    config = SearchConfig(restarts=8, seed=5)
    monkeypatch.setattr(optimize, "CERTIFIED_WIDTH", -math.inf)
    descend, legs = optimize._sphere_lbfgs, []

    def recorded(objective, x0):
        legs.append((x0, descend(objective, x0)))
        return legs[-1][1]

    monkeypatch.setattr(optimize, "_sphere_lbfgs", recorded)
    for channel in (isotropic_channel("3/2"), load_channel(path)):
        legs.clear()
        report = min_entropy_gain(channel, config)
        assert report.certificate == "heuristic"
        assert len(legs) == len(report.restart_values) == config.restarts
        assert report.evaluations == sum(int(ends[2].sum()) for _, ends in legs)
        values = [float(ends[0][0]) for _, ends in legs]
        for (_, before), (start, _), previous, value in zip(legs, legs[1:], values, values[1:]):
            assert np.array_equal(start, before[1])
            assert value <= previous + optimize._ROUNDING * max(abs(previous), 1.0)
        assert report.value == min(values)
        one = SearchConfig(restarts=1, seed=5)
        first, full = min_entropy_gain(channel, one), _gain_search_without_bound(channel, one)
        assert first.value == full.value
        assert np.array_equal(first.argmin, full.argmin)
        assert first.evaluations == full.evaluations


# (d, n_Kraus, seed) of the sweep's channels whose first leg ends with its bracket open
_RESUMED_GAINS = [
    (4, 2, 102), (4, 2, 103), (5, 2, 101), (6, 2, 101), (7, 2, 101),
    (7, 2, 102), (7, 3, 101), (8, 2, 101), (8, 2, 102), (8, 3, 102),
]


def test_every_gain_of_the_random_sweep_closes_its_bracket_in_a_few_legs():
    """d = 2 to 8, 2 and 3 Kraus operators, seeds 100 to 103: one descent certifies each."""
    config, evaluations = SearchConfig(restarts=16, seed=1), 0
    for dim in range(2, 9):
        for n_kraus in (2, 3):
            for seed in range(100, 104):
                channel = random_channel(dim, n_kraus, seed)
                report = min_entropy_gain(channel, config)
                assert report.certificate == "certified", (dim, n_kraus, seed)
                assert len(report.restart_values) <= 3
                evaluations += report.evaluations
                if (dim, n_kraus, seed) in _RESUMED_GAINS:
                    full = _gain_search_without_bound(channel, config)
                    assert abs(report.value - full.value) <= 1e-11, (dim, n_kraus, seed)
    assert evaluations <= 1300
    # criterion 10's pair 6, whose joint search ends its first leg with its bracket open
    pair = tensor(random_channel(2, 3, seed=2006), random_channel(2, 3, seed=3006))
    assert min_entropy_gain(pair, SearchConfig(restarts=12, seed=21)).certificate == "certified"


def _spied_convexity_bounds(monkeypatch) -> list:
    """Route optimize.gain_convexity_bound through a spy; the list of its results."""
    bound, results = optimize.gain_convexity_bound, []

    def spied(channel, rho):
        results.append(bound(channel, rho))
        return results[-1]

    monkeypatch.setattr(optimize, "gain_convexity_bound", spied)
    return results


def test_unital_gains_close_on_the_range_bound_alone(monkeypatch):
    """-ln||Lambda(I)|| = 0 closes every unital bracket at the start I/d, so no
    convexity bound is computed and the range bound is the report's."""
    results = _spied_convexity_bounds(monkeypatch)
    channels = [isotropic_channel(twice_s / 2) for twice_s in range(1, 7)]
    channels += [random_channel(dim, 1, seed) for dim in (2, 3, 5, 8) for seed in (0, 1)]
    for channel in channels:
        report = min_entropy_gain(channel, SearchConfig(restarts=8))
        assert (report.certificate, len(report.restart_values)) == ("certified", 1)
        assert report.lower_bound == gain_lower_bound(channel)
    assert results == []


def test_a_non_unital_gain_computes_the_convexity_bound_once_per_open_leg(monkeypatch, tmp_path):
    path = tmp_path / "random.json"
    save_channel(random_channel(4, 2, seed=102), path)  # closes after its second leg
    channel = load_channel(path)
    lower, results = gain_lower_bound(channel), _spied_convexity_bounds(monkeypatch)
    report = min_entropy_gain(channel, SearchConfig(restarts=16))
    assert report.certificate == "certified"
    assert all(value - lower > optimize.CERTIFIED_WIDTH for value in report.restart_values)
    assert len(results) == len(report.restart_values) == 2
    assert report.lower_bound == max(lower, *results)


class TestGainConvexityBound:
    def test_unital_channel_at_the_maximally_mixed_state_is_zero(self):
        for spin in ("1/2", "3/2"):
            channel = isotropic_channel(spin)
            dim = channel.dim_in
            bound = gain_convexity_bound(channel, np.eye(dim) / dim)
            assert -1e-12 < bound <= 0.0

    def test_the_trace_is_normalised(self):
        channel = random_channel(3, 2, seed=4)
        rho = np.diag([0.5, 0.3, 0.2])
        assert gain_convexity_bound(channel, 7.0 * rho) == gain_convexity_bound(channel, rho)

    def test_no_bound_where_the_state_is_not_positive_definite(self):
        channel = random_channel(2, 3, seed=0)
        for rho in (np.diag([1.0, 0.0]), np.diag([1.2, -0.2]), np.zeros((2, 2))):
            assert gain_convexity_bound(channel, rho) == -math.inf

    def test_rejects_states_that_do_not_fit(self):
        channel = random_channel(2, 3, seed=0)
        with pytest.raises(ContractViolation, match="does not fit"):
            gain_convexity_bound(channel, np.eye(3) / 3)
        with pytest.raises(ContractViolation, match="Hermitian"):
            gain_convexity_bound(channel, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_a_rank_deficient_minimum_is_certified_by_the_norm_bound(self):
        """The replacement channel's minimum -ln d sits at pure inputs, where the convexity
        bound is far below; -ln||Lambda(I)|| closes the bracket instead."""
        report = min_entropy_gain(replacement_channel(3), SearchConfig(restarts=6, seed=3))
        assert report.certificate == "certified"
        assert report.lower_bound == gain_lower_bound(replacement_channel(3))


class TestBracket:
    REPORT = SearchReport(
        value=0.0, argmin=np.ones(1), restart_values=[0.0], converged_fraction=1.0, evaluations=1
    )

    def test_the_label_holds_only_while_the_bracket_is_closed(self):
        width = optimize.CERTIFIED_WIDTH
        closed = bracket(self.REPORT, -width)
        assert (closed.lower_bound, closed.certificate) == (-width, "certified")
        assert bracket(self.REPORT, -2.0 * width).certificate == "heuristic"
        assert replace(closed, lower_bound=None, certificate="heuristic") == self.REPORT

    def test_a_bound_above_the_value_is_an_error(self):
        assert bracket(self.REPORT, optimize._GAIN_SLACK).certificate == "certified"
        with pytest.raises(ConsistencyError, match="below its lower bound"):
            bracket(self.REPORT, 2.0 * optimize._GAIN_SLACK)

    def test_a_gain_bound_above_the_value_is_caught(self, monkeypatch):
        """An inverted bracket closes by width alone; the search must refuse it."""
        monkeypatch.setattr(
            optimize, "gain_convexity_bound", lambda ch, rho: entropy_gain(ch, rho) + 1.0
        )
        with pytest.raises(ConsistencyError, match="below its lower bound"):
            min_entropy_gain(random_channel(3, 2, seed=1), SearchConfig(restarts=4))


def _joint_search(channel, config):
    """The probe's two-factor search of channel x channel, from the basis and Haar starts."""
    dim = channel.dim_in**2
    objective = _pure_entropy_and_gradient(channel, channel)
    return _multistart(objective, config, [np.eye(1, dim)[0]], dim)


@pytest.mark.parametrize(
    "search, channel",
    [
        (min_output_entropy, isotropic_channel("3")),
        (min_output_entropy, random_channel(3, 5, seed=1)),
        (min_entropy_gain, random_channel(2, 3, seed=21)),
        (min_entropy_gain, tensor(random_channel(2, 2, seed=3), random_channel(2, 2, seed=4))),
        (_joint_search, isotropic_channel("1")),
        (_joint_search, isotropic_channel("1/2")),
    ],
    ids=[
        "gram-spin-3",
        "output-random-d3-k5",
        "gain-d2",
        "gain-product-2x2",
        "joint-gram-s1xs1",
        "joint-output-s1/2xs1/2",
    ],
)
def test_restarts_advance_independently_of_each_other(search, channel):
    """Restart i does the same arithmetic whatever else shares its batch."""
    small = search(channel, SearchConfig(restarts=8, seed=3))
    large = search(channel, SearchConfig(restarts=16, seed=3))
    assert set(small.restart_values) <= set(large.restart_values)


def test_every_search_starts_from_its_leading_states_then_seeded_haar_states(monkeypatch):
    """Past its leading states, restart i of every search starts from haar_pure(dim, [seed, i])."""
    starts = []
    original = optimize._sphere_lbfgs

    def captured(objective, x0):
        starts.append(x0.copy())
        return original(objective, x0)

    monkeypatch.setattr(optimize, "_sphere_lbfgs", captured)
    config = SearchConfig(restarts=6, seed=7)
    one, half = isotropic_channel("1"), isotropic_channel("1/2")
    point = KrausChannel(np.full((2, 3, 1), 1.0 / math.sqrt(6.0)))  # dim_in = 1
    min_output_entropy(one, config)
    probe = additivity_probe(half, half, config)
    unequal = additivity_probe(half, one, config)
    min_entropy_gain(one, config)
    min_output_entropy(point, config)
    single = probe.single_a.argmin
    entangled = np.zeros(6)
    entangled[[2, 4]] = 1.0 / math.sqrt(2), -1.0 / math.sqrt(2)  # (|0>|2> - |1>|1>) / sqrt(2)
    leading = [
        [np.eye(1, 3)[0]],
        [np.eye(1, 2)[0]],  # the probe's single search
        [np.kron(single, single), singlet_state("1/2"), np.eye(1, 4)[0]],
        [np.eye(1, 2)[0]],  # the unequal probe's two single searches
        [np.eye(1, 3)[0]],
        [np.kron(unequal.single_a.argmin, unequal.single_b.argmin), entangled, np.eye(1, 6)[0]],
        [np.eye(3).ravel()],  # vec(I) of the gain's A
        [np.eye(1, 1)[0]],  # a one-point input runs this restart only
    ]
    assert len(starts) == len(leading)
    for x0, states in zip(starts, leading):
        dim = x0.shape[1] // 2
        for index, row in enumerate(x0):
            expected = states[index] if index < len(states) else haar_pure(dim, [config.seed, index])
            assert np.array_equal(row, np.asarray(expected, np.complex128).view(float)), index


def _spectral_stack():
    """Full-rank, rank-deficient and exactly pure 3 x 3 density matrices, one per row."""
    rng = np.random.default_rng(31)
    vectors = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    full = vectors[0] @ vectors[0].conj().T
    rank_two = vectors[1][:, :2] @ vectors[1][:, :2].conj().T
    stack = [full / np.trace(full).real, rank_two / np.trace(rank_two).real]
    stack += [np.diag([1.0, 0.0, 0.0]), np.outer(vectors[2][0], vectors[2][0].conj())]
    stack[-1] /= np.trace(stack[-1]).real
    return np.array(stack, dtype=np.complex128)


def test_spectral_hook_is_log_plus_one_on_the_support_and_zero_off_it():
    stack = _spectral_stack()
    values, f_of = _entropy_and_log_term(stack)
    w, u = np.linalg.eigh(stack)
    # both sides of the support cut: eigenvalues at or below 0, and rounding-level ones above
    assert (w <= 0.0).any() and ((w > 0.0) & (w < 1e-15)).any()
    positive = w > 0.0
    expected = np.zeros_like(w)
    expected[positive] = np.log(w[positive]) + 1.0
    assert np.array_equal(f_of, (u * expected[:, np.newaxis, :]) @ u.conj().transpose(0, 2, 1))
    assert np.array_equal(values, spectrum_entropy(w))
    assert values[2] == 0.0 and abs(values[3]) < 1e-12


def test_spectral_hook_rejects_nan_entries():
    stack = _spectral_stack()
    stack[1, 2, 0] = np.nan  # eigh reads the lower triangle
    with pytest.raises(ContractViolation, match="not finite|NaN"):
        _entropy_and_log_term(stack)


@pytest.mark.parametrize(
    "make_objective, channel",
    [
        (_pure_entropy_and_gradient, random_channel(3, 2, seed=2)),  # Gram route
        (_pure_entropy_and_gradient, random_channel(3, 5, seed=1)),  # output-state route
        (_pure_entropy_and_gradient, tensor(isotropic_channel("1"), isotropic_channel("1"))),
        (optimize._gain_objective, random_channel(3, 2, seed=5)),
        (optimize._gain_objective, tensor(random_channel(2, 2, seed=3), random_channel(2, 2, seed=4))),
    ],
    ids=["pure-gram", "pure-output", "pure-s1xs1", "gain-d3", "gain-product-2x2"],
)
def test_stacked_objective_matches_single_points_row_by_row(make_objective, channel):
    objective = make_objective(channel)
    size = 2 * channel.dim_in * (channel.dim_in if make_objective is optimize._gain_objective else 1)
    points = np.random.default_rng(23).standard_normal((5, size))
    values, gradients = objective(points)
    assert values.shape == (5,) and gradients.shape == (5, size)
    for point, value, gradient in zip(points, values, gradients):
        single_value, single_gradient = _one_row(objective, point)
        assert abs(single_value - value) <= 1e-15
        assert np.abs(single_gradient - gradient).max() <= 1e-15


def _rectangular_channel():
    """Four 3 x 2 Kraus operators: the slices of a random 12 x 2 isometry."""
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)))
    return KrausChannel(q.reshape(4, 3, 2))


@pytest.mark.parametrize(
    "channel_a, channel_b",
    [
        (isotropic_channel("1/2"), isotropic_channel("1/2")),
        (isotropic_channel("1"), isotropic_channel("1")),
        (isotropic_channel("2"), isotropic_channel("2")),
        (isotropic_channel("3/2"), isotropic_channel("1/2")),
        (random_channel(3, 5, seed=1), random_channel(2, 2, seed=2)),
        (_rectangular_channel(), isotropic_channel("1")),
    ],
    ids=[
        "output-s1/2xs1/2",
        "gram-s1xs1",
        "gram-s2xs2",
        "s3/2xs1/2",
        "random-d3k5xd2k2",
        "rect-4x3x2xs1",
    ],
)
def test_factorwise_objective_matches_the_product_kraus_stack(channel_a, channel_b):
    """Two factors applied one at a time agree with the tensor() Kraus stack row by row."""
    size = 2 * channel_a.dim_in * channel_b.dim_in
    points = np.random.default_rng(37).standard_normal((6, size))
    values, gradients = _pure_entropy_and_gradient(channel_a, channel_b)(points)
    expected_values, expected_gradients = _pure_entropy_and_gradient(tensor(channel_a, channel_b))(
        points
    )
    assert values.shape == (6,) and gradients.shape == (6, size)
    assert np.abs(values - expected_values).max() <= 1e-13
    assert np.abs(gradients - expected_gradients).max() <= 1e-12


@pytest.mark.parametrize("make_objective", [_pure_entropy_and_gradient, optimize._gain_objective])
def test_nan_channel_raises_through_the_stacked_entropy(make_objective):
    channel = KrausChannel(isotropic_channel("1").kraus)  # not the one every caller shares
    ops = np.array(channel.kraus)
    ops[0, 0, 0] = math.nan
    object.__setattr__(channel, "kraus", ops)  # past the constructor's own check
    size = 2 * 3 * (3 if make_objective is optimize._gain_objective else 1)
    points = np.random.default_rng(29).standard_normal((4, size))
    with pytest.raises(ContractViolation, match="not finite|NaN"):
        make_objective(channel)(points)


def test_iteration_cap_is_reported_as_not_converged(monkeypatch):
    """A cap of one iteration leaves restarts unconverged; the default converges them."""
    channel = isotropic_channel("3")
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_MAX_ITERATIONS", 1)
        capped = min_output_entropy(channel, SearchConfig(restarts=6))
    assert capped.converged_fraction < 1.0
    assert capped.evaluations > 6  # the starts, then at least one trial step
    full = min_output_entropy(channel, SearchConfig(restarts=6))
    assert full.converged_fraction == 1.0
    assert full.value <= capped.value


def test_a_line_search_without_decrease_stops_its_restart_unconverged():
    """A flat objective with a constant gradient fails every Armijo trial, so each row
    stops at its normalised start after 1 + _MAX_TRIALS evaluations."""
    gradient = np.linspace(1.0, 2.0, 6)

    def flat(x):
        return np.zeros(len(x)), np.tile(gradient, (len(x), 1))

    x0 = np.random.default_rng(23).standard_normal((3, 6))
    values, points, evaluations, converged = optimize._sphere_lbfgs(flat, x0)
    assert np.array_equal(points, x0 / np.linalg.norm(x0, axis=1, keepdims=True))
    assert values.tolist() == [0.0, 0.0, 0.0]
    assert evaluations.tolist() == [1 + optimize._MAX_TRIALS] * 3
    assert not converged.any()


def test_a_stack_with_mixed_line_search_outcomes_matches_its_one_row_runs():
    """Row 0 accepts its first trial, row 1 after one backtrack, and row 2 fails every trial;
    each row ends exactly as a one-row run from its start does.

    Each row lives on its own pair of coordinates, which no step leaves: rows 0 and 1 descend
    sin^2 of their angle (from 1 and 0.1 radians, so the first trial, a 45 degree turn,
    lands at 0.21 and at -0.69), and row 2 sees a flat value with a constant gradient.
    """
    curved = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    constant = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])

    def objective(x):
        norm2 = np.vecdot(x, x)[:, np.newaxis]
        f = np.vecdot(x, curved * x)[:, np.newaxis] / norm2
        g = 2.0 * (curved * x - f * x) / norm2
        g += constant * (np.abs(x[:, 4:]).max(axis=1, keepdims=True) > 0.0)
        return f[:, 0], g

    calls = []

    def recorded(x):
        calls.append([int(np.flatnonzero(row)[0]) // 2 for row in x])  # the rows in this call
        return objective(x)

    x0 = np.zeros((3, 6))
    x0[0, :2] = math.cos(1.0), math.sin(1.0)
    x0[1, 2:4] = math.cos(0.1), math.sin(0.1)
    x0[2, 4:] = 3.0, -1.0
    stacked = optimize._sphere_lbfgs(recorded, x0)
    trials = optimize._MAX_TRIALS
    # the start, the first trial of all three, the backtrack of rows 1 and 2, then row 2 alone
    assert calls[: trials + 1] == [[0, 1, 2], [0, 1, 2], [1, 2]] + [[2]] * (trials - 2)
    assert all(2 not in rows for rows in calls[trials + 1 :])
    assert stacked[2].tolist()[2] == 1 + trials and stacked[3].tolist() == [True, True, False]
    for row in range(3):
        alone = optimize._sphere_lbfgs(objective, x0[row : row + 1])
        for together, single in zip(stacked, alone):
            assert together[row : row + 1].tobytes() == single.tobytes()
            assert together.dtype == single.dtype


def test_a_one_point_input_space_runs_one_restart():
    """Every start of a search over a one-point space is the same point, so one restart runs."""
    config = SearchConfig(restarts=5)
    point = KrausChannel(np.full((2, 3, 1), 1.0 / math.sqrt(6.0)))  # dim_in = 1
    reports = [
        min_output_entropy(point, config),
        additivity_probe(point, point, config).joint,
        min_entropy_gain(KrausChannel(np.ones((1, 1, 1))), config),
    ]
    for report in reports:
        assert len(report.restart_values) == 1
        assert report.evaluations == 1
        assert report.converged_fraction == 1.0
    # the searched dimension of a 1 x 2 product is 2, so it runs every restart
    pair = additivity_probe(point, isotropic_channel("1/2"), config)
    assert len(pair.joint.restart_values) == 5


def test_an_overlong_first_step_does_not_strand_a_restart():
    """A first trial of t = 1 along a long direction lands a quarter turn away, and every
    backtrack stays near it; starting at t = 1 / |p| lets restart 2 of seed 186 converge."""
    report = min_output_entropy(isotropic_channel("2"), SearchConfig(restarts=8, seed=186))
    assert report.converged_fraction == 1.0
    assert abs(report.value - report.restart_values[-1]) < 1e-9


def test_spin_two_searches_converge_at_seeds_180_to_199():
    channel = isotropic_channel("2")
    for seed in range(180, 200):
        report = min_output_entropy(channel, SearchConfig(restarts=8, seed=seed))
        assert report.converged_fraction == 1.0, seed


class TestSearchSizeGuard:
    def test_rejects_stacks_past_the_cap_in_integer_arithmetic(self):
        with pytest.raises(ContractViolation, match="GiB"):
            optimize.check_search_size("gain", 64, (3, 2001, 2001))
        with pytest.raises(ContractViolation, match="GiB"):
            optimize.check_search_size("min-output", 64, (3, 10**400, 10**400))

    def test_benchmark_and_test_sizes_stay_far_below_the_cap(self):
        # the largest searches the test suite and the benchmark run, with 64 restarts
        for command, shape in [
            ("min-output", (3, 41, 41)),
            ("gain", (3, 4, 4)),
            ("probe", (3, 5, 5)),
            ("probe", (3, 7, 7)),
        ]:
            assert optimize._search_bytes(command, 64, shape) < optimize.SEARCH_BYTE_CAP / 100
            optimize.check_search_size(command, 64, shape)

    def test_rejects_input_dimensions_past_the_time_cap(self):
        for command, cap in optimize.SEARCH_DIMENSION_CAP.items():
            side = math.isqrt(cap) if command == "probe" else cap
            optimize.check_search_size(command, 64, (3, side, side))
            side += 1
            with pytest.raises(ContractViolation, match=f"{command} searches.*{cap}-dimension cap"):
                optimize.check_search_size(command, 64, (3, side, side))
        with pytest.raises(ContractViolation, match="probe searches a 1025-dimensional"):
            optimize.check_search_size("probe", 1, (1, 1, 1), (1, 1, 1025))

    @pytest.mark.parametrize("command", ["min-output", "probe", "gain"])
    def test_restart_budget_scales_inversely_with_the_dimension(self, command):
        cap = optimize.SEARCH_DIMENSION_CAP[command]
        # 64 restarts at the cap, 256 at a quarter of it, 4096 at cap / 64 and below
        for dim, allowed in [(cap, 64), (cap // 4, 256), (cap // 64, 4096), (1, 4096)]:
            optimize.check_search_size(command, allowed, (3, dim, dim), (1, 1, 1))
            with pytest.raises(ContractViolation, match=f"at most {allowed} restarts of a {dim}-"):
                optimize.check_search_size(command, allowed + 1, (3, dim, dim), (1, 1, 1))

    def test_the_gain_budgets_one_row_whatever_its_legs(self):
        shape = (20000, 4, 4)  # one leg's X_k rho stack takes 4.9 MiB
        optimize.check_search_size("gain", 1024, shape)
        assert optimize._search_bytes("gain", 1024, shape) == optimize._search_bytes("gain", 1, shape)
        with pytest.raises(ContractViolation, match="at most 1024 restarts of a 4-"):
            optimize.check_search_size("gain", 1025, shape)
        with pytest.raises(ContractViolation, match="GiB"):  # 1024 rows of a pure search
            optimize.check_search_size("min-output", 1024, shape)

    def test_restart_budget_keeps_the_documented_runs(self):
        optimize.check_search_size("probe", 256, (3, 2, 2))  # README: probe --spin 1/2
        optimize.check_search_size("min-output", 128, (3, 200, 200))  # README: --restarts 128
        with pytest.raises(ContractViolation, match="past the restart budget of min-output"):
            optimize.check_search_size("min-output", 640, (3, 400, 400))  # took 58 s

    def test_library_entry_points_check_before_searching(self):
        channel = isotropic_channel("1/2")
        config = SearchConfig(restarts=2**40)
        with pytest.raises(ContractViolation, match="GiB"):
            min_output_entropy(channel, config)
        # the gain's largest array is one row, whatever its legs; the restart budget stops it
        with pytest.raises(ContractViolation, match="past the restart budget of gain"):
            min_entropy_gain(channel, config)
        with pytest.raises(ContractViolation, match="probe.*GiB"):
            additivity_probe(channel, channel, config)
