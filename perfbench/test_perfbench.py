"""Tests of the benchmark itself: reference checks, failure counting, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py

Each command kind is run once for real at a small size; its output must pass
its reference check, and a deliberately wrong value in it must be counted as
a failed operation.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spinchannels import cli, invariant  # noqa: E402
from spinchannels.channel import random_channel, save_channel  # noqa: E402


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _isotypic_output(twice_s, probs):
    dist = invariant.IsotypicDistribution(twice_s / 2, tuple(probs))
    found = invariant.isotypic_probabilities(invariant.state_from_distribution(dist), twice_s / 2)
    return json.dumps(list(found.probs))


@pytest.fixture(scope="module")
def channel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("channels") / "random_d2_k3.json"
    save_channel(random_channel(2, 3, [0, 1]), path)
    return str(path)


def _cases(channel_file):
    """(op, correct output, list of ways to corrupt its payload) per command kind."""
    probs = workloads.block_weights(3, 0)

    def bump(key, delta):
        def corrupt(payload):
            payload[key] = payload[key] + delta

        return corrupt

    def set_to(key, value):
        def corrupt(payload):
            payload[key] = value

        return corrupt

    def bump_entry(key, index, delta):
        def corrupt(payload):
            (payload if key is None else payload[key])[index] += delta

        return corrupt

    search = ["--restarts", "2", "--seed", "0"]
    return [
        (
            {"kind": "cli", "check": {"kind": "min-output", "twice_s": 2}},
            _cli_output(["min-output", "--spin", "1", *search]),
            [bump("value", 1e-4), set_to("value", float("nan"))],
        ),
        (
            {"kind": "cli", "check": {"kind": "probe", "twice_s": 1}},
            _cli_output(["probe", "--spin", "1/2", *search]),
            [set_to("gap", 1e-6), bump("sum_of_singles", 1e-4)],
        ),
        (
            {"kind": "cli", "check": {"kind": "gain", "twice_s": 1}},
            _cli_output(["gain", "--spin", "1/2", *search]),
            [set_to("value", -1e-4), set_to("command", "min-output")],
        ),
        (
            {"kind": "cli", "check": {"kind": "gain-file", "path": channel_file}},
            _cli_output(["gain", "--channel", channel_file, *search]),
            [bump("value", -1.0), set_to("value", 1e-3)],
        ),
        (
            {"kind": "cli", "check": {"kind": "singlet", "twice_s": 3}},
            _cli_output(["singlet", "--spin", "3/2"]),
            [bump_entry("probs", 1, 1e-7), bump("entropy", 1e-7)],
        ),
        (
            {"kind": "isotypic", "check": {"kind": "isotypic", "twice_s": 3, "probs": probs}},
            _isotypic_output(3, probs),
            [bump_entry(None, 0, 1e-7)],
        ),
    ]


def _judge_one(op, outputs):
    """Failures counted for `op` run once per output, as passes of one run."""
    op = {"label": op["check"]["kind"], **op}
    passes = [{"records": [{"rc": 0, "error": None, "out": out}]} for out in outputs]
    attempted, failures = run._judge([op], passes)
    assert attempted == len(outputs)
    return failures


def test_every_kind_passes_its_reference_and_counts_a_wrong_value(channel_file):
    for op, output, corruptions in _cases(channel_file):
        assert checks.check_output(op["check"], output) == [], op
        assert _judge_one(op, [output]) == []
        for corrupt in corruptions:
            payload = json.loads(output)
            corrupt(payload)
            failures = _judge_one(op, [json.dumps(payload)])
            assert len(failures) == 1, (op, payload)
            assert failures[0]["command"] == op["check"]["kind"]


def test_output_that_changes_between_passes_is_a_failure():
    op = {"kind": "cli", "check": {"kind": "singlet", "twice_s": 1}}
    output = _cli_output(["singlet", "--spin", "1/2"])
    failures = _judge_one(op, [output, output, output.replace("\n", " ", 1)])
    assert [f["pass"] for f in failures] == [2]
    assert "differs" in failures[0]["reasons"][0]


def test_nonzero_exit_and_raised_errors_are_failures():
    op = {"label": "x", "kind": "cli", "check": {"kind": "singlet", "twice_s": 1}}
    assert checks.outcome(op, {"rc": 1, "error": None, "out": "", "stderr": "bad"}, None)
    assert checks.outcome(op, {"rc": 0, "error": "ValueError: x", "out": ""}, None)
    assert checks.outcome(op, {"rc": 0, "error": None, "out": "not json"}, None)


def test_closed_forms():
    assert checks.single_min(1) == pytest.approx(1.0986122886681098 - 2 * 0.6931471805599453 / 3)
    assert checks.single_min(2) == pytest.approx(0.6931471805599453)
    assert checks.singlet_probs(1) == pytest.approx([1 / 3, 2 / 3])
    assert sum(checks.singlet_probs(16)) == pytest.approx(1.0)


def _traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "cli.main"):
            output = _cli_output(argv)
    finally:
        tracer.uninstall()
    return output, tracing.layer_metrics(*tracer.take()), tracer


def test_tracing_leaves_output_unchanged_and_counts_repeat():
    argv = ["probe", "--spin", "1/2", "--restarts", "3", "--seed", "4"]
    plain = _cli_output(argv)
    first, layers_a, _ = _traced(argv)
    second, layers_b, _ = _traced(argv)
    assert first == plain == second
    merged, mismatched = tracing.combine([layers_a, layers_b])
    assert mismatched == []
    assert merged["optimize.restarts"] == 9  # two single searches and the joint one
    assert merged["channel.tensor_calls"] == 1
    assert merged["optimize.evaluations"] > 0
    assert merged["linalg.spectrum_entropy_calls"] == merged["optimize.evaluations"]


def test_singlet_trace_records_memory_and_spin_calls():
    _, layers, tracer = _traced(["singlet", "--spin", "2"])
    assert tracer.absent == []
    assert layers["invariant.peak_mb"] >= layers["channel.tensor_peak_mb"] > 0
    assert layers["spin.casimir_projectors_calls"] == 1
    assert layers["spin.total_spin_squared_calls"] > 0
    assert layers["invariant.self_s"] > 0


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    import spinchannels.optimize

    monkeypatch.delattr(spinchannels.optimize, "minimize")
    monkeypatch.delattr(spinchannels.invariant, "tensor")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert {"optimize.minimize", "invariant.tensor"} <= set(tracer.absent)
    layers = tracing.layer_metrics(*tracer.take())
    assert layers["optimize.restarts"] == 0
    assert layers["channel.tensor_calls"] == 0


def test_fails_without_printing_when_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "blocks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
