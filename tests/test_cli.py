import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import EXACT_PAIR_ENTROPY, EXACT_SINGLE_MIN, vector_from_json
from spinchannels import cli, invariant, optimize
from spinchannels.channel import KrausChannel, isotropic_channel, random_channel, save_channel
from spinchannels.cli import build_parser, main

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMinOutputCommand:
    def test_config_block_holds_what_a_caller_sets(self, capsys):
        _, out, _ = run_cli(capsys, "min-output", "--spin", "1/2", "--restarts", "2")
        assert json.loads(out)["config"] == {"restarts": 2, "seed": 0}

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "min-output", "--spin", "1", "--restarts", "8", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "min-output"
        assert payload["channel"] == {"kind": "isotropic", "spin": "1"}
        assert payload["config"]["restarts"] == 8
        assert payload["config"]["seed"] == 3
        assert abs(payload["value"] - LN2) < 1e-6
        assert LN2 - 1e-14 < payload["lower_bound"] < LN2  # ln 2 less 16 eps
        assert payload["certificate"] == "certified" and "closed_form" not in payload
        assert len(payload["restart_values"]) == 1
        argmin = vector_from_json(payload["argmin"])
        assert abs(np.linalg.norm(argmin) - 1.0) < 1e-10

    def test_csv_output(self, capsys, tmp_path):
        # a file channel runs every restart; min-output --spin stops at its certified start
        path = tmp_path / "random.json"
        save_channel(random_channel(3, 2, 5), path)
        code, out, _ = run_cli(
            capsys, "min-output", "--channel", str(path), "--restarts", "5", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,value"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)

    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "min-output", "--spin", "1/2", "--restarts", "4", "--output", "text"
        )
        assert code == 0
        assert "minimum output entropy" in out
        assert "isotropic, spin 1/2" in out
        lower = invariant.single_min_bound("1/2")
        assert f"  lower bound          {lower!r}" in out.splitlines()
        assert "  certificate          certified" in out.splitlines()

    def test_log_base_two(self, capsys):
        _, out_e, _ = run_cli(capsys, "min-output", "--spin", "1", "--restarts", "4")
        _, out_2, _ = run_cli(
            capsys, "min-output", "--spin", "1", "--restarts", "4", "--log-base", "2"
        )
        nats = json.loads(out_e)["value"]
        bits = json.loads(out_2)["value"]
        assert abs(bits - nats / LN2) < 1e-12

    def test_channel_file_source(self, capsys, tmp_path):
        path = tmp_path / "unitary.json"
        save_channel(random_channel(3, 1, seed=17), path)
        code, out, _ = run_cli(capsys, "min-output", "--channel", str(path), "--restarts", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["channel"]["kind"] == "file"
        assert abs(payload["value"]) < 1e-9
        assert payload["lower_bound"] is None and "closed_form" not in payload

    @pytest.mark.parametrize("spin", ["1/2", "1", "3/2", "2", "5/2", "3"])
    def test_every_spin_stops_at_its_certified_start(self, capsys, spin):
        for seed in (1, 2, 3):
            argv = ["min-output", "--spin", spin, "--restarts", "64", "--seed", str(seed)]
            payload = json.loads(run_cli(capsys, *argv)[1])
            assert payload["certificate"] == "certified"
            assert (len(payload["restart_values"]), payload["evaluations"]) == (1, 1)
            lower = payload["lower_bound"]
            assert lower <= payload["value"] <= lower + optimize.CERTIFIED_WIDTH
            assert "closed_form" not in payload

    def test_a_bracket_that_never_closes_runs_every_restart_bit_for_bit(
        self, capsys, monkeypatch
    ):
        """With no bracket allowed to close, min-output --spin 3/2 is the search without a bound."""
        monkeypatch.setattr(optimize, "CERTIFIED_WIDTH", -math.inf)
        argv = ["min-output", "--spin", "3/2", "--restarts", "8", "--seed", "4"]
        payload = json.loads(run_cli(capsys, *argv)[1])
        full = optimize.min_output_entropy(
            isotropic_channel("3/2"), optimize.SearchConfig(restarts=8, seed=4)
        )
        assert payload["certificate"] == "heuristic" and payload["lower_bound"] is not None
        assert payload["evaluations"] > len(payload["restart_values"]) == 8
        assert payload["value"] == full.value
        assert np.array_equal(vector_from_json(payload["argmin"]), full.argmin)
        assert payload["restart_values"] == full.restart_values
        assert payload["evaluations"] == full.evaluations
        assert payload["converged_fraction"] == full.converged_fraction

    def test_identity_channel_prints_positive_zero(self, capsys, tmp_path):
        # every output is pure, so every entropy prints as +0.0
        path = tmp_path / "identity.json"
        save_channel(KrausChannel(np.eye(2)), path)
        argv = ["--channel", str(path), "--restarts", "4", "--output", "csv"]
        for command in ("min-output", "probe"):
            code, out, _ = run_cli(capsys, command, *argv)
            assert code == 0
            assert out.splitlines()[1:] == [f"{rank},0.0" for rank in range(4)]


class TestGainCommand:
    def test_isotropic_gain_is_zero_with_reference(self, capsys):
        code, out, _ = run_cli(capsys, "gain", "--spin", "1/2", "--restarts", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"] == "certified"
        assert payload["lower_bound"] <= payload["value"] <= 1e-8
        assert "closed_form" not in payload

    def test_random_channel_without_reference(self, capsys, tmp_path):
        path = tmp_path / "channel.json"
        save_channel(random_channel(2, 3, seed=19), path)
        code, out, _ = run_cli(capsys, "gain", "--channel", str(path), "--restarts", "6")
        assert code == 0
        payload = json.loads(out)
        assert "closed_form" not in payload
        assert -LN2 - 1e-8 <= payload["value"] <= 1e-8
        assert len(payload["argmin"]) == 2

    def test_text_counts_the_legs_of_the_descent(self, capsys, tmp_path):
        """The gain's text row is `legs`; its JSON keys are those of min-output."""
        path = tmp_path / "channel.json"
        save_channel(random_channel(4, 2, seed=102), path)  # closes after its second leg
        argv = ["gain", "--channel", str(path), "--restarts", "8"]
        assert len(json.loads(run_cli(capsys, *argv)[1])["restart_values"]) == 2
        lines = run_cli(capsys, *argv, "--output", "text")[1].splitlines()
        assert "  legs                 2 (converged fraction 1.000)" in lines
        assert not any(line.startswith("  restarts") for line in lines)

    def test_the_gain_cap_stops_at_its_certified_start(self, capsys):
        """Lambda_s is unital, so restart 0 (rho = I/d) already meets the bound 0."""
        code, out, _ = run_cli(capsys, "gain", "--spin", "31.5", "--restarts", "64")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"] == "certified"
        assert payload["restart_values"] == [payload["value"]]
        assert payload["evaluations"] == 1
        assert payload["converged_fraction"] == 1.0
        assert payload["value"] - payload["lower_bound"] <= optimize.CERTIFIED_WIDTH


class TestSingletCommand:
    def test_spin_half_payload(self, capsys):
        code, out, _ = run_cli(capsys, "singlet", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["spin"] == "1/2"
        assert abs(payload["probs"][0] - 1.0 / 3.0) < 1e-10
        assert abs(payload["probs"][1] - 2.0 / 3.0) < 1e-10
        assert abs(payload["entropy"] - EXACT_PAIR_ENTROPY[1]) < 1e-10
        assert abs(payload["two_channel_reference"] - 2.0 * EXACT_SINGLE_MIN[1]) < 1e-12
        assert payload["excess"] > 0.0
        assert payload["log_base"] == "e"
        assert payload["entropy_closed_form"] == "(5/3) ln 3 - (2/3) ln 2"

    def test_closed_forms_are_printed_at_spins_half_and_one_only(self, capsys):
        code, out, _ = run_cli(capsys, "singlet", "--spin", "3/2")
        assert code == 0
        payload = json.loads(out)
        assert not [key for key in payload if key.endswith("closed_form")]
        assert payload["single_channel_min"] > 0.0 and payload["excess"] > 0.0
        assert len(payload["probs"]) == 4
        _, out, _ = run_cli(capsys, "singlet", "--spin", "3/2", "--output", "text")
        assert "closed form" not in out and out.splitlines()[-1].startswith("  excess ")

    def test_every_spin_reports_a_positive_excess(self, capsys):
        """excess = entropy - 2 single_channel_min > 0 from 2s = 1 up to 2s = 100000."""
        for twice_s in [*range(1, 41), 1000, 100000]:
            spin = str(twice_s // 2) if twice_s % 2 == 0 else f"{twice_s}/2"
            code, out, _ = run_cli(capsys, "singlet", "--spin", spin, "--output", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload["excess"] > 0.0, twice_s
            expected = payload["entropy"] - 2.0 * payload["single_channel_min"]
            assert abs(payload["excess"] - expected) <= 1e-12, twice_s
            assert payload["two_channel_reference"] == 2.0 * payload["single_channel_min"]

    def test_reader_closing_early_exits_141_without_an_error(self):
        # like `| head -c 10`: the reader stops long before the rows end
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        command = [sys.executable, "-m", "spinchannels", "singlet", "--spin", "100000"]
        proc = subprocess.Popen(
            [*command, "--output", "text"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert len(head) == 10
        assert err == b""
        assert proc.returncode == 141

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "singlet", "--spin", "1", "--output", "text")
        assert code == 0
        assert "p_0" in out
        assert "entropy" in out

    def test_csv_is_not_offered(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["singlet", "--spin", "1/2", "--output", "csv"])
        assert excinfo.value.code == 2

    def test_an_excess_at_or_below_zero_is_an_error(self, capsys, monkeypatch):
        owner = invariant.single_min_entropy
        monkeypatch.setattr(invariant, "single_min_entropy", lambda spin: owner(spin) + 1.0)
        code, out, err = run_cli(capsys, "singlet", "--spin", "1/2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "additivity reference" in err

    def test_spin_400_is_the_closed_form_in_little_memory(self, capsys):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "singlet", "--spin", "400")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        q = 1.0 / (2.0 * 400.0 * 401.0)
        expected = np.zeros(801)
        expected[:3] = (1.0 / 3.0, q, 2.0 / 3.0 - q)
        assert np.abs(np.array(json.loads(out)["probs"]) - expected).max() <= 1e-15
        assert peak < 2**20


class TestProbeCommand:
    def test_spin_half_payload(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--spin", "1/2", "--restarts", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] <= 1e-8
        assert payload["additivity_violation_candidate"] is False
        assert abs(payload["joint_min"] - payload["sum_of_singles"] - payload["gap"]) < 1e-15
        assert len(payload["schmidt_coefficients"]) == 2
        assert payload["schmidt_coefficients"][1] < 1e-3
        assert "note" in payload

    def test_text_output_mentions_subadditivity(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--spin", "1/2", "--restarts", "6", "--output", "text"
        )
        assert code == 0
        assert "no subadditivity violation detected" in out

    @pytest.mark.parametrize("spin, certificate", [("1", "certified"), ("3/2", "heuristic")])
    def test_text_rows_and_note_follow_the_joint_certificate(self, capsys, spin, certificate):
        argv = ["probe", "--spin", spin, "--restarts", "4"]
        payload = json.loads(run_cli(capsys, *argv)[1])
        lines = run_cli(capsys, *argv, "--output", "text")[1].splitlines()
        lower = payload["joint_search"]["lower_bound"]
        assert lines[4] == f"  lower bound          {'none' if lower is None else repr(lower)}"
        assert lines[5] == f"  certificate          {certificate}"
        assert payload["note"] == cli._PROBE_NOTE[certificate]
        assert lines[-1] == f"  note: {cli._PROBE_NOTE[certificate]}"

    @pytest.mark.parametrize("spin", ["1/2", "1"])
    def test_spins_half_and_one_stop_at_their_certified_start(self, capsys, spin):
        for restarts in ("64", "256") if spin == "1/2" else ("64",):
            argv = ["probe", "--spin", spin, "--restarts", restarts]
            for base in ("e", "2"):
                payload = json.loads(run_cli(capsys, *argv, "--log-base", base)[1])
                joint = payload["joint_search"]
                assert (len(joint["restart_values"]), joint["evaluations"]) == (1, 1)
                assert joint["certificate"] == "certified"
                lower, value = joint["lower_bound"], payload["joint_min"]
                assert lower <= value <= lower + optimize.CERTIFIED_WIDTH
                assert payload["additivity_violation_candidate"] is False

    def test_every_spin_stops_its_single_search_at_the_certified_start(self, capsys, monkeypatch):
        probe, reports = cli.additivity_probe, []

        def recorded(*args):
            reports.append(probe(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "additivity_probe", recorded)
        for spin in ("1/2", "1", "3/2", "2", "5/2", "3"):
            assert run_cli(capsys, "probe", "--spin", spin, "--restarts", "8")[0] == 0
            single = reports[-1].single_a
            assert (single.certificate, single.evaluations) == ("certified", 1), spin

    def test_a_bracket_that_never_closes_runs_every_restart_bit_for_bit(
        self, capsys, monkeypatch
    ):
        """With no bracket allowed to close, probe --spin 1 is the search without bounds."""
        monkeypatch.setattr(optimize, "CERTIFIED_WIDTH", -math.inf)
        argv = ["probe", "--spin", "1", "--restarts", "8", "--seed", "4"]
        payload = json.loads(run_cli(capsys, *argv)[1])
        one = isotropic_channel("1")
        full = optimize.additivity_probe(one, one, optimize.SearchConfig(restarts=8, seed=4))
        joint = payload["joint_search"]
        assert joint["certificate"] == "heuristic" and joint["lower_bound"] is not None
        assert joint["evaluations"] > len(joint["restart_values"]) == 8
        assert payload["single_values"] == [full.single_a.value, full.single_b.value]
        assert payload["joint_min"] == full.joint.value
        assert np.array_equal(vector_from_json(payload["argmin"]), full.joint.argmin)
        assert joint["restart_values"] == full.joint.restart_values
        assert joint["evaluations"] == full.joint.evaluations
        assert joint["converged_fraction"] == full.joint.converged_fraction

    def test_past_spin_one_the_joint_search_is_the_bound_free_one(self, capsys):
        """At 2s >= 3 only the single searches take a bound; the joint search runs as without."""
        three_halves = isotropic_channel("3/2")
        for seed in range(4):
            argv = ["probe", "--spin", "3/2", "--restarts", "8", "--seed", str(seed)]
            joint = json.loads(run_cli(capsys, *argv)[1])["joint_search"]
            config = optimize.SearchConfig(restarts=8, seed=seed)
            full = optimize.additivity_probe(three_halves, three_halves, config).joint
            assert joint["restart_values"] == full.restart_values
            assert joint["evaluations"] == full.evaluations

    def test_a_joint_bound_above_the_value_is_an_error(self, capsys, monkeypatch):
        """A wrong joint bound cannot pass: `bracket` raises and the probe exits 1."""
        bound = cli.joint_min_bound
        monkeypatch.setattr(cli, "joint_min_bound", lambda spin: bound(spin) + 1.0)
        code, out, err = run_cli(capsys, "probe", "--spin", "1", "--restarts", "4")
        assert (code, out) == (1, "")
        assert err.startswith("error: value") and "is below its lower bound" in err

    def test_a_joint_minimum_below_the_singles_is_flagged(self, capsys, monkeypatch):
        probe = cli.additivity_probe

        def undercut(*args):
            report = probe(*args)
            return replace(report, joint=replace(report.joint, value=report.joint.value - 1e-6))

        monkeypatch.setattr(cli, "additivity_probe", undercut)
        argv = ["probe", "--spin", "1/2", "--restarts", "4"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["additivity_violation_candidate"] is True
        assert payload["gap"] < -1e-8
        code, out, _ = run_cli(capsys, *argv, "--output", "text")
        assert code == 0
        assert "  ADDITIVITY VIOLATION CANDIDATE: the joint search undercut" in out
        assert "no subadditivity violation detected" not in out

    def test_a_one_point_input_runs_one_restart(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        save_channel(KrausChannel(np.full((2, 3, 1), 1.0 / math.sqrt(6.0))), path)
        argv = ["--channel", str(path), "--restarts", "5"]
        code, out, _ = run_cli(capsys, "probe", *argv)
        assert code == 0
        joint = json.loads(out)["joint_search"]
        assert joint["evaluations"] == 1
        assert len(joint["restart_values"]) == 1
        code, out, _ = run_cli(capsys, "min-output", *argv, "--output", "text")
        assert code == 0
        assert "  restarts             1 (converged fraction 1.000)" in out.splitlines()
        assert "  evaluations          1" in out.splitlines()


class TestVerifyCommand:
    @staticmethod
    def failing_rows(out):
        return [line for line in out.splitlines() if line.endswith("FAIL")]

    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        *rows, summary = out.splitlines()
        assert [row.split("  ")[0] for row in rows] == [
            "optimize: search recovers the known closed-form minima",
            "optimize: repeated searches are bit-identical",
            "invariant: decohered singlet excess equals its closed form",
            "optimize: the minimum entropy gain adds on a seeded pair (certified bracket)",
        ]
        assert summary == "4/4 checks passed"
        assert "FAIL" not in out

    @pytest.mark.parametrize("twice_s", [2, 5])
    @pytest.mark.parametrize("wrong", ["search", "owner"])
    def test_an_off_closed_form_fails_its_row(self, capsys, monkeypatch, wrong, twice_s):
        """A search or a single_min_entropy value 1e-3 off at one spin fails the first row."""
        search, owner = optimize.min_output_entropy, invariant.single_min_entropy

        def off_search(channel, config=None):
            report = search(channel, config)
            if channel.dim_in == twice_s + 1:
                report = replace(report, value=report.value + 1e-3)
            return report

        def off_owner(label):
            return owner(label) + (1e-3 if label.twice_s == twice_s else 0.0)

        if wrong == "search":
            monkeypatch.setattr(optimize, "min_output_entropy", off_search)
        else:
            monkeypatch.setattr(invariant, "single_min_entropy", off_owner)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        [row] = self.failing_rows(out)
        assert "closed-form minima" in row
        assert "3/4 checks passed" in out

    def test_one_owner_feeds_verify_and_singlet(self, capsys, monkeypatch):
        """A single_min_entropy 1e-3 high at spin 1 fails verify and moves singlet's fields."""
        _, before, _ = run_cli(capsys, "singlet", "--spin", "1")
        owner = invariant.single_min_entropy
        monkeypatch.setattr(invariant, "single_min_entropy", lambda spin: owner(spin) + 1e-3)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        [row] = self.failing_rows(out)
        assert "closed-form minima" in row
        _, after, _ = run_cli(capsys, "singlet", "--spin", "1")
        before, after = json.loads(before), json.loads(after)
        assert abs(after["single_channel_min"] - before["single_channel_min"] - 1e-3) < 1e-12
        assert abs(after["excess"] - before["excess"] + 2e-3) < 1e-12

    def test_a_nondeterministic_search_fails_its_row(self, capsys, monkeypatch):
        search = optimize.min_output_entropy
        rerun_calls = []

        def drifting(channel, config=None):
            report = search(channel, config)
            if channel.dim_in == 4:  # spin 3/2, the rerun search
                rerun_calls.append(channel)
                if len(rerun_calls) == 2:
                    report = replace(report, value=math.nextafter(report.value, math.inf))
            return report

        monkeypatch.setattr(optimize, "min_output_entropy", drifting)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        [row] = self.failing_rows(out)
        assert "bit-identical" in row
        assert "3/4 checks passed" in out

    def test_a_non_additive_gain_fails_its_row(self, capsys, monkeypatch):
        search = optimize.min_entropy_gain

        def shifted(channel, config=None):
            report = search(channel, config)
            if channel.dim_in == 4:  # the product of the two qubit channels
                report = replace(report, value=report.value + 1e-6)
            return report

        monkeypatch.setattr(optimize, "min_entropy_gain", shifted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        [row] = self.failing_rows(out)
        assert "entropy gain adds" in row
        assert "3/4 checks passed" in out

    def test_an_off_excess_fails_its_row(self, capsys, monkeypatch):
        report = invariant.singlet_decoherence

        def off(spin):
            found = report(spin)
            return replace(found, excess=found.excess + 1e-3) if found.spin.twice_s == 1 else found

        monkeypatch.setattr(invariant, "singlet_decoherence", off)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        [row] = self.failing_rows(out)
        assert "singlet excess" in row
        assert "3/4 checks passed" in out


class TestDeterminism:
    def test_identical_flags_identical_bytes(self, capsys, tmp_path):
        # at spin 1 the search stops at its certified start; on the d = 3 file the
        # L-BFGS steps of every restart are rerun too
        path = tmp_path / "random.json"
        save_channel(random_channel(3, 2, 5), path)
        for source in (["--spin", "1"], ["--channel", str(path)]):
            argv = ["min-output", *source, "--restarts", "6", "--seed", "11"]
            _, first, _ = run_cli(capsys, *argv)
            _, second, _ = run_cli(capsys, *argv)
            assert first == second
        assert json.loads(first)["evaluations"] > len(json.loads(first)["restart_values"])

    def test_singlet_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "singlet", "--spin", "1")
        _, second, _ = run_cli(capsys, "singlet", "--spin", "1")
        assert first == second


class TestParserReuse:
    """main parses with one parser per process, built by the first caller."""

    def test_build_parser_returns_one_shared_parser(self):
        assert build_parser() is build_parser()

    def test_a_second_call_constructs_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        run_cli(capsys, "singlet", "--spin", "1")
        assert len(built) == 6  # the top-level parser and its five subcommands
        built.clear()
        run_cli(capsys, "singlet", "--spin", "3/2")
        run_cli(capsys, "verify")
        assert built == []

    def test_error_exits_leave_later_output_unchanged(self, capsys):
        calls = [
            ["min-output", "--spin", "1", "--restarts", "3", "--seed", "2"],
            ["gain", "--spin", "1/2", "--restarts", "2", "--output", "csv", "--log-base", "2"],
            ["probe", "--spin", "1/2", "--restarts", "2", "--output", "text"],
            ["singlet", "--spin", "1", "--output", "text", "--log-base", "2"],
            ["singlet", "--spin", "7/2"],
        ]
        first = [run_cli(capsys, *argv) for argv in calls]
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "1", "--no-such-flag"])
        assert excinfo.value.code == 2
        assert run_cli(capsys, "min-output", "--spin", "0")[0] == 1
        for index in (3, 0, 4, 2, 1):
            assert run_cli(capsys, *calls[index]) == first[index]

    @pytest.mark.parametrize("argv", [["--help"], ["probe", "--help"], ["singlet", "--help"]])
    def test_help_text_matches_a_freshly_built_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parse in (build_parser.__wrapped__().parse_args, main, main):
            with pytest.raises(SystemExit) as excinfo:
                parse(argv)
            assert excinfo.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: spinchannels")
        assert texts[1] == texts[0] and texts[2] == texts[0]


class TestErrorHandling:
    def test_invalid_spin_is_a_flag_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "1/3"])
        assert excinfo.value.code == 2

    def test_missing_source_is_a_flag_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output"])
        assert excinfo.value.code == 2

    def test_spin_and_channel_together_is_a_flag_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "1", "--channel", str(tmp_path / "x.json")])
        assert excinfo.value.code == 2

    def test_bad_restarts_is_a_flag_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "1", "--restarts", "0"])
        assert excinfo.value.code == 2

    def test_tolerance_is_an_unrecognised_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "1", "--tolerance", "1e-9"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tolerance", "--restarts", "--seed"])
    def test_unparsable_number_is_a_readable_flag_error(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["gain", "--spin", "1/2", flag, "abc"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        for name in ("invalid", "_tolerance", "_positive_int", "_nonnegative_int"):
            assert name not in err

    @pytest.mark.parametrize("tolerance", ["inf", "1e999", "nan"])
    def test_non_finite_tolerance_is_a_flag_error(self, capsys, tolerance):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "3/2", "--restarts", "4", "--tolerance", tolerance])
        assert excinfo.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_spin_zero_is_a_contract_error(self, capsys):
        code, _, err = run_cli(capsys, "min-output", "--spin", "0")
        assert code == 1
        assert "spin 0" in err

    def test_malformed_channel_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "min-output", "--channel", str(path))
        assert code == 1
        assert "malformed" in err

    def test_missing_channel_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "min-output", "--channel", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err

    def test_non_trace_preserving_channel_file(self, capsys, tmp_path):
        payload = {
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
        }
        path = tmp_path / "leaky.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "min-output", "--channel", str(path))
        assert code == 1
        assert "residual" in err


class TestBadInputFailsCleanly:
    def test_nan_channel_file(self, capsys, tmp_path):
        payload = {
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [[[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "gain", "--channel", str(path), "--restarts", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_oversized_singlet_allocates_nothing_large(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "singlet", "--spin", "2000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "GiB" in err
        assert "Traceback" not in err
        assert peak < 2**20


_FAST_ARGS = {
    "min-output": ["--spin", "1", "--restarts", "3", "--seed", "2"],
    "gain": ["--spin", "1/2", "--restarts", "3", "--seed", "2"],
    "probe": ["--spin", "1/2", "--restarts", "3", "--seed", "2"],
    "singlet": ["--spin", "1"],
}
_TITLES = {
    "min-output": "minimum output entropy",
    "gain": "minimum entropy gain",
    "probe": "additivity probe (two copies in parallel)",
    "singlet": "decohered singlet block decomposition",
}
_NOTE_LINES = {"probe": 2}  # free-text lines after the aligned rows
# Payload paths of every entropy a command prints; the rest are not in log units.
_ENTROPY_PATHS = [
    ("value",),
    ("restart_values",),
    ("joint_min",),
    ("single_values",),
    ("joint_search", "restart_values"),
    ("lower_bound",),
    ("entropy",),
    ("single_channel_min",),
    ("two_channel_reference",),
    ("excess",),
]
_TEXT_ROW = re.compile(r"  \S.{19} \S")  # two spaces, a 20-wide label, one space, the value


def _entropy_field(payload, path):
    for key in path:
        payload = payload.get(key) if isinstance(payload, dict) else None
    return payload


def _assert_bits_are_converted_nats(capsys, argv, bits):
    """Every entropy at --log-base 2 is the base-e value divided by ln 2, exactly."""
    _, out, _ = run_cli(capsys, *argv[:-1], "e")
    nats = json.loads(out)
    checked = 0
    for path in _ENTROPY_PATHS:
        value = _entropy_field(nats, path)
        if value is not None:
            expected = [v / LN2 for v in value] if isinstance(value, list) else value / LN2
            assert _entropy_field(bits, path) == expected, path
            checked += 1
    assert checked >= 3
    if "gap" in bits:
        assert bits["sum_of_singles"] == sum(bits["single_values"])
        assert bits["gap"] == bits["joint_min"] - bits["sum_of_singles"]


def _subcommands() -> dict:
    """The shared parser's subcommand parsers, by name."""
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return commands.choices


def _output_pairs():
    """Every (command, --output) pair the parser accepts, at both log bases."""
    for name, sub in _subcommands().items():
        for action in sub._actions:
            if action.dest == "output":
                for fmt in action.choices:
                    yield from ((name, fmt, base) for base in ("e", "2"))


def test_search_settings_are_restarts_and_seed():
    """SearchConfig's two fields are the search flags, each defaulting as its field does."""
    assert [field.name for field in dataclasses.fields(optimize.SearchConfig)] == [
        "restarts",
        "seed",
    ]
    for name in ("min-output", "gain", "probe"):
        sub = _subcommands()[name]
        flags = [flag for action in sub._actions for flag in action.option_strings]
        assert [flag for flag in flags if flag not in ("-h", "--help")] == [
            "--spin",
            "--channel",
            "--restarts",
            "--seed",
            "--log-base",
            "--output",
        ], name
        args = sub.parse_args(["--spin", "1"])
        assert (args.restarts, args.seed) == (64, 0) == dataclasses.astuple(optimize.SearchConfig())


@pytest.mark.parametrize("command, fmt, base", list(_output_pairs()))
def test_every_output_format(capsys, command, fmt, base):
    argv = [command, *_FAST_ARGS[command], "--log-base", base]
    code, out, _ = run_cli(capsys, *argv, "--output", fmt)
    assert code == 0
    if fmt == "json":
        payload = json.loads(out)
        assert payload["command"] == command
        assert payload["log_base"] == base
        if base == "2":
            _assert_bits_are_converted_nats(capsys, argv, payload)
    elif fmt == "csv":
        _, json_out, _ = run_cli(capsys, *argv)
        payload = json.loads(json_out)
        search = payload.get("joint_search", payload)
        lines = out.splitlines()
        assert lines[0] == "rank,value"
        # a certified search stopped after restart 0; any other ran every restart
        ran = 1 if search["certificate"] == "certified" else payload["config"]["restarts"]
        assert len(lines) == 1 + ran
        assert [float(line.split(",")[1]) for line in lines[1:]] == search["restart_values"]
    else:
        lines = out.splitlines()
        assert lines[0] == _TITLES[command]
        notes = _NOTE_LINES.get(command, 0)
        rows = lines[1 : len(lines) - notes]
        assert rows and all(_TEXT_ROW.match(row) for row in rows), rows
        assert all(re.match(r"  \S", note) for note in lines[len(lines) - notes :])


def test_pure_state_searches_claim_no_bound(capsys, tmp_path):
    """A pure-state search is bounded by `single_min_bound` (min-output --spin), by
    `joint_min_bound` (probe --spin 1/2 and 1) and by nothing else."""
    path = tmp_path / "random.json"
    save_channel(random_channel(3, 2, 5), path)
    file = ["--channel", str(path)]
    for command, source in (("min-output", file), ("probe", ["--spin", "3/2"]), ("probe", file)):
        _, out, _ = run_cli(capsys, command, *source, "--restarts", "3")
        payload = json.loads(out)
        search = payload.get("joint_search", payload)
        assert (search["lower_bound"], search["certificate"]) == (None, "heuristic")
    for spin in ("1/2", "1"):
        _, out, _ = run_cli(capsys, "probe", "--spin", spin, "--restarts", "3")
        payload = json.loads(out)
        search, value = payload["joint_search"], payload["joint_min"]
        assert search["certificate"] == "certified"
        assert search["lower_bound"] <= value <= search["lower_bound"] + optimize.CERTIFIED_WIDTH
    _, out, _ = run_cli(capsys, "min-output", *_FAST_ARGS["min-output"])
    assert json.loads(out)["certificate"] == "certified"
    _, out, _ = run_cli(capsys, "min-output", "--spin", "3/2", "--restarts", "3")
    payload = json.loads(out)
    assert payload["certificate"] == "certified"
    assert payload["lower_bound"] <= payload["value"] <= payload["lower_bound"] + 1e-6


def test_every_search_brackets_its_value_at_seeds_0_to_19(capsys, tmp_path):
    """A bound never lies above its value, and "heuristic" means no bound or an open bracket."""
    path = tmp_path / "random.json"
    save_channel(random_channel(3, 2, 5), path)
    file = ["--channel", str(path)]
    runs = [("min-output", ["--spin", spin]) for spin in ("1/2", "1", "3/2", "2", "5/2", "3")]
    runs += [("min-output", file), ("gain", ["--spin", "1"]), ("gain", file)]
    runs += [("probe", ["--spin", spin]) for spin in ("1/2", "1", "3/2")] + [("probe", file)]
    for seed in range(20):
        for command, source in runs:
            code, out, _ = run_cli(capsys, command, *source, "--restarts", "4", "--seed", str(seed))
            assert code == 0
            payload = json.loads(out)
            search = payload.get("joint_search", payload)
            value, lower = payload.get("joint_min", payload.get("value")), search["lower_bound"]
            assert lower is None or lower <= value + 1e-12, (command, source, seed)
            open_bracket = lower is None or value - lower > optimize.CERTIFIED_WIDTH
            assert (search["certificate"] == "heuristic") == open_bracket, (command, source, seed)


class TestToleranceUpperBound:
    """No tolerance reaches the search: the gradient stop is the constant optimize._GRADIENT_TOL."""

    @pytest.mark.parametrize("tolerance", ["1e300", "1", "0.0011"])
    def test_tolerance_above_the_bound_is_a_flag_error(self, capsys, tolerance):
        with pytest.raises(SystemExit) as excinfo:
            main(["min-output", "--spin", "3/2", "--restarts", "4", "--tolerance", tolerance])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--tolerance" in err
        assert "unrecognized arguments" in err


def test_malformed_channel_files_fail_with_a_reason(capsys, tmp_path):
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    string_entry = [[[["x", 0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
    null_entry = [[[[None, 0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
    two_shapes = [identity, [[[1.0, 0.0]]]]
    huge_entry = [[[[10**400, 0]]]]
    # past 4300 digits json.load itself refuses the integer
    endless_entry = '{"dim_in": 1, "dim_out": 1, "kraus": [[[[1%s, 0]]]]}' % ("0" * 5000)
    long_pair = [[[list(range(5000))]]]
    files = {
        "string-entry.json": json.dumps({"dim_in": 2, "dim_out": 2, "kraus": string_entry}),
        "null-entry.json": json.dumps({"dim_in": 2, "dim_out": 2, "kraus": null_entry}),
        "word-dim.json": json.dumps({"dim_in": "two", "dim_out": 2, "kraus": [identity]}),
        "latin-1.json": b'{"dim_in": 2, "dim_out": 2, "name": "caf\xe9"}',
        "list.json": json.dumps([identity]),
        "no-kraus.json": json.dumps({"dim_in": 2, "dim_out": 2, "kraus": []}),
        "two-shapes.json": json.dumps({"dim_in": 2, "dim_out": 2, "kraus": two_shapes}),
        "empty-row.json": json.dumps({"dim_in": 1, "dim_out": 1, "kraus": [[[]]]}),
        "huge-entry.json": json.dumps({"dim_in": 1, "dim_out": 1, "kraus": huge_entry}),
        "endless-entry.json": endless_entry,
        "long-pair.json": json.dumps({"dim_in": 1, "dim_out": 1, "kraus": long_pair}),
    }
    reasons = {
        "list.json": "must be a JSON object",
        "no-kraus.json": "nonempty list",
        "two-shapes.json": "inconsistent shapes",
        "empty-row.json": "nonempty lists",
        "huge-entry.json": "too large",
        "endless-entry.json": "an integer entry has more than 4,300 digits",
        "long-pair.json": "[re, im] pairs",
    }
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, _, err = run_cli(capsys, "gain", "--channel", str(path), "--restarts", "1")
        assert code == 1, name
        assert err.startswith("error: "), (name, err)
        assert "Traceback" not in err, name
        assert reasons.get(name, "") in err, (name, err)
        assert "set_int_max_str_digits" not in err, name  # the reason is ours, not the interpreter's
        # an offending entry is echoed in short, however long it is; the path is the caller's
        lines = err.replace(str(path), "PATH").splitlines()
        assert all(len(line) < 200 for line in lines), (name, len(err))


def test_channel_files_with_look_alike_numbers_fail_with_a_reason(capsys, tmp_path):
    files = {
        "bool-entry-float-dim.json": {
            "dim_in": 2.9, "dim_out": 2, "kraus": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]],
        },
        "string-entry.json": {
            "dim_in": 2, "dim_out": 2, "kraus": [[[["1", 0], [0, 0]], [[0, 0], [1, 0]]]],
        },
    }
    for name, payload in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "gain", "--channel", str(path), "--restarts", "1")
        assert code == 1, name
        assert out == ""
        assert err.startswith("error: "), (name, err)
        assert "Traceback" not in err, name


def _run_under_tracemalloc(capsys, *argv):
    """Exit code, stdout, stderr, traced peak bytes and wall seconds of one CLI call."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, err, peak, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv",
    [
        ["gain", "--spin", "1000", "--restarts", "64"],
        ["min-output", "--spin", "1e400"],
        ["probe", "--spin", "1e5000", "--output", "text"],
        ["min-output", "--spin", "100", "--restarts", "2000000"],
    ],
    ids=["gain-spin-1000", "min-output-spin-1e400", "probe-spin-1e5000", "min-output-restarts"],
)
def test_oversized_searches_exit_before_building_anything(capsys, argv):
    code, out, err, peak, seconds = _run_under_tracemalloc(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "GiB" in err and len(err) < 200
    assert "Traceback" not in err
    assert peak < 2**20
    assert seconds < 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["min-output", "--spin", "2000"], "min-output searches a 4001-dimensional input"),
        (["probe", "--spin", "20", "--restarts", "64"], "probe searches a 1681-dimensional input"),
        # the gain's largest array is one row, whatever its number of legs
        (["gain", "--spin", "100", "--restarts", "2000000"], "gain searches a 201-dimensional"),
    ],
    ids=["min-output-spin-2000", "probe-spin-20", "gain-restarts"],
)
def test_searches_past_the_dimension_cap_exit_at_once(capsys, argv, message):
    """Each fits the memory cap, but would run for many seconds to minutes."""
    code, out, err, peak, seconds = _run_under_tracemalloc(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}") and "-dimension cap" in err and len(err) < 200
    assert peak < 2**20
    assert seconds < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["min-output", "--spin", "199.5", "--restarts", "640"],
        ["probe", "--spin", "1/2", "--restarts", "4097"],
        ["gain", "--spin", "31.5", "--restarts", "65"],
    ],
    ids=["min-output-cap-640", "probe-spin-half-4097", "gain-cap-65"],
)
def test_searches_past_the_restart_budget_exit_at_once(capsys, argv):
    """Each fits both caps; the first took 58 s before the restart budget."""
    code, out, err, peak, seconds = _run_under_tracemalloc(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {argv[0]} with") and "restart budget" in err
    assert len(err) < 200
    assert peak < 2**20
    assert seconds < 1.0


def test_probe_builds_no_product_kraus_stack(capsys):
    """The joint search applies the two factors one at a time.

    The 9 x 289 x 289 product Kraus stack alone would take 11.5 MiB at spin 8.
    """
    argv = ["probe", "--spin", "8", "--restarts", "2"]
    code, out, _, peak, _ = _run_under_tracemalloc(capsys, *argv)
    assert code == 0
    assert json.loads(out)["joint_search"]["restart_values"]
    assert peak < 4 * 2**20


@pytest.mark.parametrize("spin", ["1e40", "1e400", "1e5000"])
def test_astronomical_singlet_spins_exit_with_the_size(capsys, spin):
    code, out, err, peak, _ = _run_under_tracemalloc(capsys, "singlet", "--spin", spin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "GiB" in err and len(err) < 200
    assert peak < 2**20


def test_oversized_channel_file_is_rejected_after_loading(capsys, tmp_path, monkeypatch):
    path = tmp_path / "d3.json"
    save_channel(random_channel(3, 2, seed=0), path)
    # a cap below this file's Kraus stack stands in for a file too large to search
    monkeypatch.setattr("spinchannels.optimize.SEARCH_BYTE_CAP", 100)
    code, out, err = run_cli(capsys, "gain", "--channel", str(path), "--restarts", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: gain of a 3-dimensional input needs about") and "GiB" in err


_FORM_TERM = re.compile(r"([+-]?) ?(?:\((\d+)/(\d+)\) )?(ln|log2) ?\(?(\d+)(?:/(\d+))?\)?")
_LOGS = {"ln": math.log, "log2": math.log2}


def _closed_form_value(form):
    """A printed closed form, a sum of terms like '- (2/3) log2 2' or '(1/3) ln(4/3)', in its base."""
    assert _FORM_TERM.sub("", form).strip() == "", form
    total = 0.0
    for sign, num, den, log, arg_num, arg_den in _FORM_TERM.findall(form):
        coefficient = (-1.0 if sign == "-" else 1.0) * int(num or 1) / int(den or 1)
        total += coefficient * _LOGS[log](int(arg_num) / int(arg_den or 1))
    return total


def _base_two_forms(capsys, spin):
    """(closed form, value printed beside it) pairs of `singlet` at --log-base 2, json and text."""
    argv = ["singlet", "--spin", spin, "--log-base", "2"]
    payload = json.loads(run_cli(capsys, *argv)[1])
    text = run_cli(capsys, *argv, "--output", "text")[1].splitlines()[1:]
    rows = {line[2:22].strip(): line[23:] for line in text}
    value, form = re.fullmatch(r"(\S+)  \((.*)\)", rows["excess"]).groups()
    keys = ("entropy", "single_channel_min", "excess")
    pairs = [(payload[f"{key}_closed_form"], payload[key]) for key in keys]
    return pairs + [(rows["entropy closed form"], float(rows["entropy"])), (form, float(value))]


@pytest.mark.parametrize("spin", ["1/2", "1"])
def test_base_two_closed_forms_equal_the_values_beside_them(capsys, spin):
    for form, value in _base_two_forms(capsys, spin):
        assert abs(_closed_form_value(form) - value) < 1e-15, (form, value)
