"""Command line interface.

Subcommands
-----------
min-output   search for the minimum output entropy over pure inputs
gain         search for the minimum entropy gain over input states
singlet      block decomposition of the doubly decohered singlet
probe        joint-versus-single minimum output entropy for two copies
verify       check the paper's three claims: closed forms, singlet excess, gain additivity

Exit codes: 0 on success, 1 when a computation rejects its input (bad channel
file, contract violation, internal cross-check failure), 2 for unusable
flags, 141 when the reader closes stdout early (as `| head` does). JSON
output is deterministic byte for byte at fixed flags: keys are sorted and
every random draw is seeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields

from .channel import isotropic_channel, load_channel
from .invariant import joint_min_bound, single_min_bound, singlet_decoherence
from .linalg import ConsistencyError, ContractViolation, matrix_to_json, vector_to_json
from .optimize import (
    SearchConfig,
    additivity_probe,
    check_search_size,
    min_entropy_gain,
    min_output_entropy,
)
from .spin import SpinLabel
from .verify import format_table, run_checks

_GAP_ALERT = 1e-8
_PROBE_NOTE = {  # by the joint search's certificate
    "heuristic": "heuristic search evidence; a zero gap is not a proof of additivity",
    "certified": "certified joint bracket; a zero gap shows additivity to its width",
}
_SEARCH_HELP = {
    "restarts": "most restarts of a min-output or probe search, stopped after the first once"
    " a certified bracket of --spin closes; for gain, most legs of its one descent, stopped"
    " once its certified bracket closes (default %(default)s)",
    "seed": "seed of min-output's and probe's Haar starts; gain draws none (default %(default)s)",
}
# The library reports nats; a value is divided by its --log-base entry when printed.
_LOG_DIVISOR = {"e": 1.0, "2": math.log(2.0)}
# The closed forms `singlet` prints at spins 1/2 and 1, by 2s and payload key (log2 for ln
# at base 2).
_CLOSED_FORMS = {
    1: {
        "entropy": "(5/3) ln 3 - (2/3) ln 2",
        "single_channel_min": "ln 3 - (2/3) ln 2",
        "excess": "(1/3) ln(4/3)",
    },
    2: {
        "entropy": "ln 3 + (4/3) ln 2",
        "single_channel_min": "ln 2",
        "excess": "ln 3 - (2/3) ln 2",
    },
}


def _spin_argument(text: str) -> SpinLabel:
    try:
        return SpinLabel.from_string(text)
    except ContractViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config_value(field: str):
    """Integer flag parser for one SearchConfig field, validated by SearchConfig itself."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            SearchConfig(**{field: value})
        except ContractViolation as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared after it.

    Every caller, `main` included, gets the same object, so callers must not
    mutate it: parse with it, or read it, and nothing else.
    """
    parser = argparse.ArgumentParser(
        prog="spinchannels",
        description="entropy analysis of rotationally invariant spin channels",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_source(sub):
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--spin",
            type=_spin_argument,
            help="isotropic channel for this spin (e.g. 1/2, 1, 3/2)",
        )
        group.add_argument(
            "--channel", metavar="PATH", help="JSON file holding an explicit Kraus channel"
        )

    def add_search(sub):
        # one flag per SearchConfig field (--restarts, --seed), defaulting as the field does
        for field in fields(SearchConfig):
            sub.add_argument(
                f"--{field.name}",
                type=_config_value(field.name),
                default=field.default,
                help=_SEARCH_HELP[field.name],
            )

    def add_output(sub, formats=("json", "csv", "text")):
        sub.add_argument("--log-base", choices=tuple(_LOG_DIVISOR), default="e")
        sub.add_argument("--output", choices=formats, default="json")

    sub = commands.add_parser(
        "min-output", help="search for the minimum output entropy over pure inputs"
    )
    add_source(sub)
    add_search(sub)
    add_output(sub)
    sub.set_defaults(func=_cmd_min_output)

    sub = commands.add_parser(
        "gain", help="search for the minimum entropy gain over input states"
    )
    add_source(sub)
    add_search(sub)
    add_output(sub)
    sub.set_defaults(func=_cmd_gain)

    sub = commands.add_parser(
        "singlet", help="decompose the doubly decohered singlet into total-spin blocks"
    )
    sub.add_argument("--spin", type=_spin_argument, required=True)
    # csv is reserved for restart sweeps; the singlet report is a single record
    add_output(sub, formats=("json", "text"))
    sub.set_defaults(func=_cmd_singlet)

    sub = commands.add_parser(
        "probe",
        help="compare the joint minimum output entropy of two copies against the sum of singles",
    )
    add_source(sub)
    add_search(sub)
    add_output(sub)
    sub.set_defaults(func=_cmd_probe)

    sub = commands.add_parser(
        "verify",
        help="check the paper's closed-form minima, singlet excess and gain additivity",
    )
    sub.set_defaults(func=_cmd_verify)

    return parser


def _search_head(args, command: str):
    """Shared front end of the search commands.

    Resolves the channel and the search config and returns them with the
    payload head and the text head rows that every search result starts with.
    """
    if args.spin is not None:
        # the channel's size follows from the spin: check it before building anything
        d = args.spin.dimension
        check_search_size(command, args.restarts, (3, d, d))
        channel = isotropic_channel(args.spin)
        descriptor = {"kind": "isotropic", "spin": str(args.spin)}
        described = f"isotropic, spin {args.spin}"
    else:
        channel = load_channel(args.channel)
        descriptor = {"kind": "file", "path": args.channel}
        described = f"file {args.channel}"
    config = SearchConfig(restarts=args.restarts, seed=args.seed)
    payload = {
        "command": command,
        "channel": descriptor,
        "config": asdict(config),
        "log_base": args.log_base,
    }
    return channel, config, payload, [("channel", described), ("log base", args.log_base)]


def _emit(args, title: str, payload: dict, rows, restart_values=(), notes=()) -> int:
    """Print one result in the requested format and return exit status 0.

    json is the sorted-key payload, csv ranks the restart values, and text is
    the title, one aligned row per (label, value) pair, then the note lines.
    """
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.output == "csv":
        print("rank,value")
        for rank, value in enumerate(restart_values):
            print(f"{rank},{value!r}")
    else:
        lines = [title, *(f"  {label:<20} {value}" for label, value in rows)]
        print("\n".join(lines + [f"  {note}" for note in notes]))
    return 0


def _restart_record(report, divisor: float) -> dict:
    """A search's restart values and lower bound in the printed unit, its converged
    fraction, evaluations and certificate."""
    lower = report.lower_bound
    return {
        "restart_values": [v / divisor for v in report.restart_values],
        "converged_fraction": report.converged_fraction,
        "evaluations": report.evaluations,
        "lower_bound": None if lower is None else lower / divisor,
        "certificate": report.certificate,
    }


def _bracket_rows(record: dict) -> list:
    """The lower bound and certificate rows of a `_restart_record`."""
    lower, certificate = record["lower_bound"], record["certificate"]
    return [("lower bound", "none" if lower is None else repr(lower)), ("certificate", certificate)]


def _emit_search(args, title, payload, rows, report) -> int:
    """Rows and payload fields shared by min-output and gain."""
    divisor = _LOG_DIVISOR[args.log_base]
    payload.update(value=report.value / divisor, **_restart_record(report, divisor))
    rows.append(("value", repr(payload["value"])))
    # fewer than asked for on a one-point input space, or where a certificate closed the search
    label = "legs" if payload["command"] == "gain" else "restarts"
    ran = len(report.restart_values)
    rows.append((label, f"{ran} (converged fraction {report.converged_fraction:.3f})"))
    rows.append(("evaluations", report.evaluations))
    rows += _bracket_rows(payload)
    return _emit(args, title, payload, rows, payload["restart_values"])


def _cmd_min_output(args) -> int:
    channel, config, payload, rows = _search_head(args, "min-output")
    bound = None if args.spin is None else single_min_bound(args.spin)
    report = min_output_entropy(channel, config, bound)
    payload["argmin"] = vector_to_json(report.argmin)
    return _emit_search(args, "minimum output entropy", payload, rows, report)


def _cmd_gain(args) -> int:
    channel, config, payload, rows = _search_head(args, "gain")
    report = min_entropy_gain(channel, config)
    payload["argmin"] = matrix_to_json(report.argmin)
    return _emit_search(args, "minimum entropy gain", payload, rows, report)


def _cmd_singlet(args) -> int:
    label = args.spin
    divisor = _LOG_DIVISOR[args.log_base]
    report = singlet_decoherence(label)
    entropy = report.entropy / divisor
    reference = 2.0 * report.single_channel_min / divisor
    excess = report.excess / divisor
    payload = {
        "command": "singlet",
        "spin": str(label),
        "probs": list(report.probs),
        "entropy": entropy,
        "log_base": args.log_base,
        "single_channel_min": report.single_channel_min / divisor,
        "two_channel_reference": reference,
        "excess": excess,
    }
    rows = [("spin", label), ("log base", args.log_base)]
    if args.output == "text":  # json never prints these rows: 2 x 10^6 strings at 2s = 10^6
        rows += [(f"p_{j}", repr(p)) for j, p in enumerate(report.probs)]
    rows.append(("entropy", repr(entropy)))
    excess_row = repr(excess)
    if label.twice_s in _CLOSED_FORMS:
        log = "ln" if args.log_base == "e" else "log2"
        forms = {q: t.replace("ln", log) for q, t in _CLOSED_FORMS[label.twice_s].items()}
        payload.update({f"{key}_closed_form": form for key, form in forms.items()})
        rows.append(("entropy closed form", forms["entropy"]))
        excess_row += f"  ({forms['excess']})"
    rows += [("2 x single minimum", repr(reference)), ("excess", excess_row)]
    return _emit(args, "decohered singlet block decomposition", payload, rows)


def _cmd_probe(args) -> int:
    channel, config, payload, rows = _search_head(args, "probe")
    spin = args.spin
    bounds = (None, None) if spin is None else (single_min_bound(spin), joint_min_bound(spin))
    probe = additivity_probe(channel, channel, config, *bounds)
    divisor = _LOG_DIVISOR[args.log_base]
    # the sum and the gap are taken of the converted values, as they are printed
    singles = [probe.single_a.value / divisor, probe.single_b.value / divisor]
    joint_min = probe.joint.value / divisor
    sum_of_singles = singles[0] + singles[1]
    gap = joint_min - sum_of_singles
    violation = gap < -_GAP_ALERT
    joint_search = _restart_record(probe.joint, divisor)
    payload.update(
        joint_min=joint_min,
        sum_of_singles=sum_of_singles,
        gap=gap,
        additivity_violation_candidate=violation,
        schmidt_coefficients=[float(c) for c in probe.schmidt_coefficients],
        argmin=vector_to_json(probe.joint.argmin),
        single_values=singles,
        joint_search=joint_search,
        note=_PROBE_NOTE[probe.joint.certificate],
    )
    rows += [
        ("joint minimum", repr(joint_min)),
        *_bracket_rows(joint_search),
        ("sum of singles", repr(sum_of_singles)),
        ("gap", repr(gap)),
        ("schmidt coefficients", ", ".join(f"{c:.6e}" for c in probe.schmidt_coefficients)),
    ]
    if violation:
        verdict = (
            "ADDITIVITY VIOLATION CANDIDATE: the joint search undercut the sum of"
            f" single-channel minima by {-gap!r}; inspect the argmin state"
        )
    else:
        verdict = "no subadditivity violation detected (gap within tolerance)"
    title = "additivity probe (two copies in parallel)"
    notes = [verdict, f"note: {payload['note']}"]
    return _emit(args, title, payload, rows, joint_search["restart_values"], notes)


def _cmd_verify(args) -> int:
    results = run_checks()
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    """Run one command and return its exit status.

    main keeps no state between calls, so it can be called repeatedly in one
    process; every call parses with the shared `build_parser()` parser.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: what is still buffered goes to os.devnull, not to a second raise at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ContractViolation, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
