"""Benchmark of the spinchannels CLI, end to end and per layer.

    python3 perfbench/run.py --workload pure-search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts fresh child interpreters
(perfbench/child.py): a few that only time set-up, then one that runs the
workload's operations in a closed loop with one client for --seconds. Every
output is checked against a reference (perfbench/checks.py) and against the
first pass at the same seed, byte for byte.

--trace 0 reports the end-to-end metrics; --trace 1 installs the layer
wrappers of perfbench/tracing.py and reports the per-layer metrics plus the
tracing overhead. A human-readable report comes first; the last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
A full record, with the environment, goes to perfbench/results/.

Exit status 0 means a result was printed; anything else means the benchmark
could not run (for instance, no spinchannels package under src/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 3  # set-up-only interpreters; the workload child adds one sample
DEADLINE_S = 170.0
# Median time of child.py's calibration work on the machine the benchmark was
# tuned on (2-vCPU VM, Python 3.11, numpy 2.4, OpenBLAS). Operation times are
# reported at that speed; see "Timings are at reference speed" in README.md.
REFERENCE_CALIBRATION_S = 0.0105

SETUP_LAYERS = ("import_numpy_s", "import_scipy_optimize_s", "import_spinchannels_s")


class ChildFailed(RuntimeError):
    pass


def _child(argv, env, deadline):
    """Run perfbench/child.py to completion and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {argv} overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {argv} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _source_identity() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ always."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _converged(ops, records) -> tuple:
    """(converged restarts, restarts) pooled over the search commands' JSON."""
    converged = total = 0
    for op, record in zip(ops, records):
        restarts = workloads.restarts_of(op)
        if not restarts:
            continue
        try:
            payload = json.loads(record["out"])
            search = payload.get("joint_search", payload)
            converged += round(search["converged_fraction"] * restarts)
            total += restarts
        except (ValueError, KeyError, TypeError, AttributeError):
            continue  # already counted as a failed operation
    return converged, total


def _judge(ops, passes):
    """Count attempts and failures; every failure is listed with its command."""
    failures = []
    attempted = 0
    first = passes[0]["records"]
    for number, entry in enumerate(passes):
        for op, record, reference in zip(ops, entry["records"], first):
            attempted += 1
            reasons = checks.outcome(op, record, None if number == 0 else reference["out"])
            if reasons:
                failures.append({"command": op["label"], "pass": number, "reasons": reasons})
    return attempted, failures


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _scaled_times(entry, scaled: bool) -> list:
    """One pass's per-operation seconds, each at the reference speed given by
    the mean of the two calibrations around it (see README.md)."""
    if not scaled:
        return entry["times"]
    c = entry["calibration_s"]
    return [
        t * REFERENCE_CALIBRATION_S / ((c[i] + c[i + 1]) / 2)
        for i, t in enumerate(entry["times"])
    ]


def _timings(ops, passes, scaled: bool) -> dict:
    """wall_s, cmd_p50_s and cmd_max_s over the untraced passes."""
    untraced = [_scaled_times(p, scaled) for p in passes if not p["traced"]]
    commands = [i for i, op in enumerate(ops) if op["kind"] == "cli"]
    per_command = [statistics.median(times[i] for times in untraced) for i in commands]
    n = len(untraced)
    return {
        "wall_s": _metric(statistics.median(sum(t) for t in untraced), "s", f"{n} passes"),
        "cmd_p50_s": _metric(
            statistics.median(per_command), "s", f"{len(commands)} commands x {n} passes"
        ),
        "cmd_max_s": _metric(max(per_command), "s", f"{len(commands)} commands x {n} passes"),
    }


def _end_to_end(ops, passes, setup_samples, peak_rss_mb):
    converged, restarts = _converged(ops, passes[0]["records"])
    return {
        **_timings(ops, passes, scaled=True),
        "setup_s": _metric(
            statistics.median(s["setup_s"] for s in setup_samples),
            "s",
            f"{len(setup_samples)} interpreters",
        ),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", "1 process"),
        # a workload without searches has nothing that could fail to converge
        "converged_fraction": _metric(
            converged / restarts if restarts else 1.0, "ratio", f"{restarts} restarts"
        ),
    }


def _per_layer(passes, setup_samples):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    merged, mismatched = tracing.combine([p["layers"] for p in traced])
    n = f"{len(traced)} traced passes"
    metrics = {
        f"setup.{name}": _metric(
            statistics.median(s[name] for s in setup_samples),
            "s",
            f"{len(setup_samples)} interpreters",
        )
        for name in SETUP_LAYERS
    }
    for name, unit in tracing.LAYER_UNITS.items():
        metrics[name] = _metric(merged[name], unit, n)
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    metrics["trace_overhead_s"] = _metric(overhead, "s", f"{n} vs {len(untraced)} untraced")
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "spinchannels" / "__init__.py").is_file():
        print(f"error: no spinchannels package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = _nproc()
    env = dict(os.environ, PYTHONHASHSEED="0")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(nproc)
    results = HERE / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = f"{HERE.name}/results/work-{args.workload}-seed{args.seed}"
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    trace_file = results / f"{tag}-spans.json"

    try:
        setup_samples = [
            _child(["--setup-only"], env, deadline)["setup"] for _ in range(SETUP_CHILDREN)
        ]
        run = _child(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", workdir,
                "--trace-file", str(trace_file),
            ],
            env,
            deadline,
        )
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setup_samples.append(run["setup"])

    ops = workloads.build(args.workload, args.seed, workdir)
    passes = run["passes"]
    attempted, failures = _judge(ops, passes)
    problems = [f"{f['command']} (pass {f['pass']}): {'; '.join(f['reasons'])}" for f in failures]
    raw = {}
    if args.trace:
        metrics, mismatched = _per_layer(passes, setup_samples)
        problems += [f"count {name} differs between traced passes" for name in mismatched]
    else:
        metrics = _end_to_end(ops, passes, setup_samples, run["peak_rss_mb"])
        raw = _timings(ops, passes, scaled=False)
    failed = len(failures)

    environment = {
        **run["environment"],
        **_source_identity(),
        "nproc": nproc,
        "blas_thread_cap": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "restarts": {op["label"]: n for op in ops if (n := workloads.restarts_of(op))},
    }
    print(f"perfbench {tag}: {len(passes)} passes of {len(ops)} operations")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}  (n = {m['samples']})")
    for name, m in raw.items():
        print(f"  {name + ' unscaled':36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_fraction':36s} {failed / attempted:.6g} ratio  (n = {attempted} operations)")
    for name in run["absent"]:
        print(f"  absent: {name} (not present in this version; its metrics read 0)")
    for line in problems:
        print(f"  FAILED {line}")

    results.mkdir(exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "environment": environment,
                "metrics": metrics,
                "unscaled": raw,
                "attempted": attempted,
                "failed": failed,
                "problems": problems,
                "absent": run["absent"],
                "pass_wall_s": [p["wall_s"] for p in passes],
                "calibration_s": [p["calibration_s"] for p in passes],
                "operation_s": {op["label"]: [p["times"][i] for p in passes] for i, op in enumerate(ops)},
                "setup": setup_samples,
            },
            handle,
            indent=1,
        )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
