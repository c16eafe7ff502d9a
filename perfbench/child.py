"""One fresh interpreter of the benchmark: set-up timing, then the workload.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload W --seed N --seconds T --trace 0|1 --trace-file F

The first thing the process does is time its set-up: importing numpy,
scipy.optimize and spinchannels.cli from this checkout's ``src``, then
``build_parser()``. With --setup-only it prints those times and exits.

Otherwise it runs the workload's operation list in a closed loop with one
client, each operation starting after the previous one returned, for whole
passes until --seconds is used up (at least two passes, so every output can
be compared byte for byte with the first pass). Between operations it times
a short calibration loop, so the parent can scale each operation's time to a
reference machine speed. With --trace 1 it runs one untraced pass, then
installs the layer wrappers, runs at least two traced passes and writes the
spans to --trace-file. The last line of stdout is a JSON object with the
timings and every operation's output.
"""

import sys
import time

_T0 = time.perf_counter()


def _setup(root):
    """Successive import times, in seconds from interpreter start-up."""
    sys.path.insert(0, str(root / "src"))
    marks = {}
    import numpy  # noqa: F401

    marks["import_numpy_s"] = time.perf_counter() - _T0
    import scipy.optimize  # noqa: F401

    marks["import_scipy_optimize_s"] = time.perf_counter() - _T0
    import spinchannels.cli

    spinchannels.cli.build_parser()
    marks["import_spinchannels_s"] = time.perf_counter() - _T0
    return {
        "setup_s": marks["import_spinchannels_s"],
        "import_numpy_s": marks["import_numpy_s"],
        "import_scipy_optimize_s": marks["import_scipy_optimize_s"] - marks["import_numpy_s"],
        "import_spinchannels_s": marks["import_spinchannels_s"]
        - marks["import_scipy_optimize_s"],
    }


def _environment():
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _run_op(op, cli, invariant):
    """Execute one operation; returns (record, seconds)."""
    import contextlib
    import io
    import json

    out, err = io.StringIO(), io.StringIO()
    record = {"rc": 0, "error": None}
    start = time.perf_counter()
    try:
        if op["kind"] == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                record["rc"] = cli.main(op["argv"])
        else:
            distribution = invariant.IsotypicDistribution(op["twice_s"] / 2, tuple(op["probs"]))
            state = invariant.state_from_distribution(distribution)
            found = invariant.isotypic_probabilities(state, op["twice_s"] / 2)
            out.write(json.dumps(list(found.probs)))
    except SystemExit as exc:  # argparse rejects flags this way
        record["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # one failed operation must not end the run
        record["error"] = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    record["out"] = out.getvalue()
    record["stderr"] = err.getvalue()
    return record, seconds


CALIBRATION_SAMPLES = 3  # calibration samples at each boundary between operations


def _calibrate():
    """Seconds for one fixed piece of work that does not touch spinchannels.

    A loop of small eigvalsh calls and entropy sums, the interpreter-bound mix
    of one search evaluation. On a shared machine whose speed drifts, its time
    tracks the speed of the moment.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    matrix = a @ a.conj().T + numpy.eye(4)
    start = time.perf_counter()
    for _ in range(600):
        w = numpy.linalg.eigvalsh(matrix)
        float(-(w * numpy.log(w)).sum())
    return time.perf_counter() - start


def _run_pass(ops, cli, invariant, tracer=None):
    """Run every operation once, with calibration at every boundary.

    Returns (seconds in operations, records, per-operation seconds,
    calibration seconds). The calibration list has one median per boundary,
    before the first operation, between operations and after the last, so
    each operation is bracketed by two; it lies outside every timing.
    """
    import contextlib
    import statistics

    def calibration():
        return statistics.median(_calibrate() for _ in range(CALIBRATION_SAMPLES))

    records, times, brackets = [], [], [calibration()]
    for index, op in enumerate(ops):
        name = "cli.main" if op["kind"] == "cli" else "bench.isotypic"
        with tracer.operation(index, name) if tracer else contextlib.nullcontext():
            record, seconds = _run_op(op, cli, invariant)
        records.append(record)
        times.append(seconds)
        brackets.append(calibration())
    return sum(times), records, times, brackets


def main():
    import argparse
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    setup = _setup(root)

    import json
    import resource

    import spinchannels
    import spinchannels.cli as cli
    import spinchannels.invariant as invariant

    if Path(spinchannels.__file__).resolve().parent != (root / "src" / "spinchannels").resolve():
        sys.exit(f"spinchannels was imported from {spinchannels.__file__}, not this checkout")

    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    for path, factors in workloads.channel_files(args.workload, args.seed, args.workdir):
        from spinchannels.channel import random_channel, save_channel, tensor

        channels = [random_channel(*factor) for factor in factors]
        channel = channels[0] if len(channels) == 1 else tensor(*channels)
        save_channel(channel, path)
    ops = workloads.build(args.workload, args.seed, args.workdir)

    started = time.perf_counter()
    passes = []

    def run(tracer, minimum, maximum=None):
        count = 0
        while maximum is None or count < maximum:
            wall, records, times, calibration = _run_pass(ops, cli, invariant, tracer)
            entry = {
                "traced": tracer is not None,
                "wall_s": wall,
                "records": records,
                "times": times,
                "calibration_s": calibration,
            }
            if tracer is not None:
                spans, counters = tracer.take()
                entry["layers"] = tracing.layer_metrics(spans, counters)
                entry["spans"] = spans
                entry["counters"] = counters
            passes.append(entry)
            count += 1
            elapsed = time.perf_counter() - started
            if count >= minimum and elapsed + wall > args.seconds:
                return

    tracer = None
    if args.trace:
        run(None, 1, maximum=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run(tracer, 2)
        finally:
            tracer.uninstall()
        with open(args.trace_file, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "absent": tracer.absent,
                    "passes": [
                        {"spans": p.pop("spans"), "counters": p.pop("counters")}
                        for p in passes
                        if p["traced"]
                    ],
                },
                handle,
            )
    else:
        run(None, 2)

    result = {
        "setup": setup,
        "environment": _environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent if tracer else [],
        "passes": passes,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
