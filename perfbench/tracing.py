"""Layer tracing installed from the benchmark's own files.

`Tracer.install` replaces, in the calling module's namespace, the functions
one layer of ``spinchannels`` calls in another, with wrappers that record
spans (name, start, end, parent span, command index) or, for the calls made
once per objective evaluation, aggregate counts and summed time. Nothing in
the package source is edited. A name a later version no longer has is
recorded as absent instead of raising, so the benchmark keeps working when a
layer is restructured.

Spans are kept in memory; `take` hands over one pass's spans and counters
and resets them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager

# (module, attribute, metric prefix, kind). kind is "span", "memory" (a span
# that also records its tracemalloc peak), "counter" (aggregated per call) or
# "minimize" (one span per restart, with the objective aggregated).
TARGETS = (
    ("cli", "isotropic_channel", "channel.isotropic_channel", "span"),
    ("cli", "load_channel", "channel.load_channel", "span"),
    ("cli", "min_output_entropy", "optimize.min_output_entropy", "span"),
    ("cli", "min_entropy_gain", "optimize.min_entropy_gain", "span"),
    ("cli", "additivity_probe", "optimize.additivity_probe", "span"),
    ("cli", "singlet_decoherence", "invariant.singlet_decoherence", "memory"),
    ("optimize", "min_output_entropy", "optimize.min_output_entropy", "span"),
    ("optimize", "minimize", "optimize.restart", "minimize"),
    ("optimize", "spectrum_entropy", "linalg.spectrum_entropy", "counter"),
    ("optimize", "_apply_stack", "channel.apply", "counter"),
    ("optimize", "tensor", "channel.tensor", "memory"),
    ("invariant", "isotropic_channel", "channel.isotropic_channel", "span"),
    ("invariant", "tensor", "channel.tensor", "memory"),
    ("invariant", "apply", "channel.apply", "span"),
    ("invariant", "spectrum_entropy", "linalg.spectrum_entropy", "counter"),
    ("invariant", "decohered_singlet", "invariant.decohered_singlet", "span"),
    ("invariant", "isotypic_probabilities", "invariant.isotypic_probabilities", "span"),
    ("invariant", "moment_probabilities", "invariant.moment_probabilities", "span"),
    ("invariant", "state_from_distribution", "invariant.state_from_distribution", "span"),
    ("invariant", "casimir_projectors", "spin.casimir_projectors", "span"),
    ("invariant", "coupled_zero_m_state", "spin.coupled_zero_m_state", "span"),
    ("invariant", "singlet_state", "spin.singlet_state", "span"),
    ("spin", "coupled_zero_m_state", "spin.coupled_zero_m_state", "span"),
    ("spin", "total_spin_squared", "spin.total_spin_squared", "span"),
)

OBJECTIVE = "optimize.objective"
SEARCH_ENTRIES = (
    "optimize.min_output_entropy",
    "optimize.min_entropy_gain",
    "optimize.additivity_probe",
)
HIT_TOL = 1e-6  # a restart "hits" when it ends this close to its search's best

# Per-layer metrics computed from one traced pass: name -> unit. Counts must
# repeat exactly between passes at a fixed seed; the rest are times or memory.
LAYER_UNITS = {
    "cli.self_s": "s",
    "optimize.restarts": "count",
    "optimize.evaluations": "count",
    "optimize.evals_per_restart": "count",
    "optimize.capped_restarts": "count",
    "optimize.converged_restarts": "count",
    "optimize.restart_hit_fraction": "ratio",
    "optimize.restart_s": "s",
    "optimize.objective_us_per_eval": "us",
    "optimize.driver_us_per_eval": "us",
    "optimize.self_s": "s",
    "linalg.spectrum_entropy_calls": "count",
    "linalg.spectrum_entropy_us": "us",
    "channel.tensor_s": "s",
    "channel.tensor_calls": "count",
    "channel.apply_s": "s",
    "channel.isotropic_channel_s": "s",
    "channel.load_channel_s": "s",
    "channel.tensor_peak_mb": "MB",
    "spin.casimir_projectors_s": "s",
    "spin.casimir_projectors_calls": "count",
    "spin.coupled_zero_m_state_calls": "count",
    "spin.total_spin_squared_calls": "count",
    "invariant.decohered_singlet_s": "s",
    "invariant.isotypic_probabilities_s": "s",
    "invariant.moment_probabilities_s": "s",
    "invariant.self_s": "s",
    "invariant.peak_mb": "MB",
}
EXACT_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit in ("count", "ratio")
)


class Tracer:
    """Spans and per-call counters for one child process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.absent = []
        self.command = None
        self._stack = []
        self._memory = []
        self._depth = 0  # nesting of aggregated calls
        self._next_id = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            try:
                module = importlib.import_module(f"spinchannels.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if kind == "counter":
                wrapped = self._counted(self._cell(name), original)
            elif kind == "minimize":
                wrapped = self._minimize(name, original)
            else:
                wrapped = self._spanned(name, original, memory=kind == "memory")
            setattr(module, attr, wrapped)
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- recording --------------------------------------------------------

    def _cell(self, name):
        return self.counters.setdefault(name, [0, 0.0])

    def _open(self, name, memory=False) -> dict:
        span = {
            "id": self._next_id,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "cmd": self.command,
            "child_s": 0.0,
        }
        self._next_id += 1
        if memory:
            self._memory_enter(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]
        if "_base" in span:
            self._memory_exit(span)
        self.spans.append(span)

    def _memory_enter(self, span) -> None:
        span["_started"] = not tracemalloc.is_tracing()
        if span["_started"]:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        span["_base"], span["_outer_peak"], span["_inner_peak"] = current, peak, 0
        tracemalloc.reset_peak()
        self._memory.append(span)

    def _memory_exit(self, span) -> None:
        # reset_peak in an inner span loses the outer peak so far; the inner
        # span hands it, and its own absolute peak, back to the outer one.
        peak = max(tracemalloc.get_traced_memory()[1], span["_inner_peak"])
        span["peak_mb"] = (peak - span["_base"]) / 2**20
        self._memory.pop()
        if self._memory:
            outer = self._memory[-1]
            outer["_inner_peak"] = max(outer["_inner_peak"], peak, span["_outer_peak"])
        if span["_started"]:
            tracemalloc.stop()
        for key in ("_started", "_base", "_outer_peak", "_inner_peak"):
            del span[key]

    def _spanned(self, name, fn, memory=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, memory)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def _counted(self, cell, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                cell[0] += 1
                cell[1] += elapsed
                if self._depth == 0 and self._stack:
                    self._stack[-1]["child_s"] += elapsed

        return wrapper

    def _minimize(self, name, fn):
        objective = self._cell(OBJECTIVE)

        @functools.wraps(fn)
        def wrapper(fun, x0, *args, **kwargs):
            span = self._open(name)
            try:
                result = fn(self._counted(objective, fun), x0, *args, **kwargs)
                span["nfev"] = int(result.nfev)
                span["status"] = int(result.status)
                span["value"] = float(result.fun)
                return result
            finally:
                self._close(span)

        return wrapper

    @contextmanager
    def operation(self, index: int, name: str):
        """Root span of one benchmark operation."""
        self.command = index
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.command = None

    def take(self):
        """This pass's spans and counters; both are reset for the next pass."""
        spans, self.spans = self.spans, []
        counters = {name: list(cell) for name, cell in self.counters.items()}
        for cell in self.counters.values():
            cell[0], cell[1] = 0, 0.0
        return spans, counters


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced pass, keyed as in LAYER_UNITS."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(_duration(s) for s in named(name))

    def self_time(names):
        return sum(_duration(s) - s["child_s"] for s in spans if s["name"] in names)

    def peak(name):
        return max((s["peak_mb"] for s in named(name)), default=0.0)

    restarts = named("optimize.restart")
    finished = [s for s in restarts if "status" in s]
    evaluations = sum(s["nfev"] for s in finished)
    by_search = {}
    for s in finished:
        by_search.setdefault(s["parent"], []).append(s["value"])
    hits = sum(
        sum(1 for v in values if v <= min(values) + HIT_TOL) for values in by_search.values()
    )
    objective_calls, objective_s = counters.get(OBJECTIVE, (0, 0.0))
    entropy_calls, entropy_s = counters.get("linalg.spectrum_entropy", (0, 0.0))
    restart_s = busy("optimize.restart")

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    return {
        "cli.self_s": self_time({"cli.main"}),
        "optimize.restarts": len(restarts),
        "optimize.evaluations": evaluations,
        "optimize.evals_per_restart": per(evaluations, len(finished)),
        "optimize.capped_restarts": sum(1 for s in finished if s["status"] != 0),
        "optimize.converged_restarts": sum(1 for s in finished if s["status"] == 0),
        "optimize.restart_hit_fraction": per(hits, len(finished)),
        "optimize.restart_s": restart_s,
        "optimize.objective_us_per_eval": per(objective_s, objective_calls, 1e6),
        "optimize.driver_us_per_eval": per(restart_s - objective_s, evaluations, 1e6),
        "optimize.self_s": self_time(set(SEARCH_ENTRIES)),
        "linalg.spectrum_entropy_calls": entropy_calls,
        "linalg.spectrum_entropy_us": per(entropy_s, entropy_calls, 1e6),
        "channel.tensor_s": busy("channel.tensor"),
        "channel.tensor_calls": len(named("channel.tensor")),
        "channel.apply_s": busy("channel.apply") + counters.get("channel.apply", (0, 0.0))[1],
        "channel.isotropic_channel_s": busy("channel.isotropic_channel"),
        "channel.load_channel_s": busy("channel.load_channel"),
        "channel.tensor_peak_mb": peak("channel.tensor"),
        "spin.casimir_projectors_s": busy("spin.casimir_projectors"),
        "spin.casimir_projectors_calls": len(named("spin.casimir_projectors")),
        "spin.coupled_zero_m_state_calls": len(named("spin.coupled_zero_m_state")),
        "spin.total_spin_squared_calls": len(named("spin.total_spin_squared")),
        "invariant.decohered_singlet_s": busy("invariant.decohered_singlet"),
        "invariant.isotypic_probabilities_s": busy("invariant.isotypic_probabilities"),
        "invariant.moment_probabilities_s": busy("invariant.moment_probabilities"),
        "invariant.self_s": self_time({"invariant.singlet_decoherence"}),
        "invariant.peak_mb": peak("invariant.singlet_decoherence"),
    }


def combine(passes: list) -> tuple:
    """Median of each metric over traced passes, and the counts that differ.

    Counts and count ratios must repeat exactly at a fixed seed; the second
    element lists every one that does not.
    """
    mismatched = [
        name for name in EXACT_METRICS if len({p[name] for p in passes}) > 1
    ]
    merged = {
        name: passes[0][name] if name in EXACT_METRICS else statistics.median(p[name] for p in passes)
        for name in LAYER_UNITS
    }
    return merged, mismatched
