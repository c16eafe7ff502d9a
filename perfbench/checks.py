"""Reference checks for every operation the benchmark runs.

The references are computed here with numpy and closed forms, never with
the library under test. Tolerances are in nats. A check returns a list of
problems; an empty list means the output passed.

  min-output   value within 1e-6 of h(1/(s+1)), h the binary entropy
  probe        gap <= 1e-8 and sum_of_singles within 2e-6 of 2 h(1/(s+1))
  gain         isotropic: value within 1e-6 of 0
  gain-file    -ln||L(I)|| - 1e-9 <= value <= S(L(I/d)) - ln d + 1e-9
  singlet      probs within 1e-9 of (1/3, q, 2/3 - q, 0, ...), q = 1/(2s(s+1)),
               entropy within 1e-9 of sum_j p_j ln(2j+1) - p_j ln p_j
  isotypic     returned probabilities within 1e-9 of the ones put in

h(1/(s+1)) is a closed form at spins 1/2 and 1 and numerically confirmed
beyond (ROADMAP item 3).
"""

from __future__ import annotations

import json
import math

import numpy as np

MIN_OUTPUT_TOL = 1e-6
PROBE_GAP_MAX = 1e-8
PROBE_SUM_TOL = 2e-6
GAIN_TOL = 1e-6
GAIN_FILE_SLACK = 1e-9
BLOCK_TOL = 1e-9


def binary_entropy(p: float) -> float:
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0)


def single_min(twice_s: int) -> float:
    """h(1/(s+1)), the minimum output entropy of the spin-s isotropic channel."""
    return binary_entropy(1.0 / (twice_s / 2.0 + 1.0))


def singlet_probs(twice_s: int) -> list:
    """Block weights (1/3, q, 2/3 - q, 0, ...) of the doubly decohered singlet."""
    s = twice_s / 2.0
    q = 1.0 / (2.0 * s * (s + 1.0))
    return ([1.0 / 3.0, q, 2.0 / 3.0 - q] + [0.0] * twice_s)[: twice_s + 1]


def block_entropy(probs) -> float:
    return sum(p * math.log(2 * j + 1) - p * math.log(p) for j, p in enumerate(probs) if p > 0.0)


def _spectrum_entropy(eigenvalues) -> float:
    w = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def load_kraus(path) -> np.ndarray:
    """Kraus stack (n, d_out, d_in) from the channel wire format, numpy only."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = np.asarray(json.load(handle)["kraus"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def gain_bounds(kraus: np.ndarray) -> tuple:
    """(-ln||L(I)||, S(L(I/d)) - ln d) for the channel with these Kraus operators."""
    d = kraus.shape[2]
    image = np.einsum("kij,klj->il", kraus, kraus.conj())  # L(I)
    lower = -math.log(float(np.linalg.eigvalsh(image).max()))
    upper = _spectrum_entropy(np.linalg.eigvalsh(image / d)) - math.log(d)
    return lower, upper


def _near(value, reference, tol) -> bool:
    # written so that NaN fails
    return isinstance(value, (int, float)) and abs(value - reference) <= tol


def _check_search(check: dict, payload: dict) -> list:
    kind = check["kind"]
    problems = []
    if kind == "min-output":
        ref = single_min(check["twice_s"])
        if not _near(payload.get("value"), ref, MIN_OUTPUT_TOL):
            problems.append(f"value {payload.get('value')!r} is not within {MIN_OUTPUT_TOL} of {ref!r}")
    elif kind == "probe":
        ref = 2.0 * single_min(check["twice_s"])
        gap = payload.get("gap")
        if not (isinstance(gap, (int, float)) and gap <= PROBE_GAP_MAX):
            problems.append(f"gap {gap!r} exceeds {PROBE_GAP_MAX}")
        if not _near(payload.get("sum_of_singles"), ref, PROBE_SUM_TOL):
            problems.append(
                f"sum_of_singles {payload.get('sum_of_singles')!r} is not within "
                f"{PROBE_SUM_TOL} of {ref!r}"
            )
    elif kind == "gain":
        if not _near(payload.get("value"), 0.0, GAIN_TOL):
            problems.append(f"value {payload.get('value')!r} is not within {GAIN_TOL} of 0")
    elif kind == "gain-file":
        lower, upper = gain_bounds(load_kraus(check["path"]))
        value = payload.get("value")
        if not (
            isinstance(value, (int, float))
            and lower - GAIN_FILE_SLACK <= value <= upper + GAIN_FILE_SLACK
        ):
            problems.append(f"value {value!r} is outside [{lower!r}, {upper!r}]")
    elif kind == "singlet":
        ref = singlet_probs(check["twice_s"])
        probs = payload.get("probs")
        if not (
            isinstance(probs, list)
            and len(probs) == len(ref)
            and all(_near(p, r, BLOCK_TOL) for p, r in zip(probs, ref))
        ):
            problems.append(f"probs {probs!r} are not within {BLOCK_TOL} of {ref!r}")
        entropy = block_entropy(ref)
        if not _near(payload.get("entropy"), entropy, BLOCK_TOL):
            problems.append(
                f"entropy {payload.get('entropy')!r} is not within {BLOCK_TOL} of {entropy!r}"
            )
    else:
        raise ValueError(f"no reference check for {kind!r}")
    return problems


def check_output(check: dict, output: str) -> list:
    """Problems with one operation's output text; [] when it passes.

    CLI operations produce their JSON stdout; the isotypic library call
    produces the JSON list of returned probabilities.
    """
    try:
        payload = json.loads(output)
    except (TypeError, ValueError):
        return [f"output is not JSON: {str(output)[:80]!r}"]
    if check["kind"] == "isotypic":
        ref = check["probs"]
        if not (
            isinstance(payload, list)
            and len(payload) == len(ref)
            and all(_near(p, r, BLOCK_TOL) for p, r in zip(payload, ref))
        ):
            return [f"returned probabilities {payload!r} are not within {BLOCK_TOL} of {ref!r}"]
        return []
    if not isinstance(payload, dict):
        return ["output is not a JSON object"]
    expected = "gain" if check["kind"] == "gain-file" else check["kind"]
    if payload.get("command") != expected:
        return [f"output is for command {payload.get('command')!r}, not {expected!r}"]
    return _check_search(check, payload)


def outcome(op: dict, record: dict, first_output) -> list:
    """Why one execution of `op` failed; [] when it succeeded.

    `record` holds the execution's exit code, raised error and output;
    `first_output` is the output of the same operation in the run's first
    pass, which every later pass must reproduce byte for byte.
    """
    if record.get("error"):
        return [f"raised {record['error']}"]
    if record.get("rc", 0) != 0:
        return [f"exited with code {record['rc']}: {record.get('stderr', '').strip()[:200]}"]
    if first_output is not None and record["out"] != first_output:
        return ["output differs from the first pass at the same seed"]
    return check_output(op["check"], record["out"])
