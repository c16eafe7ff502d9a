"""The benchmark's workloads: operation lists derived from a workload seed.

Every operation is a plain dict, so the parent process and the child process
build the same list from the same (workload, seed) and agree on it without
passing it around:

    {"label": str, "kind": "cli", "argv": [...], "check": {...}}
    {"label": str, "kind": "isotypic", "twice_s": int, "probs": [...], "check": {...}}

"cli" operations go through ``spinchannels.cli.main(argv)``; "isotypic"
operations are the library call
``isotypic_probabilities(state_from_distribution(p), s)``. The "check" entry
names the reference check in ``checks.py`` that the output must pass.
"""

from __future__ import annotations

import numpy as np

# Restarts per search command, per workload. Every search command in a
# workload uses the same count, except that the spin-1/2 probe runs four times
# as many (the 256 : 64 ratio of the probe figures in ROADMAP.md).
RESTARTS = {"pure-search": 8, "gain-search": 10}
PROBE_HALF_FACTOR = 4

WHY = {
    "pure-search": (
        "Nelder-Mead plus the pure-state objective (one small eigvalsh per evaluation), "
        "single and product channels, Gram and output-state routes, spins 1/2..3"
    ),
    "gain-search": (
        "the same multistart engine on mixed inputs with 2d^2 parameters and a channel "
        "application per evaluation, incl. non-unital file channels and d=4"
    ),
    "blocks": (
        "no search: Casimir projectors, coupled |j;0> states and the d^2 x d^2 tensor "
        "Kraus stack of the decohered singlet for 2s=1..16"
    ),
}

WORKLOADS = tuple(WHY)
BLOCK_SPINS = range(1, 17)  # values of 2s


def spin_text(twice_s: int) -> str:
    """CLI spelling of the spin 2s/2: '1/2', '1', '3/2', ..."""
    return str(twice_s // 2) if twice_s % 2 == 0 else f"{twice_s}/2"


def _cli(argv, check) -> dict:
    return {"label": " ".join(argv), "kind": "cli", "argv": list(argv), "check": check}


def _search(command, twice_s, restarts, seed) -> dict:
    argv = [command, "--spin", spin_text(twice_s), "--restarts", str(restarts), "--seed", str(seed)]
    return _cli(argv, {"kind": command, "twice_s": twice_s})


def channel_files(workload: str, seed: int, workdir: str) -> list:
    """Channel files the workload reads, as (relative path, factor specs).

    Each factor spec is (dim, n_kraus, rng seed) for ``random_channel``; a
    file with two factors holds their ``tensor`` product.
    """
    if workload != "gain-search":
        return []
    return [
        (f"{workdir}/random_d2_k3.json", [(2, 3, [seed, 1])]),
        (f"{workdir}/product_2x2.json", [(2, 2, [seed, 2]), (2, 2, [seed, 3])]),
    ]


def block_weights(twice_s: int, seed: int) -> list:
    """Seeded block probabilities p_0..p_2s for the isotypic library call."""
    rng = np.random.default_rng([seed, twice_s])
    return [float(p) for p in rng.dirichlet(np.ones(twice_s + 1))]


def build(workload: str, seed: int, workdir: str) -> list:
    """The ordered operation list of one pass of `workload` at `seed`."""
    if workload == "pure-search":
        r = RESTARTS[workload]
        ops = [_search("min-output", k, r, seed) for k in range(1, 7)]
        ops.append(_search("probe", 1, PROBE_HALF_FACTOR * r, seed))
        ops.append(_search("probe", 2, r, seed))
        return ops
    if workload == "gain-search":
        r = RESTARTS[workload]
        ops = [_search("gain", k, r, seed) for k in (1, 2, 3)]
        for path, _ in channel_files(workload, seed, workdir):
            argv = ["gain", "--channel", path, "--restarts", str(r), "--seed", str(seed)]
            ops.append(_cli(argv, {"kind": "gain-file", "path": path}))
        return ops
    if workload == "blocks":
        ops = []
        for k in BLOCK_SPINS:
            ops.append(_cli(["singlet", "--spin", spin_text(k)], {"kind": "singlet", "twice_s": k}))
            probs = block_weights(k, seed)
            ops.append(
                {
                    "label": f"isotypic_probabilities(state_from_distribution(p), {spin_text(k)})",
                    "kind": "isotypic",
                    "twice_s": k,
                    "probs": probs,
                    "check": {"kind": "isotypic", "twice_s": k, "probs": probs},
                }
            )
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def restarts_of(op: dict) -> int:
    """The --restarts of a search command, 0 for anything else."""
    argv = op.get("argv", [])
    return int(argv[argv.index("--restarts") + 1]) if "--restarts" in argv else 0
