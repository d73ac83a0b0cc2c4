"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload seed:
campaign configs (as the JSON dicts ``hh campaign --config`` reads) and the
simplex/function descriptor files plus argument lists of the one-shot CLI
calls.  The same seed always gives the same inputs.  Nothing here calls into
``hhbounds``, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

ALL_KINDS = (
    "affine",
    "quadratic_psd",
    "max_of_affines",
    "exp_affine",
    "log_sum_exp",
    "hinge_distance",
)
EXACT_KINDS = ("affine", "quadratic_psd")
ALL_CHAINS = ("choquet", "thm2", "thm3", "thm4", "thm5", "thm6", "cor2", "cor3")
SIMPLEX_CHAINS = ALL_CHAINS[:6]
DIMENSIONS = tuple(range(1, 9))
SCALES = (0.2, 0.4, 0.6, 0.8, 1.0)
MC_SAMPLES = 100_000

#: Trials per campaign round.  Each is a whole number of cycles of the
#: round-robin (dimension, kind) schedule, so every round has the same mix:
#: lcm(8 dims, 6 kinds) = 24 and lcm(8 dims, 2 kinds) = 8.
ROUND_TRIALS = {"campaign-mc": 48, "campaign-exact": 400}

CLI_DIM = 4
SAMPLE_COUNT = 100_000
SEARCH_BUDGET = 10_000

#: How the ``hh`` console script starts; ``main()`` reads ``sys.argv[1:]``.
HH = (sys.executable, "-c", "import sys; from hhbounds.cli import main; sys.exit(main())")


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed that depends on the workload seed and ``keys`` only."""
    ss = np.random.SeedSequence([seed % 2**64, *keys])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def campaign_config(workload: str, seed: int, round_index: int, trials: int | None = None) -> dict:
    """Config of one campaign round: the default mix, or the exact-only mix."""
    return {
        "dimensions": list(DIMENSIONS),
        "trials_per_theorem": ROUND_TRIALS[workload] if trials is None else trials,
        "mc_samples": MC_SAMPLES,
        "master_seed": derive_seed(seed, 1, round_index),
        "theorems": list(ALL_CHAINS),
        "subsimplex_scales": list(SCALES),
        "function_kinds": list(ALL_KINDS if workload == "campaign-mc" else EXACT_KINDS),
    }


def expected_evaluations(cfg: dict) -> dict[str, int]:
    """Chain evaluations a config implies: one per trial, thm3 sweeps n+1 indices."""
    trials = cfg["trials_per_theorem"]
    dims = cfg["dimensions"]
    counts = {name: trials for name in cfg["theorems"]}
    if "thm3" in counts:
        counts["thm3"] = sum(dims[i % len(dims)] + 1 for i in range(trials))
    return counts


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_vertices(rng: np.random.Generator, dim: int, cond_limit: float = 100.0) -> np.ndarray:
    """Standard-normal simplex vertices with a well-conditioned edge matrix."""
    while True:
        V = rng.standard_normal((dim + 1, dim))
        if np.linalg.cond(V[1:] - V[0]) <= cond_limit:
            return V


def exp_affine_params(rng: np.random.Generator, V: np.ndarray) -> tuple[np.ndarray, float]:
    """Slope of norm U(0.5, 1.5) and an offset centring the exponent near 0."""
    dim = V.shape[1]
    slope = rng.uniform(0.5, 1.5) * _unit(rng, dim)
    offset = float(rng.uniform(-0.5, 0.5) - slope @ V.mean(axis=0))
    return slope, offset


def _num(x: float) -> str:
    return repr(float(x))


def _opt(name: str, value) -> str:
    """``--name=value``: a value starting with '-' must not read as a flag."""
    return f"--{name}={value if isinstance(value, str) else _num(value)}"


def cli_inputs(seed: int) -> dict:
    """Parameters of the one-shot calls; see :func:`write_cli_files`."""
    rng = np.random.default_rng(derive_seed(seed, 2))
    V = random_vertices(rng, CLI_DIM)
    slope, offset = exp_affine_params(rng, V)
    point = rng.dirichlet(np.full(CLI_DIM + 1, 2.0)) @ V
    t = float(rng.uniform(0.2, 1.0))
    j = int(rng.integers(CLI_DIM + 1))
    bounds_seed = int(rng.integers(2**31))

    a = float(rng.normal())
    b = a + 0.3 + float(rng.exponential())
    slope1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    offset1 = float(rng.uniform(-0.5, 0.5) - slope1 * (a + b) / 2.0)
    lam = float(rng.uniform())
    p3, q3 = (float(v) for v in rng.uniform(0.2, 5.0, size=2))
    y3 = float(rng.uniform(0.05, 1.0)) * (b - a) * min(p3, q3) / (p3 + q3)
    interval_seed = int(rng.integers(2**31))

    # A window wider than the cor3 condition allows, by 10-20 % of (b - a).
    ps, qs = (float(v) for v in rng.uniform(0.2, 5.0, size=2))
    a_s = float(rng.normal())
    b_s = a_s + 0.3 + float(rng.exponential())
    y_s = (b_s - a_s) * (min(ps, qs) / (ps + qs) + float(rng.uniform(0.1, 0.2)))
    search_seed = int(rng.integers(2**31))
    sample_seed = int(rng.integers(2**31))
    return {
        "vertices": V,
        "slope": slope,
        "offset": offset,
        "point": point,
        "t": t,
        "j": j,
        "bounds_seed": bounds_seed,
        "interval": (a, b),
        "slope1": slope1,
        "offset1": offset1,
        "lam": lam,
        "cor3": (p3, q3, y3),
        "interval_seed": interval_seed,
        "search": (ps, qs, a_s, b_s, y_s),
        "search_seed": search_seed,
        "sample_seed": sample_seed,
    }


def write_cli_files(inp: dict, directory: str) -> dict[str, list[str]]:
    """Write the descriptor files and return the argument list of each call.

    Calls: ``bounds`` (4-simplex, six simplex chains), ``bounds1`` (interval,
    cor2 and cor3), ``search`` and ``sample``.  Arguments exclude the ``hh``
    launcher.
    """
    V = inp["vertices"]
    a, b = inp["interval"]
    files = {
        "simplex": {"dimension": CLI_DIM, "vertices": V.tolist()},
        "function": {
            "kind": "exp_affine",
            "params": {"slope": inp["slope"].tolist(), "offset": inp["offset"]},
            "label": "bench-exp",
        },
        "interval": {"dimension": 1, "vertices": [[a], [b]]},
        "function1": {
            "kind": "exp_affine",
            "params": {"slope": [inp["slope1"]], "offset": inp["offset1"]},
            "label": "bench-exp-1d",
        },
    }
    paths = {}
    for name, data in files.items():
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    p3, q3, y3 = inp["cor3"]
    ps, qs, a_s, b_s, y_s = inp["search"]
    chains = [f"--theorem={name}" for name in SIMPLEX_CHAINS]
    return {
        "bounds": ["bounds", paths["simplex"], paths["function"], *chains,
                   _opt("point", ",".join(_num(x) for x in inp["point"])),
                   _opt("t", inp["t"]), f"--j={inp['j']}", f"--seed={inp['bounds_seed']}"],
        "bounds1": ["bounds", paths["interval"], paths["function1"],
                    "--theorem=cor2", "--theorem=cor3", _opt("lam", inp["lam"]),
                    _opt("cor3-p", p3), _opt("cor3-q", q3), _opt("cor3-y", y3),
                    f"--seed={inp['interval_seed']}"],
        "search": ["cor3-search", _opt("p", ps), _opt("q", qs), _opt("a", a_s),
                   _opt("b", b_s), _opt("y", y_s), f"--budget={SEARCH_BUDGET}",
                   f"--seed={inp['search_seed']}"],
        "sample": ["sample", paths["simplex"], f"--count={SAMPLE_COUNT}",
                   f"--seed={inp['sample_seed']}"],
    }


def spot_instances(seed: int) -> list[dict]:
    """Seeded exp_affine instances in dims 1, 3 and 6 for the MC reference check."""
    rng = np.random.default_rng(derive_seed(seed, 3))
    out = []
    for dim in (1, 3, 6):
        V = random_vertices(rng, dim)
        slope, offset = exp_affine_params(rng, V)
        out.append({"vertices": V, "slope": slope, "offset": offset,
                    "seed": int(rng.integers(2**31))})
    return out
