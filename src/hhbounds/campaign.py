"""Randomized verification campaigns, tightness statistics, and 1-D
counterexample search for the conditional weighted-endpoint chain.

:data:`CHAINS` is the one table of the eight bound chains.  Each entry
names the domain its ground truth is integrated over (a key of
:data:`DOMAINS`: the parent simplex, the centred subsimplex, the cor2
interval or the cor3 window; or none), calls its operation in
:mod:`hhbounds.chains` on an instance ``(function, simplex or None,
params)``, and carries its tightness triple and whether it is 1-D only.
:func:`run_instances` runs instances through that table, sharing one ground
truth per domain and integrating the domains of one seed slot together, on
one Monte Carlo weight stream, before any chain runs; the campaign,
:func:`replay_failure` and ``hh bounds`` all go through it, and the
ground-truth policy (exact, cubature or Monte Carlo) and its replay recipes
live in :mod:`hhbounds.quadrature`.  A campaign trial puts its parent simplex and
subsimplex on one slot, and its cor2 interval and cor3 window on another.

A campaign draws, per trial, a well-conditioned random simplex, a random
convex function, subsimplex parameters and 1-D companion instances for the
interval chains, and evaluates every selected chain.  Trials derive child
seeds from the master seed through a counter-based splittable scheme
(``numpy.random.SeedSequence`` with the trial index as spawn key), so the
campaign is deterministic in the master seed, trials are independent, and
aggregation order does not matter.

Failures are recorded as self-contained descriptors (simplex, function,
chain parameters, ground-truth recipe) in the shape of an instance, and
:func:`replay_failure` re-runs one descriptor bit-for-bit, also once read
back from a result file: floats are written as their shortest round-trip
``repr``, so ``-0.0`` and ``1.0`` come back as written.

:func:`search_cor3_counterexample` tests the necessity of the cor3 window
condition.  It scores unit hinges by the exact slack they would be
certified with, certifies the best one through :data:`CHAINS` with its
exact window mean, and returns it as a descriptor built by the same code
as a campaign failure.

Wall time is kept on the in-memory result only; the serialized result is a
pure function of the configuration, so rerunning a campaign writes a
byte-identical file.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chains import (
    CHAIN_NAMES,
    ChainReport,
    choquet_chain,
    cor2_chain,
    cor3_check,
    cor3_condition_holds,
    thm2_upper,
    thm3_chain,
    thm4_chain,
    thm5_upper,
    thm6_chain,
)
from .errors import (
    ConditionNotViolatedError,
    DegenerateSimplexError,
    MissingBaselineError,
)
from .funcs import KINDS, ConvexFunction, random_convex
from .geometry import Simplex
from .quadrature import (
    _hinge_mean,
    ground_truth_recipe,
    ground_truths,
    integrate_exact,
    replay_ground_truth,
)
from .serialize import dumps
from .tolerances import COND_LIMIT, TOL_CHAIN

__all__ = [
    "CHAINS",
    "CampaignConfig",
    "CampaignResult",
    "default_config",
    "random_simplex",
    "replay_failure",
    "run_campaign",
    "run_instances",
    "search_cor3_counterexample",
    "slack_histograms_csv",
    "tightness_ratio",
    "tightness_table",
]

_DEFAULT_SCALES = (0.2, 0.4, 0.6, 0.8, 1.0)


# ---------------------------------------------------------------------------
# chain registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """One bound chain, run on an instance ``(function, simplex, params)``.

    ``domain`` is the :data:`DOMAINS` key of its ground-truth domain (None
    for a chain without an integral), ``run(f, simplex, params, gt)`` calls
    the chain operation, ``tightness`` holds the term indices (mean, refined
    upper, classical upper) of a chain refining a classical upper bound,
    and ``one_d`` marks a chain that needs a 1-D instance.
    """

    domain: str | None
    run: Callable[..., ChainReport]
    tightness: tuple[int, int, int] | None = None
    one_d: bool = False


def _cor3_window(s: Simplex | None, p: dict) -> Simplex:
    center = (p["p"] * p["a"] + p["q"] * p["b"]) / (p["p"] + p["q"])
    return Simplex([[center - p["y"]], [center + p["y"]]])


#: Ground-truth domains, each worked out from an instance's (simplex, params).
#: cor2's interval is the instance's 1-D simplex when it has one (``hh
#: bounds``), else ``[a, b]`` (campaign trials and descriptors).
DOMAINS: dict[str, Callable[[Simplex | None, dict], Simplex]] = {
    "parent": lambda s, p: s,
    "subsimplex": lambda s, p: p["subsimplex"],
    "interval": lambda s, p: Simplex([[p["a"]], [p["b"]]]) if s is None else s,
    "window": _cor3_window,
}

# The chain operations are looked up by name at call time, so wrappers
# installed on this module's attributes see every call.
CHAINS: dict[str, Chain] = {
    "choquet": Chain("parent", lambda f, s, p, gt: choquet_chain(f, s, gt)),
    "thm2": Chain(
        "parent", lambda f, s, p, gt: thm2_upper(f, s, p["point"], gt), (0, 1, 2)
    ),
    "thm3": Chain(
        "parent",
        lambda f, s, p, gt: thm3_chain(f, s, p["subsimplex"], p["j"], gt),
        (2, 3, 4),
    ),
    "thm4": Chain("subsimplex", lambda f, s, p, gt: thm4_chain(f, s, p["subsimplex"], gt)),
    "thm5": Chain(
        "subsimplex",
        lambda f, s, p, gt: thm5_upper(f, s, p["subsimplex"], gt),
        (0, 1, 2),
    ),
    "thm6": Chain(None, lambda f, s, p, gt: thm6_chain(f, s, p["points"], p["betas"])),
    "cor2": Chain(
        "interval",
        lambda f, s, p, gt: cor2_chain(f, p["a"], p["b"], p["lam"], gt),
        (2, 3, 4),
        one_d=True,
    ),
    "cor3": Chain(
        "window",
        lambda f, s, p, gt: cor3_check(p["p"], p["q"], p["a"], p["b"], p["y"], f, gt),
        one_d=True,
    ),
}


def run_instances(instances, slots: dict[str, int], seeds, mc_samples: int):
    """Run ``(name, (function, simplex, params))`` chain instances in order.

    Every instance on one ground-truth domain must have the same function
    and domain, and they share one ground truth.  ``slots`` maps each domain
    to an index into ``seeds``.  Before any chain runs, the domains of one
    slot are integrated together by
    :func:`~hhbounds.quadrature.ground_truths` on that slot's seed, so their
    Monte Carlo estimates share one weight stream; domains that are the very
    same (function, simplex) objects share one estimate.  Yields ``(name,
    instance, report, recipe)``; ``recipe`` replays the ground truth, and is
    None for a chain without one.
    """
    instances = list(instances)
    pairs: dict[int, dict[tuple, tuple]] = {}  # slot -> object ids -> (f, domain)
    keys: dict[str, tuple] = {}  # domain name -> (slot, object ids)
    for name, (func, simplex, params) in instances:
        domain = CHAINS[name].domain
        if domain is not None and domain not in keys:
            pair = func, DOMAINS[domain](simplex, params)
            ids = id(pair[0]), id(pair[1])
            pairs.setdefault(slots[domain], {}).setdefault(ids, pair)
            keys[domain] = slots[domain], ids
    estimates: dict[tuple, tuple] = {}
    for slot, slot_pairs in pairs.items():
        made = ground_truths(slot_pairs.values(), mc_samples, seeds[slot])
        for ids, est in zip(slot_pairs, made):
            estimates[slot, ids] = est, ground_truth_recipe(est, seeds[slot])
    for name, instance in instances:
        domain = CHAINS[name].domain
        gt, recipe = (None, None) if domain is None else estimates[keys[domain]]
        yield name, instance, CHAINS[name].run(*instance, gt), recipe


# ---------------------------------------------------------------------------
# configuration / result containers
# ---------------------------------------------------------------------------


def _check_type(key: str, value, kind: type, expected: str) -> None:
    """Reject a bool, or a ``value`` of field ``key`` that is not a ``kind``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{key}: expected {expected}, got {value!r}")


def _from_json(value):
    """A JSON value as a config value: lists become tuples, 3.0 becomes 3."""
    if isinstance(value, list):
        return tuple(_from_json(item) for item in value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


_INT_FIELDS = ("trials_per_theorem", "mc_samples", "master_seed")
_LIST_FIELDS = ("dimensions", "theorems", "subsimplex_scales", "function_kinds")


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters.

    ``trials_per_theorem`` is the total number of randomized trials; every
    selected chain is evaluated on every trial (the chain named ``thm3``
    additionally sweeps all subsimplex vertex indices within a trial), and
    trial dimensions cycle round-robin through ``dimensions``.  The interval
    chains (``cor2``, ``cor3``) always run on a per-trial random 1-D
    instance, so they too see exactly ``trials_per_theorem`` cases.
    """

    dimensions: tuple[int, ...] = tuple(range(1, 9))
    trials_per_theorem: int = 10_000
    mc_samples: int = 100_000
    master_seed: int = 20260810
    theorems: tuple[str, ...] = CHAIN_NAMES
    subsimplex_scales: tuple[float, ...] = _DEFAULT_SCALES
    function_kinds: tuple[str, ...] = KINDS

    def validate(self) -> None:
        for key in _INT_FIELDS:
            _check_type(key, getattr(self, key), numbers.Integral, "an integer")
        for key in _LIST_FIELDS:
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key}: expected a list, got {value!r}")
        for scale in self.subsimplex_scales:
            _check_type("subsimplex_scales", scale, numbers.Real, "a number")
        for dim in self.dimensions:
            _check_type("dimensions", dim, numbers.Integral, "an integer")
        if not self.dimensions or any(d < 1 for d in self.dimensions):
            raise ValueError("dimensions must be a nonempty list of integers >= 1")
        if self.trials_per_theorem < 1:
            raise ValueError("trials_per_theorem must be >= 1")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not self.theorems:
            raise ValueError("theorems must be nonempty")
        for name in self.theorems:
            if name not in CHAIN_NAMES:
                raise ValueError(f"theorems: unknown theorem name {name!r}")
        if len(set(self.theorems)) != len(self.theorems):
            raise ValueError("theorems contains duplicates")
        if not self.subsimplex_scales or any(
            not 0.0 < t <= 1.0 for t in self.subsimplex_scales
        ):
            raise ValueError("subsimplex_scales must lie in (0, 1]")
        for kind in self.function_kinds:
            if kind not in KINDS:
                raise ValueError(f"function_kinds: unknown function kind {kind!r}")
        if not self.function_kinds:
            raise ValueError("function_kinds must be nonempty")

    def to_json_dict(self) -> dict:
        return {
            "dimensions": list(self.dimensions),
            "trials_per_theorem": self.trials_per_theorem,
            "mc_samples": self.mc_samples,
            "master_seed": self.master_seed,
            "theorems": list(self.theorems),
            "subsimplex_scales": [float(t) for t in self.subsimplex_scales],
            "function_kinds": list(self.function_kinds),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignConfig":
        """A validated config from parsed JSON; ill-typed values raise ValueError.

        Lists become tuples and integral floats such as 3.0 become ints; every
        other check is :meth:`validate`'s.
        """
        if not isinstance(data, dict):
            raise ValueError("campaign config must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{key: _from_json(value) for key, value in data.items()})
        cfg.validate()
        return cfg


def default_config() -> CampaignConfig:
    """The bundled full-suite configuration."""
    return CampaignConfig()


@dataclass
class CampaignResult:
    """Aggregated campaign outcome.

    ``per_theorem`` maps chain name to a JSON-ready stats dict (counts,
    per-position slack histograms, tightness-ratio summary).  ``failures``
    holds replayable descriptors; it is empty iff every verdict passed.
    ``wall_time_seconds`` is in-memory only and never serialized.
    """

    config: CampaignConfig
    trials: int
    per_theorem: dict[str, dict]
    failures: list[dict] = field(default_factory=list)
    wall_time_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "trials": self.trials,
            "per_theorem": self.per_theorem,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# random instance generation
# ---------------------------------------------------------------------------


#: Draws :func:`random_simplex` makes before giving up.
_SIMPLEX_TRIES = 200


def random_simplex(dim: int, rng: np.random.Generator) -> Simplex:
    """Standard-normal random simplex, filtered to condition number <= COND_LIMIT.

    Near-degenerate simplices probe round-off, not the inequalities, so the
    harness rejects them.
    """
    for _ in range(_SIMPLEX_TRIES):
        V = rng.standard_normal((dim + 1, dim))
        try:
            s = Simplex(V)
        except DegenerateSimplexError:
            continue
        if np.linalg.cond(V[1:] - V[0]) <= COND_LIMIT:
            return s
    raise RuntimeError(
        f"no well-conditioned simplex of dimension {dim} in {_SIMPLEX_TRIES} tries"
    )


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


#: Which of a trial's four ground-truth seeds each domain uses.  The parent
#: and the subsimplex share one weight stream, and so do the cor2 interval
#: and the cor3 window; seeds 1 and 3 are drawn but unused, which keeps the
#: draw order.
_TRIAL_SEED_SLOTS = {"parent": 0, "subsimplex": 0, "interval": 2, "window": 2}


def _build_trial(cfg: CampaignConfig, index: int):
    """Deterministically generate one trial from the master seed.

    Returns ``(dim, seeds, instances)``: the trial's four ground-truth seeds
    (indexed by :data:`_TRIAL_SEED_SLOTS`) and, per chain name, a list of
    instances ``(function, simplex or None, params)``, one per subsimplex
    vertex index for thm3 and one for every other chain.

    The draw order below is part of the determinism contract: simplex
    (with retries), function seed, subsimplex scale, interior point, mixture
    size/weights/points, cor2 interval + split + function seed, cor3
    parameters + function seed, then the four ground-truth seeds.
    """
    dim = cfg.dimensions[index % len(cfg.dimensions)]
    kind = cfg.function_kinds[index % len(cfg.function_kinds)]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(index,))
    )
    s = random_simplex(dim, rng)
    f = random_convex(dim, kind, _draw_seed(rng), simplex=s)
    t_scale = float(cfg.subsimplex_scales[int(rng.integers(len(cfg.subsimplex_scales)))])
    point = rng.dirichlet(np.full(dim + 1, 2.0)) @ s.vertices
    sub_homothety = s.homothety_about_centroid(t_scale)
    sub_centered = s.centered_subsimplex(point, t_scale)

    # Mixture points averaging to the centroid: shift random points so the
    # beta-mixture hits the centroid, then shrink toward it until all points
    # are strictly interior.
    m = int(rng.integers(2, 5))
    betas = rng.dirichlet(np.full(m, 2.0))
    raw_w = rng.standard_exponential((m, dim + 1))
    raw_w /= raw_w.sum(axis=1, keepdims=True)
    shifted = raw_w @ s.vertices
    shifted = shifted + (s.centroid - betas @ shifted)
    w_shift = s.solve_weights(shifted)
    base = 1.0 / (dim + 1)
    w_min = float(w_shift.min())
    gamma = 1.0 if w_min >= 0.0 else min(1.0, 0.9 * base / (base - w_min))
    mix_points = s.centroid + gamma * (shifted - s.centroid)

    a = float(rng.normal(0.0, 1.0))
    b = a + 0.3 + float(rng.exponential(1.0))
    cor2 = {"a": a, "b": b, "lam": float(rng.uniform(0.0, 1.0))}
    cor2_func = random_convex(
        1, kind, _draw_seed(rng), simplex=DOMAINS["interval"](None, cor2)
    )

    p, q = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0))
    a = float(rng.normal(0.0, 1.0))
    b = a + 0.3 + float(rng.exponential(1.0))
    y = float(rng.uniform(0.05, 1.0)) * ((b - a) * min(p, q) / (p + q))
    cor3 = {"p": p, "q": q, "a": a, "b": b, "y": y}
    cor3_func = random_convex(
        1, kind, _draw_seed(rng), simplex=DOMAINS["window"](None, cor3)
    )

    seeds = [int(seed) for seed in rng.integers(0, 2**63, size=4)]
    centered = {"subsimplex": sub_centered}
    instances = {
        "choquet": [(f, s, {})],
        "thm2": [(f, s, {"point": point})],
        "thm3": [(f, s, {"subsimplex": sub_homothety, "j": j}) for j in range(dim + 1)],
        "thm4": [(f, s, centered)],
        "thm5": [(f, s, centered)],
        "thm6": [(f, s, {"points": mix_points, "betas": betas})],
        "cor2": [(cor2_func, None, cor2)],
        "cor3": [(cor3_func, None, cor3)],
    }
    return dim, seeds, instances


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def tightness_ratio(values, triple, tolerance: float = TOL_CHAIN) -> float | None:
    """(refined - mean) / (classical - mean); None when the gap degenerates.

    The gap counts as degenerate when it does not clear ``tolerance`` (the
    report's verdict tolerance: 1e-8, or 4 std errors for Monte Carlo
    ground truth; see :func:`~hhbounds.chains.chain_tolerance`).  With that guard the ratio is at most 1: the refined
    bound never exceeds the classical one and both terms share the same
    mean estimate.
    """
    mean_idx, refined_idx, classical_idx = triple
    denom = values[classical_idx] - values[mean_idx]
    if denom <= tolerance:
        return None
    return (values[refined_idx] - values[mean_idx]) / denom


class _ChainAgg:
    def __init__(self, name: str) -> None:
        self.triple = CHAINS[name].tightness
        self.evaluations = 0
        self.passes = 0
        self.failures = 0
        self.slack_values: list[list[float]] = []
        self.ratios: list[float] = []
        self.ratio_nulls = 0

    def record(self, report: ChainReport) -> None:
        self.evaluations += 1
        if report.passed:
            self.passes += 1
        else:
            self.failures += 1
        for pos, slack in enumerate(report.slacks):
            if pos == len(self.slack_values):
                self.slack_values.append([])
            self.slack_values[pos].append(slack)
        if self.triple is not None:
            ratio = tightness_ratio(report.values, self.triple, report.tolerance_used)
            if ratio is None:
                self.ratio_nulls += 1
            else:
                self.ratios.append(ratio)

    def summary(self) -> dict:
        slacks = [
            {
                "position": pos,
                "n": len(values),
                "min": float(np.min(values)),
                "p50": float(np.median(values)),
                "max": float(np.max(values)),
            }
            for pos, values in enumerate(self.slack_values)
        ]
        data: dict = {
            "evaluations": self.evaluations,
            "passes": self.passes,
            "failures": self.failures,
            "slacks": slacks,
            "tightness": None,
        }
        if self.triple is not None:
            ratios = self.ratios
            data["tightness"] = {
                "n": len(ratios),
                "nulls": self.ratio_nulls,
                "min": float(np.min(ratios)) if ratios else None,
                "p50": float(np.median(ratios)) if ratios else None,
                "max": float(np.max(ratios)) if ratios else None,
            }
        return data


def _descriptor(name: str, where: dict, instance, report: ChainReport, recipe) -> dict:
    """The replayable descriptor of one chain run on ``instance``.

    ``where`` locates it (``{"trial", "dimension"}`` for a campaign failure,
    ``{"dimension": 1}`` for a cor3 witness) and ``recipe`` replays its
    ground truth; :func:`replay_failure` reads the descriptor back.
    """
    func, simplex, params = instance
    descriptor = {
        "chain": name,
        **where,
        "function": func.to_json_dict(),
        "params": {
            key: value.to_json_dict() if isinstance(value, Simplex)
            else value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in params.items()
        },
        "ground_truth": recipe,
        "verdict": report.verdict,
        "slacks": list(report.slacks),
        "tolerance": report.tolerance_used,
    }
    if simplex is not None:
        descriptor["simplex"] = simplex.to_json_dict()
    return descriptor


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run every selected chain on every trial; failures are data, not errors."""
    cfg.validate()
    start = time.perf_counter()
    aggs = {name: _ChainAgg(name) for name in cfg.theorems}
    failures: list[dict] = []
    for index in range(cfg.trials_per_theorem):
        dim, seeds, instances = _build_trial(cfg, index)
        selected = ((name, inst) for name in cfg.theorems for inst in instances[name])
        for name, instance, report, recipe in run_instances(
            selected, _TRIAL_SEED_SLOTS, seeds, cfg.mc_samples
        ):
            aggs[name].record(report)
            if not report.passed:
                where = {"trial": index, "dimension": dim}
                failures.append(_descriptor(name, where, instance, report, recipe))
    per_theorem = {name: aggs[name].summary() for name in cfg.theorems}
    return CampaignResult(
        config=cfg,
        trials=cfg.trials_per_theorem,
        per_theorem=per_theorem,
        failures=failures,
        wall_time_seconds=time.perf_counter() - start,
    )


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


#: How descriptor params are read back; every other param is a float.
_PARAM_DECODERS = {
    "subsimplex": Simplex.from_json_dict,
    "j": int,
    "point": _floats,
    "points": _floats,
    "betas": _floats,
}


def replay_failure(descriptor: dict, mc_samples: int | None = None) -> ChainReport:
    """Re-run one failure (or witness) descriptor, reproducing it exactly.

    The descriptor is self-contained; replaying with the recorded seeds and
    sample counts reproduces the verdict and slacks bit-for-bit.
    """
    name = descriptor["chain"]
    if name not in CHAINS:
        raise ValueError(f"unknown chain name {name!r}")
    chain = CHAINS[name]
    func = ConvexFunction.from_json_dict(descriptor["function"])
    simplex = descriptor.get("simplex")
    if simplex is not None:
        simplex = Simplex.from_json_dict(simplex)
    params = {
        key: _PARAM_DECODERS.get(key, float)(value)
        for key, value in descriptor["params"].items()
    }
    recipe = descriptor.get("ground_truth")
    gt = None
    if chain.domain is not None and recipe is not None:
        domain = DOMAINS[chain.domain](simplex, params)
        gt = replay_ground_truth(func, domain, recipe, mc_samples)
    return chain.run(func, simplex, params, gt)


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------


def tightness_table(result: CampaignResult) -> list[dict]:
    """Per-chain distribution of (refined upper - mean)/(classical - mean).

    Ratios in [0, 1] quantify how much a refined bound improves on the
    classical one; degenerate gaps (affine functions) are counted as nulls.
    Requires the baseline ``choquet`` chain plus at least one refined chain
    in the result.
    """
    per = result.per_theorem
    if "choquet" not in per:
        raise MissingBaselineError("result lacks the choquet baseline chain")
    rows = [
        {"theorem": name, **per[name]["tightness"]}
        for name in CHAIN_NAMES
        if name in per and per[name].get("tightness") is not None
    ]
    if not rows:
        raise MissingBaselineError("result contains no refined chain")
    return rows


def slack_histograms_csv(result: CampaignResult) -> str:
    """Slack histograms as CSV: theorem, slack_index, min, p50, max, n."""
    lines = ["theorem,slack_index,min,p50,max,n"]
    for name in CHAIN_NAMES:
        if name not in result.per_theorem:
            continue
        for row in result.per_theorem[name]["slacks"]:
            lo, mid, hi = row["min"], row["p50"], row["max"]
            lines.append(f"{name},{row['position']},{lo!r},{mid!r},{hi!r},{row['n']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# counterexample search (necessity direction of the cor3 condition)
# ---------------------------------------------------------------------------


def _hinge_slack(
    kink: float, p: float, q: float, a: float, b: float, lo: float, hi: float
) -> float:
    """cor3 upper slack of the unit hinge ``max(0, x - kink)``.

    The window ``[lo, hi]`` mean comes from :func:`~hhbounds.quadrature._hinge_mean`,
    the closed form :func:`~hhbounds.quadrature.integrate_exact` uses, so
    this is the slack the witness is certified with.
    """
    f_a = max(0.0, a - kink)
    f_b = max(0.0, b - kink)
    mean = _hinge_mean([lo - kink, hi - kink])
    return (p * f_a + q * f_b) / (p + q) - mean


def search_cor3_counterexample(
    p: float,
    q: float,
    a: float,
    b: float,
    y: float,
    budget: int,
    seed: int,
) -> dict | None:
    """Search hinge functions violating the cor3 chain when the condition fails.

    Candidates are unit hinges ``max(0, x - kink)`` parameterized by kink
    location, scored by the exact cor3 upper slack they would be certified
    with (:func:`_hinge_slack`): a grid sweep, then seeded random
    refinement around the best kink, examining exactly ``budget``
    candidates.  The mirrored hinge ``max(0, kink - x)`` differs from this
    one by an affine function, whose cor3 slacks are zero because the
    window is centred at ``A``, so it would score the same.  The best one
    is certified by the ``cor3`` entry of :data:`CHAINS` with its exact
    window mean (:func:`~hhbounds.quadrature.integrate_exact`), and a
    witness descriptor (replayable via :func:`replay_failure`) is returned
    only if its slack is negative beyond the report tolerance.  Returns
    None when the budget is exhausted without a certifiable violation.
    """
    p, q, a, b, y = float(p), float(q), float(a), float(b), float(y)
    if p <= 0.0 or q <= 0.0 or y <= 0.0:
        raise ValueError("p, q and y must be positive")
    if not a <= b:
        raise ValueError("need a <= b")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if cor3_condition_holds(p, q, a, b, y):
        raise ConditionNotViolatedError(
            "window-width condition holds; the chain is valid for every convex f"
        )
    params = {"p": p, "q": q, "a": a, "b": b, "y": y}
    window = DOMAINS["window"](None, params)
    lo, hi = (float(x) for x in window.vertices[:, 0])
    span_lo, span_hi = min(lo, a), max(hi, b)
    grid_size = min(budget, 1024)
    best, kink = min(
        ((_hinge_slack(k, p, q, a, b, lo, hi), k)
         for k in np.linspace(span_lo, span_hi, grid_size).tolist()),
        key=lambda scored: scored[0],
    )
    # Random refinement around the best kink found so far.
    rng = np.random.default_rng(seed)
    radius = (span_hi - span_lo) / max(grid_size - 1, 1)
    for _ in range(budget - grid_size):
        trial = kink + radius * float(rng.standard_normal())
        score = _hinge_slack(trial, p, q, a, b, lo, hi)
        if score < best:
            best, kink = score, trial
            radius *= 0.7

    func = ConvexFunction(
        kind="hinge_distance",
        params={"slope": [1.0], "threshold": kink},
        label="hinge-witness",
    )
    instance = func, None, params
    gt = integrate_exact(func, window)
    report = CHAINS["cor3"].run(*instance, gt)
    worst = min(report.slacks)
    if worst >= -report.tolerance_used:
        return None
    witness = _descriptor(
        "cor3", {"dimension": 1}, instance, report, ground_truth_recipe(gt, None)
    )
    witness.update(kink=kink, slack=worst, candidates_examined=budget)
    return witness
