"""Randomized verification campaigns, tightness statistics, and 1-D
counterexample search for the conditional weighted-endpoint chain.

:func:`run_instances` runs chain instances ``(function, simplex or None,
params)`` by the one chain table, :data:`~hhbounds.chains.CHAINS`: it
shares one ground truth per domain, integrates the domains of one seed
together, on one Monte Carlo weight stream, before any chain runs, and then
has :func:`~hhbounds.chains.chain_reports` evaluate each function once on
the points of all its chains.  Seeds are keyed by domain name.  ``hh
bounds`` goes through it and :func:`replay_failure` through
``chain_reports``; the ground-truth policy (exact, cubature or Monte Carlo)
and its replay recipes live in :mod:`hhbounds.quadrature`.  A campaign
builds up to :data:`TRIAL_BLOCK` consecutive trials as one block, takes
each trial's ground truths in the same way, in the domains the trial built
(its parent simplex and subsimplex on one seed, its cor2 interval and cor3
window on another), and evaluates the block's chains at once
(:func:`~hhbounds.chains.evaluate_block`); every value gets the bits it
gets in a block of one.  The blocks run on :data:`WORKERS` processes, this
one and forked children, and are recorded in block order.

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
condition.  The worst unit hinge has a closed form: its kink is the
endpoint of ``[a, b]`` nearer the weighted point ``A``, and its upper slack
is ``-(y - h)**2 / (4 y)``.  The search certifies that one hinge as a
``cor3`` chain with its exact window mean, and returns it as a descriptor
built by the same code as a campaign failure.

Wall time is kept on the in-memory result only; the serialized result is a
pure function of the configuration, so rerunning a campaign writes a
byte-identical file.
"""

from __future__ import annotations

import numbers
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    CHAIN_NAMES,
    CHAINS,
    DOMAINS,
    ChainReport,
    chain_reports,
    evaluate_block,
    cor3_condition_holds,
    cor3_max_halfwidth,
    window_vertices,
)
from .errors import (
    ConditionNotViolatedError,
    MissingBaselineError,
    PointOutsideSimplexError,
    WorkerError,
)
from .funcs import KINDS, ConvexFunction, convex_functions, random_params
from .funcs import random_convex  # noqa: F401  (perfbench wraps it under this module)
from .geometry import Simplex, scaled_copies, simplices, solve_stacked
from .quadrature import (
    ground_truth_recipe,
    ground_truths,
    integrate_exact,
    replay_ground_truth,
)
from .serialize import dumps
from .tolerances import COND_LIMIT, TOL_CHAIN

__all__ = [
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
# running instances
# ---------------------------------------------------------------------------


#: Most trials per block (see :func:`run_campaign`); it changes no result,
#: since an instance's bits do not depend on its block.
TRIAL_BLOCK = 128


#: Processes that run a campaign's blocks, this one among them: the CPUs it
#: may run on.  It changes no result, since every trial draws from its own
#: seeds and the blocks are recorded in order.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _ground_truths(instances, seeds: dict[str, int], mc_samples: int, domains: dict):
    """``(estimate, seed)`` of each instance's ground-truth domain, in order
    (``(None, None)`` for thm6); see :func:`run_instances`."""
    sources: dict[str, tuple] = {}  # domain name -> (function, domain input)
    for name, (func, simplex, params) in instances:
        if (domain := CHAINS[name].domain) is not None:
            source = func, DOMAINS[domain].input(simplex, params)
            first = sources.setdefault(domain, source)
            if first[0] is not func or first[1] is not source[1]:
                raise ValueError(
                    f"instances on the {domain} domain must share one function and one {domain}"
                )
    pairs: dict[int, dict[tuple, tuple]] = {}  # seed -> object ids -> (function, domain)
    keys: dict[str, tuple] = {}  # domain name -> (seed, object ids)
    for domain, (func, source) in sources.items():
        built = domains[domain] if domain in domains else DOMAINS[domain].build(source)
        keys[domain] = seeds[domain], (id(func), id(built))
        pairs.setdefault(seeds[domain], {}).setdefault(keys[domain][1], (func, built))
    estimates: dict[tuple, tuple] = {}
    for seed, seed_pairs in pairs.items():
        for ids, est in zip(seed_pairs, ground_truths(seed_pairs.values(), mc_samples, seed)):
            estimates[seed, ids] = est, seed
    return [
        (None, None) if (domain := CHAINS[name].domain) is None else estimates[keys[domain]]
        for name, _ in instances
    ]


def run_instances(instances, seeds: dict[str, int], mc_samples: int, domains: dict):
    """Run ``(name, (function, simplex, params))`` chain instances in order.

    Every instance on one ground-truth domain must have the same function
    object and build the domain from the same object (its
    :data:`~hhbounds.chains.DOMAINS` input: the simplex, the ``subsimplex``
    param, or the params of an interval or window), and they share one
    ground truth; a later instance that differs raises ValueError naming
    the domain.  ``seeds`` and ``domains`` are keyed by domain name; a
    domain the caller did not build is built through ``DOMAINS``.  Before
    any chain runs, the domains of one seed are integrated together by
    :func:`~hhbounds.quadrature.ground_truths`, so their Monte Carlo
    estimates share one weight stream; domains that are the very same
    (function, simplex) objects share one estimate.  Then
    :func:`~hhbounds.chains.chain_reports` calls each function once on the
    points of all its instances.  Yields ``(name, instance, report,
    recipe)``; ``recipe`` replays the ground truth, and is None for a chain
    without one.
    """
    instances = list(instances)
    found = _ground_truths(instances, seeds, mc_samples, domains)
    reports = chain_reports(instances, [gt for gt, _ in found])
    for (name, instance), report, found_gt in zip(instances, reports, found):
        yield name, instance, report, _recipe(*found_gt)


def _recipe(gt, seed) -> dict | None:
    """The replay recipe of a ground truth taken with ``seed``; None without one."""
    return None if gt is None else ground_truth_recipe(gt, seed)


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
        (s,) = simplices(rng.standard_normal((1, dim + 1, dim)), COND_LIMIT)
        if isinstance(s, Simplex):
            return s
    raise RuntimeError(
        f"no well-conditioned simplex of dimension {dim} in {_SIMPLEX_TRIES} tries"
    )


def _draw_trial(cfg: CampaignConfig, index: int, retry: bool = False):
    """The seeded draws of trial ``index``, in the order of the determinism contract:
    simplex (with retries), function seed, subsimplex scale, interior point, mixture
    size/weights/points, cor2 interval + split + function seed, cor3 parameters +
    function seed, then three ground-truth seeds (one unused).  The vertices are
    :func:`random_simplex`'s first try, or with ``retry`` the ``parent`` it accepts."""
    dim = cfg.dimensions[index % len(cfg.dimensions)]
    kind = cfg.function_kinds[index % len(cfg.function_kinds)]
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(index,))
    )
    parent = random_simplex(dim, rng) if retry else None
    V = parent.vertices if retry else rng.standard_normal((dim + 1, dim))
    specs = [(kind, *random_params(dim, kind, int(rng.integers(0, 2**63)), V))]
    t_scale = float(cfg.subsimplex_scales[int(rng.integers(len(cfg.subsimplex_scales)))])
    point = rng.dirichlet(np.full(dim + 1, 2.0)) @ V
    m = int(rng.integers(2, 5))
    betas = rng.dirichlet(np.full(m, 2.0))
    raw_w = rng.standard_exponential((m, dim + 1))
    raw_w /= raw_w.sum(axis=1, keepdims=True)
    shifted = raw_w @ V

    a = float(rng.normal(0.0, 1.0))
    b = a + 0.3 + float(rng.exponential(1.0))
    cor2 = {"a": a, "b": b, "lam": float(rng.uniform(0.0, 1.0))}
    interval = np.array([[a], [b]])
    specs.append((kind, *random_params(1, kind, int(rng.integers(0, 2**63)), interval)))

    p, q = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0))
    a = float(rng.normal(0.0, 1.0))
    b = a + 0.3 + float(rng.exponential(1.0))
    y = float(rng.uniform(0.05, 1.0)) * cor3_max_halfwidth(p, q, a, b)
    cor3 = {"p": p, "q": q, "a": a, "b": b, "y": y}
    window = np.array(window_vertices(cor3))
    specs.append((kind, *random_params(1, kind, int(rng.integers(0, 2**63)), window)))

    first, _, second = (int(seed) for seed in rng.integers(0, 2**63, size=3))
    seeds = {"parent": first, "subsimplex": first, "interval": second, "window": second}
    return {"dim": dim, "parent": parent, "vertices": V, "scale": t_scale, "point": point,
            "betas": betas, "shifted": shifted, "cor2": cor2, "cor3": cor3,
            "domains_1d": (interval, window), "specs": specs, "seeds": seeds}


def _build_block(cfg: CampaignConfig, indices) -> list:
    """Deterministically generate the trials ``indices`` from the master seed.

    Returns, per trial, ``(dim, seeds, instances, domains)``: per chain
    name, a list of instances ``(function, simplex or None, params)``, one
    per subsimplex vertex index for thm3 and one for every other chain; and
    by :data:`~hhbounds.chains.DOMAINS` name, each ground-truth seed and
    domain (the cor2 interval and cor3 window its functions were drawn on).
    The parent and subsimplex share a seed, as do the interval and window.
    Each trial draws alone (:func:`_draw_trial`); checks and geometry run
    stacked per dimension, with the bits of a block of one."""
    indices = list(indices)
    draws = [_draw_trial(cfg, index) for index in indices]
    by_dim: dict[int, list[int]] = {}
    for t, drawn in enumerate(draws):
        by_dim.setdefault(drawn["dim"], []).append(t)
    for ts in by_dim.values():
        for t, s in zip(ts, simplices([draws[t]["vertices"] for t in ts], COND_LIMIT)):
            if isinstance(s, Simplex):
                draws[t]["parent"] = s
            else:  # drawn again, random_simplex making every try
                draws[t] = _draw_trial(cfg, indices[t], retry=True)
    domains_1d = simplices([v for drawn in draws for v in drawn["domains_1d"]], strict=True)
    functions = convex_functions([spec for drawn in draws for spec in drawn["specs"]])
    for dim, ts in by_dim.items():
        # Mixture points averaging to the centroid: shift random points so the
        # beta-mixture hits the centroid, then shrink toward it until all are
        # strictly interior.  One solve weighs every pin point and shifted point.
        parents = [draws[t]["parent"] for t in ts]
        C = np.stack([s.centroid for s in parents])
        for c, t in zip(C, ts):
            shifted = draws[t]["shifted"]
            draws[t]["shifted"] = shifted + (c - draws[t]["betas"] @ shifted)
        rows = [np.vstack((draws[t]["point"], draws[t]["shifted"])) for t in ts]
        sizes = [len(row) for row in rows]
        W = solve_stacked(parents, np.concatenate(rows), np.repeat(np.arange(len(ts)), sizes))
        base, w_min = 1.0 / (dim + 1), []
        for c, t, w in zip(C, ts, np.split(W, np.cumsum(sizes)[:-1])):
            w_min.append(float(w[0].min()))
            gamma = 1.0 if w[1:].min() >= 0.0 else min(1.0, 0.9 * base / (base - w[1:].min()))
            draws[t]["mixture"] = c + gamma * (draws[t]["shifted"] - c)
        if not (least := min(w_min)) > 0.0:
            raise PointOutsideSimplexError(f"center point is not interior (min weight {least:.3e})")
        # The thm3 homothety c + t (V - c), and the subsimplex p + t' (V - c)
        # centred at the pin point p, t' = t (n+1) min_k w_k(p) (see Simplex).
        scales = np.array([draws[t]["scale"] for t in ts])
        fitted = scales * ((dim + 1) * np.array(w_min))
        P = np.stack([draws[t]["point"] for t in ts])
        subs = scaled_copies(parents * 2, np.concatenate((C, P)), np.concatenate((scales, fitted)))
        for k, t in enumerate(ts):
            draws[t]["homothety"], draws[t]["centred"] = subs[k], subs[len(ts) + k]
    trials = []
    for t, drawn in enumerate(draws):
        dim, s, f, cor2_func, cor3_func = drawn["dim"], drawn["parent"], *functions[3 * t:3 * t + 3]
        centered = {"subsimplex": drawn["centred"]}
        instances = {
            "choquet": [(f, s, {})],
            "thm2": [(f, s, {"point": drawn["point"]})],
            "thm3": [(f, s, {"subsimplex": drawn["homothety"], "j": j}) for j in range(dim + 1)],
            "thm4": [(f, s, centered)],
            "thm5": [(f, s, centered)],
            "thm6": [(f, s, {"points": drawn["mixture"], "betas": drawn["betas"]})],
            "cor2": [(cor2_func, None, drawn["cor2"])],
            "cor3": [(cor3_func, None, drawn["cor3"])],
        }
        domains = dict(zip(("parent", "subsimplex", "interval", "window"),
                           (s, drawn["centred"], *domains_1d[2 * t:2 * t + 2])))
        trials.append((dim, drawn["seeds"], instances, domains))
    return trials


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def tightness_ratio(values, triple, tolerance: float = TOL_CHAIN) -> float | None:
    """(refined - mean) / (classical - mean); None when the gap degenerates.

    The gap counts as degenerate when it does not clear ``tolerance`` (the
    report's verdict tolerance: 1e-8, or 4 std errors for Monte Carlo
    ground truth; see :func:`~hhbounds.chains.chain_tolerance`).  With that
    guard the ratio is at most 1 up to rounding: the refined bound never
    exceeds the classical one and both terms share the same mean estimate.
    """
    mean_idx, refined_idx, classical_idx = triple
    denom = values[classical_idx] - values[mean_idx]
    if denom <= tolerance:
        return None
    return (values[refined_idx] - values[mean_idx]) / denom


def _spread(values: np.ndarray) -> dict:
    return {"min": float(np.min(values)), "p50": float(np.median(values)),
            "max": float(np.max(values))}


class _ChainAgg:
    """One chain's verdicts, slacks and tightness ratios, a block at a time
    and in any row order: it keeps counts, min, median and max."""

    def __init__(self, name: str) -> None:
        self.triple = CHAINS[name].tightness
        self.passed: list[np.ndarray] = []
        self.slacks: list[np.ndarray] = []
        self.ratios: list[np.ndarray] = []
        self.ratio_nulls = 0

    def record(self, passed, slacks, values, tolerances) -> None:
        """Add a block's rows (see :class:`~hhbounds.chains.ChainRows`)."""
        self.passed.append(passed)
        self.slacks.append(slacks)
        if self.triple is not None:  # tightness_ratio, row by row
            mean, refined, classical = (values[:, k] for k in self.triple)
            denom = classical - mean
            null = denom <= tolerances
            self.ratio_nulls += int(null.sum())
            self.ratios.append((refined - mean)[~null] / denom[~null])

    def summary(self) -> dict:
        passed = np.concatenate(self.passed)
        data: dict = {
            "evaluations": len(passed),
            "passes": int(passed.sum()),
            "failures": int((~passed).sum()),
            "slacks": [
                {"position": pos, "n": len(values), **_spread(values)}
                for pos, values in enumerate(np.concatenate(self.slacks).T)
            ],
            "tightness": None,
        }
        if self.triple is not None:
            ratios = np.concatenate(self.ratios)
            data["tightness"] = {"n": len(ratios), "nulls": self.ratio_nulls, **(
                _spread(ratios) if len(ratios) else dict.fromkeys(("min", "p50", "max")))}
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


def _run_block(cfg: CampaignConfig, indices: range) -> tuple[dict, list]:
    """Build the trials ``indices`` as one block, take their ground truths
    and evaluate their chains as one block.  Returns each chain's
    ``(passed, slacks, values, tolerances)`` rows and the descriptors of the
    failed rows, in trial order."""
    built = _build_block(cfg, indices)
    selected = [[(name, inst) for name in cfg.theorems for inst in instances[name]]
                for _, _, instances, _ in built]
    found = [_ground_truths(sel, seeds, cfg.mc_samples, domains)
             for sel, (_, seeds, _, domains) in zip(selected, built)]
    block = evaluate_block(selected, [[gt for gt, _ in trial] for trial in found])
    failing = []
    for rows in block.values():
        failing += [(rows.sets[r], rows.positions[r], rows, r)
                    for r in np.flatnonzero(~rows.passed)]
    failures = []
    for t, i, rows, r in sorted(failing, key=lambda row: row[:2]):
        where = {"trial": indices[t], "dimension": built[t][0]}
        failures.append(_descriptor(rows.name, where, selected[t][i][1], rows.report(r),
                                    _recipe(*found[t][i])))
    arrays = {name: (rows.passed, rows.slacks, rows.values, rows.tolerances)
              for name, rows in block.items()}
    return arrays, failures


def _run_share(
    cfg: CampaignConfig, blocks, caller: int | None = None
) -> tuple[list, Exception | None]:
    """:func:`_run_block` of each block in order, up to the first that
    raises: the results of the blocks before it, and its error (None if
    none raised).  A forked worker passes its caller's pid: before each
    block it leaves through ``os._exit`` if its parent is no longer that
    caller, which has died."""
    done = []
    for indices in blocks:
        if caller is not None and os.getppid() != caller:
            os._exit(1)
        try:
            done.append(_run_block(cfg, indices))
        except Exception as exc:  # raised by the caller, in block order
            return done, exc
    return done, None


def _worker(cfg: CampaignConfig, blocks, read: int, write: int, caller: int):
    """A forked worker of the process ``caller``: run ``blocks``
    (:func:`_run_share`, which leaves between blocks once ``caller`` has
    died), write the pickled share to the pipe ``write`` and leave through
    ``os._exit``, with status 0 only once the whole share is written.  It
    closes its copy of the pipe's ``read`` end, so a write to a parent that
    died fails."""
    status = 1
    try:
        os.close(read)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(_run_share(cfg, blocks, caller), pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _run_blocks(cfg: CampaignConfig, blocks: list) -> list:
    """:func:`_run_block` of each block, in block order.

    Block ``b`` runs on worker ``b % P``, ``P = min(WORKERS, len(blocks))``.
    Worker 0 is this process; the others are forked children, which send
    their results through a pipe after their last block, and end before
    their next block if this process dies.  The error raised is the
    earliest block's, as in a serial run; a child that ends without
    sending its results raises :class:`~hhbounds.errors.WorkerError`.  On
    any error here, or an interrupt, the children still running are killed,
    and every child is reaped before this returns.  The blocks run here,
    one after another, when ``P < 2``, without ``os.fork``, or while other
    threads run (a forked child would hold only the thread that forked it).
    """
    step = min(WORKERS, len(blocks))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        step = 1
    workers: list[list] = []  # [pid, or None once reaped; the pipe it writes]
    caller = os.getpid()
    try:
        for first in range(1, step):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(cfg, blocks[first::step], read, write, caller)
            os.close(write)
            workers.append([pid, open(read, "rb")])
        shares = [_run_share(cfg, blocks[::step])]
        if shares[0][1] is not None and not shares[0][0]:
            raise shares[0][1]  # block 0 raised: no block can raise before it
        for worker in workers:
            payload = worker[1].read()
            status = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
            worker[0] = None
            if status != 0:
                raise WorkerError(
                    f"a campaign worker ended without sending its blocks (exit status {status})"
                )
            shares.append(pickle.loads(payload))
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid is not None:  # running, or exited and not yet reaped
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    errors = [(w + step * len(done), error)
              for w, (done, error) in enumerate(shares) if error is not None]
    if errors:
        raise min(errors, key=lambda item: item[0])[1]
    return [shares[b % step][0][b // step] for b in range(len(blocks))]


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run every selected chain on every trial; failures are data, not errors.

    The trials are split into ``P * ceil(trials / (P * TRIAL_BLOCK))``
    consecutive blocks of near-equal size (no more blocks than trials), with
    ``P`` = :data:`WORKERS`, and each block is built and evaluated as one
    (:func:`_run_blocks`); the blocks are recorded in order.
    """
    cfg.validate()
    start = time.perf_counter()
    trials = cfg.trials_per_theorem
    count = min(trials, WORKERS * -(-trials // (WORKERS * TRIAL_BLOCK)))
    blocks = [range(b * trials // count, (b + 1) * trials // count) for b in range(count)]
    aggs = {name: _ChainAgg(name) for name in cfg.theorems}
    failures: list[dict] = []
    for arrays, failed in _run_blocks(cfg, blocks):
        for name, rows in arrays.items():
            aggs[name].record(*rows)
        failures += failed
    per_theorem = {name: aggs[name].summary() for name in cfg.theorems}
    return CampaignResult(
        config=cfg,
        trials=trials,
        per_theorem=per_theorem,
        failures=failures,
        wall_time_seconds=time.perf_counter() - start,
    )


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _vertex_index(value) -> int:
    """thm3's ``j`` read back: an integer, or a float with an integer value."""
    integral = isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"j must be an integer, got {value!r}")
    return int(value)


#: How descriptor params are read back; every other param is a float.
_PARAM_DECODERS = {
    "subsimplex": Simplex.from_json_dict,
    "j": _vertex_index,
    "point": _floats,
    "points": _floats,
    "betas": _floats,
}


def replay_failure(descriptor: dict) -> ChainReport:
    """Re-run one failure (or witness) descriptor, reproducing it exactly.

    The descriptor is self-contained; replaying with the recorded seeds and
    sample counts reproduces the verdict and slacks bit-for-bit.  A
    descriptor that lacks the simplex or the ground-truth recipe its chain
    needs, or holds a non-integer thm3 ``j``, raises ValueError.
    """
    name = descriptor["chain"]
    if name not in CHAINS:
        raise ValueError(f"unknown chain name {name!r}")
    chain = CHAINS[name]
    func = ConvexFunction.from_json_dict(descriptor["function"])
    simplex = descriptor.get("simplex")
    if simplex is not None:
        simplex = Simplex.from_json_dict(simplex)
    elif not chain.one_d:
        raise ValueError(f"a {name} descriptor needs a simplex")
    params = {
        key: _PARAM_DECODERS.get(key, float)(value)
        for key, value in descriptor["params"].items()
    }
    gt = None
    if chain.domain is not None:
        recipe = descriptor.get("ground_truth")
        if recipe is None:
            raise ValueError(f"a {name} descriptor needs a ground_truth recipe")
        gt = replay_ground_truth(func, DOMAINS[chain.domain](simplex, params), recipe)
    return chain_reports([(name, (func, simplex, params))], [gt])[0]


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


def search_cor3_counterexample(p: float, q: float, a: float, b: float, y: float) -> dict | None:
    """The unit hinge that violates the cor3 chain most, when the condition fails.

    Write ``S(k)`` for the cor3 upper slack of the unit hinge
    ``max(0, x - k)``.  Between consecutive points of ``{a, b, A - y, A + y}``
    its endpoint term is linear in ``k`` and its window mean is convex in
    ``k``, so ``S`` is concave on each piece and its minimum lies at one of
    those four kinks.  It lies at the endpoint of ``[a, b]`` nearer ``A``
    (``a`` on a tie), where ``S = -(y - h)**2 / (4 y)`` with ``h`` the
    :func:`~hhbounds.chains.cor3_max_halfwidth`.  The mirrored hinge
    ``max(0, k - x)`` differs from this one by an affine function, whose
    cor3 slacks are zero because the window is centred at ``A``, so it
    would score the same.  That one hinge is certified as a ``cor3`` chain
    with its exact window mean (:func:`~hhbounds.quadrature.integrate_exact`),
    and a witness descriptor (replayable via :func:`replay_failure`) is
    returned only if its slack is negative beyond the report tolerance;
    otherwise None.
    """
    p, q, a, b, y = float(p), float(q), float(a), float(b), float(y)
    params = {"p": p, "q": q, "a": a, "b": b, "y": y}
    window = DOMAINS["window"](None, params)
    if cor3_condition_holds(p, q, a, b, y):
        raise ConditionNotViolatedError(
            "window-width condition holds; the chain is valid for every convex f"
        )
    centre = (p * a + q * b) / (p + q)
    kink = a if centre - a <= b - centre else b
    func = ConvexFunction(
        kind="hinge_distance",
        params={"slope": [1.0], "threshold": kink},
        label="hinge-witness",
    )
    instance = func, None, params
    gt = integrate_exact(func, window)
    report = chain_reports([("cor3", instance)], [gt])[0]
    worst = min(report.slacks)
    if worst >= -report.tolerance_used:
        return None
    witness = _descriptor(
        "cor3", {"dimension": 1}, instance, report, ground_truth_recipe(gt, None)
    )
    witness.update(kink=kink, slack=worst, candidates_examined=1)
    return witness
