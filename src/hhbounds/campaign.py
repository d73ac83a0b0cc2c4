"""Randomized verification campaigns and tightness statistics.

Chain instances ``(function, simplex or None, params)`` run by the one
chain table, :data:`~hhbounds.chains.CHAINS`, in the two steps of
:mod:`hhbounds.chains`: their ground truths, one per domain, then
:func:`~hhbounds.chains.chain_reports`.  :func:`replay_failure` takes the
second step; the ground-truth policy (exact, cubature or Monte Carlo) and
its replay recipes live in :mod:`hhbounds.quadrature`.  A campaign builds
up to :data:`TRIAL_BLOCK` consecutive trials as one block, takes each
trial's ground truths in the domains the trial built (its parent simplex
and subsimplex on one seed, its cor2 interval and cor3 window on another),
and evaluates the block's chains at once
(:func:`~hhbounds.chains.evaluate_block`), whose rows come a (chain,
dimension) stack at a time; every value gets the bits it gets in a block
of one.  The blocks run in :data:`WORKERS` consecutive shares, on this
process and forked children, and are recorded in block order.

A campaign draws, per trial, a well-conditioned random simplex, a random
convex function, subsimplex parameters and 1-D companion instances for the
interval chains, and evaluates every selected chain.  Trials derive child
seeds from the master seed through a counter-based splittable scheme
(``numpy.random.SeedSequence`` with the trial index as spawn key), so the
campaign is deterministic in the master seed, trials are independent, and
aggregation order does not matter.  Each function draws as
``numpy.random.default_rng`` does on a seed its trial drew.  A block does
not build these generators one at a time: :func:`_pcg64_states` computes
every trial's PCG64 state, then every function's, in one numpy pass of
SeedSequence's hash, and one generator is set to each in turn; the
Dirichlet draws take numpy's own gamma form.  The bits, and the contract
that trial ``i`` depends only on ``(master_seed, i)``, are numpy's.

Failures are recorded as self-contained descriptors (simplex, function,
chain parameters, ground-truth recipe) in the shape of an instance, built
by the same code as a cor3 witness
(:func:`~hhbounds.chains.search_cor3_counterexample`), and
:func:`replay_failure` re-runs one descriptor bit-for-bit, also once read
back from a result file: floats are written as their shortest round-trip
``repr``, so ``-0.0`` and ``1.0`` come back as written.

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
    _descriptor,
    _ground_truths,
    chain_reports,
    evaluate_block,
    cor3_max_halfwidth,
    window_vertices,
)
from .errors import MissingBaselineError, PointOutsideSimplexError, WorkerError
from .funcs import KINDS, ConvexFunction, _dirichlet, convex_functions, random_params
from .funcs import random_convex  # noqa: F401  (perfbench wraps it under this module)
from .geometry import Simplex, scaled_copies, simplices, solve_stacked
from .quadrature import ground_truth_recipe, replay_ground_truth
from .serialize import dumps
from .tolerances import COND_LIMIT, TOL_CHAIN

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "default_config",
    "random_simplex",
    "replay_failure",
    "run_campaign",
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
    """The bundled full-suite configuration.

    Trial ``i`` draws ``dimensions[i % 8]`` and ``function_kinds[i % 6]``,
    so its parent simplices meet only 24 of the 48 (dimension, kind) pairs:
    ``affine``, ``max_of_affines`` and ``log_sum_exp`` odd dimensions only,
    the other three kinds even dimensions only.
    """
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (numpy/random/src/pcg64), which _pcg64_states reproduces.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: 32-bit words, low first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _entropy_words(entropy: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """The words ``SeedSequence(entropy, spawn_key=spawn_key)`` hashes: when
    spawned, its entropy padded to the pool's 4 words, then the key's."""
    words = _words(int(entropy))
    if spawn_key:
        words += [0] * (4 - len(words))
        for key in spawn_key:
            words += _words(key)
    return words


def _pcg64_states(entropies: list[list[int]]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(e))`` for each ``e`` in
    ``entropies``, each given as the words SeedSequence assembles from its
    entropy and spawn key, all in one numpy pass per row length.

    A row shorter than SeedSequence's pool of 4 words reads as if padded
    with zero words, as in numpy's hash.  uint32 arithmetic wraps as the
    hash's C does; PCG64's 128-bit seeding step runs on Python ints."""
    out: list = [None] * len(entropies)
    by_length: dict[int, list[int]] = {}
    for t, row in enumerate(entropies):
        by_length.setdefault(max(4, len(row)), []).append(t)
    for length, ts in by_length.items():
        entropy = np.zeros((length, len(ts)), dtype=np.uint32)
        for column, t in enumerate(ts):
            entropy[:len(entropies[t]), column] = entropies[t]
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ np.uint32(hash_const)
            hash_const = hash_const * _MULT_A & _MASK32
            value *= np.uint32(hash_const)
            return value ^ (value >> 16)

        def mix(x, y):
            result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
            return result ^ (result >> 16)

        pool = [hashmix(entropy[i]) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(4, length):
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(entropy[src]))
        hash_const, state = _INIT_B, []  # generate_state(4, np.uint64)
        for i in range(8):
            value = pool[i % 4] ^ np.uint32(hash_const)
            hash_const = hash_const * _MULT_B & _MASK32
            value *= np.uint32(hash_const)
            state.append((value ^ (value >> 16)).astype(np.uint64))
        words64 = [(state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
        for t, seed_hi, seed_lo, seq_hi, seq_lo in zip(ts, *words64):
            # pcg64_set_seed: inc = seq << 1 | 1; two steps from state 0, seed added after one
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            out[t] = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128, inc
    return out


def _seeded(rng: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """``rng``, its PCG64 set to ``(state, inc)`` as numpy's seeding leaves it."""
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state[0], "inc": state[1]}}
    return rng


def _draw_trial(cfg: CampaignConfig, index: int, rng: np.random.Generator, retry: bool = False):
    """The seeded draws of trial ``index`` from ``rng``, in the state
    ``SeedSequence(master_seed, spawn_key=(index,))`` seeds, in the order of the
    determinism contract: simplex (with retries), function seed, subsimplex
    scale, interior point, mixture size/weights/points, cor2 interval + split +
    function seed, cor3 parameters + function seed, then three ground-truth seeds
    (one unused).  The vertices are :func:`random_simplex`'s first try, or with
    ``retry`` the ``parent`` it accepts.  Each function is left as ``(kind, dim,
    seed, vertices)``, for the block to draw from its own seed."""
    dim = cfg.dimensions[index % len(cfg.dimensions)]
    kind = cfg.function_kinds[index % len(cfg.function_kinds)]
    parent = random_simplex(dim, rng) if retry else None
    V = parent.vertices if retry else rng.standard_normal((dim + 1, dim))
    specs = [(kind, dim, int(rng.integers(0, 2**63)), V)]
    t_scale = float(cfg.subsimplex_scales[int(rng.integers(len(cfg.subsimplex_scales)))])
    point = _dirichlet(rng, dim + 1) @ V
    m = int(rng.integers(2, 5))
    betas = _dirichlet(rng, m)
    raw_w = rng.standard_exponential((m, dim + 1))
    raw_w /= raw_w.sum(axis=1, keepdims=True)
    shifted = raw_w @ V

    a = float(rng.normal(0.0, 1.0))
    b = a + 0.3 + float(rng.exponential(1.0))
    cor2 = {"a": a, "b": b, "lam": float(rng.uniform(0.0, 1.0))}
    interval = np.array([[a], [b]])
    specs.append((kind, 1, int(rng.integers(0, 2**63)), interval))

    p, q = float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0))
    a = float(rng.normal(0.0, 1.0))
    b = a + 0.3 + float(rng.exponential(1.0))
    y = float(rng.uniform(0.05, 1.0)) * cor3_max_halfwidth(p, q, a, b)
    cor3 = {"p": p, "q": q, "a": a, "b": b, "y": y}
    window = np.array(window_vertices(cor3))
    specs.append((kind, 1, int(rng.integers(0, 2**63)), window))

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
    Each trial draws alone (:func:`_draw_trial`; again from its own state,
    with every simplex try, if its parent fails the first), and each
    function from its own seed, on one generator whose states
    :func:`_pcg64_states` computes for the whole block, first the trials'
    and then the functions'; checks and geometry run stacked per dimension,
    with the bits of a block of one."""
    indices = list(indices)
    rng = np.random.Generator(np.random.PCG64(0))
    states = _pcg64_states([_entropy_words(cfg.master_seed, (index,)) for index in indices])
    draws = [_draw_trial(cfg, index, _seeded(rng, state))
             for index, state in zip(indices, states)]
    by_dim: dict[int, list[int]] = {}
    for t, drawn in enumerate(draws):
        by_dim.setdefault(drawn["dim"], []).append(t)
    for ts in by_dim.values():
        for t, s in zip(ts, simplices([draws[t]["vertices"] for t in ts], COND_LIMIT)):
            if isinstance(s, Simplex):
                draws[t]["parent"] = s
            else:  # drawn again, random_simplex making every try
                draws[t] = _draw_trial(cfg, indices[t], _seeded(rng, states[t]), retry=True)
    domains_1d = simplices([v for drawn in draws for v in drawn["domains_1d"]], strict=True)
    specs = [spec for drawn in draws for spec in drawn["specs"]]
    states = _pcg64_states([_entropy_words(seed) for _, _, seed, _ in specs])
    functions = convex_functions([
        (kind, *random_params(dim, kind, seed, V, _seeded(rng, state)))
        for (kind, dim, seed, V), state in zip(specs, states)
    ])
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
    ground truth; see :func:`~hhbounds.chains.chain_tolerance`).  The refined
    bound never exceeds the classical one and both terms share the same mean
    estimate, so the ratio is at most 1 up to the rounding of the terms; over
    a gap that only just clears the tolerance that rounding can put it above
    1 (thm3 read 1.0000000022639286 on a 1-D cubature interval).  It is
    returned as computed, not clipped.
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
    """One chain's verdicts, slacks and tightness ratios, a stack at a time
    and in any row order: it keeps counts, min, median and max."""

    def __init__(self, name: str) -> None:
        self.triple = CHAINS[name].tightness
        self.passed: list[np.ndarray] = []
        self.slacks: list[np.ndarray] = []
        self.ratios: list[np.ndarray] = []
        self.ratio_nulls = 0

    def record(self, passed, slacks, ratios, nulls) -> None:
        """Add one stack's verdicts, slacks and :func:`_stack_ratios`."""
        self.passed.append(passed)
        self.slacks.append(slacks)
        if ratios is not None:
            self.ratios.append(ratios)
            self.ratio_nulls += nulls

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


def _stack_ratios(rows) -> tuple[np.ndarray | None, int]:
    """The tightness ratios of a stack's rows (see
    :class:`~hhbounds.chains.ChainRows`) whose gap clears their tolerance,
    and the count of those whose gap does not: :func:`tightness_ratio`, row
    by row.  ``None, 0`` for a chain without a tightness triple."""
    triple = CHAINS[rows.name].tightness
    if triple is None:
        return None, 0
    mean, refined, classical = (rows.values[:, k] for k in triple)
    denom = classical - mean
    null = denom <= rows.tolerances
    return (refined - mean)[~null] / denom[~null], int(null.sum())


def _run_block(cfg: CampaignConfig, indices: range) -> tuple[list, list]:
    """Build the trials ``indices`` as one block, take their ground truths
    and evaluate their chains as one block.  Returns the ``(name, (passed,
    slacks, ratios, nulls))`` rows of each (chain, dimension) stack (see
    :func:`_stack_ratios`) and the descriptors of the failed rows, in trial
    order."""
    built = _build_block(cfg, indices)
    selected = [[(name, inst) for name in cfg.theorems for inst in instances[name]]
                for _, _, instances, _ in built]
    found = [_ground_truths(sel, seeds, cfg.mc_samples, domains)
             for sel, (_, seeds, _, domains) in zip(selected, built)]
    block = evaluate_block(selected, found)
    failing = [(rows.sets[r], rows.positions[r], rows, r)
               for rows in block for r in np.flatnonzero(~rows.passed)]
    failures = []
    for t, i, rows, r in sorted(failing, key=lambda row: row[:2]):
        dim, seeds = built[t][:2]
        gt = found[t][i]
        recipe = None if gt is None else ground_truth_recipe(gt, seeds[CHAINS[rows.name].domain])
        failures.append(_descriptor(rows.name, {"trial": indices[t], "dimension": dim},
                                    selected[t][i][1], rows.report(r), recipe))
    return [(rows.name, (rows.passed, rows.slacks, *_stack_ratios(rows)))
            for rows in block], failures


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


def _run_blocks(cfg: CampaignConfig, blocks: list) -> list:
    """:func:`_run_block` of each block, in block order.

    Share ``w`` of ``P = min(WORKERS, len(blocks))`` consecutive shares of
    near-equal length runs on forked child ``w``, which sends its results
    through a pipe after its last block and ends before its next block if
    this process dies; share 0 runs here.  The error raised is the earliest
    block's, as in a serial run: this process raises its own at once, then
    reads the children in order (:class:`~hhbounds.errors.WorkerError` for
    a child that ends without sending its results).  On any error here, or
    an interrupt, the children still running are killed, and every child is
    reaped before this returns.  The blocks run here, one after another,
    when ``P < 2``, without ``os.fork``, or while other threads run (a
    forked child would hold only the thread that forked it).
    """
    P = min(WORKERS, len(blocks)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    shares = [blocks[w * len(blocks) // P:(w + 1) * len(blocks) // P] for w in range(P)]
    workers: list[list] = []  # [pid, or None once reaped; the pipe it writes]
    caller = os.getpid()
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                # status 0 only once the whole share is written; with its copy
                # of the read end closed, a write to a caller that died fails
                status = 1
                try:
                    os.close(read)
                    # streamed, so no copy of the whole payload is made here,
                    # at protocol 4: an array pickled in-band at protocol 5
                    # unpickles with about 680 bytes of overhead, at 4 about 200
                    with open(write, "wb") as pipe:
                        pickle.dump(_run_share(cfg, share, caller), pipe, protocol=4)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            workers.append([pid, open(read, "rb")])
        results, error = _run_share(cfg, shares[0])
        for worker in workers:
            if error is not None:
                break
            payload = worker[1].read()
            status = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
            worker[0] = None
            if status != 0:
                raise WorkerError(
                    f"a campaign worker ended without sending its blocks (exit status {status})"
                )
            done, error = pickle.loads(payload)
            results += done
    finally:
        for pid, pipe in workers:
            pipe.close()
            if pid is not None:  # running, or exited and not yet reaped
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    if error is not None:
        raise error
    return results


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run every selected chain on every trial; failures are data, not errors.

    The trials are split into ``P * ceil(trials / (P * TRIAL_BLOCK))``
    consecutive blocks of near-equal size (no more blocks than trials), with
    ``P`` = :data:`WORKERS`, and each block is built and evaluated as one,
    in ``P`` consecutive shares (:func:`_run_blocks`); the blocks are
    recorded in order, a (chain, dimension) stack at a time.
    """
    cfg.validate()
    start = time.perf_counter()
    trials = cfg.trials_per_theorem
    count = min(trials, WORKERS * -(-trials // (WORKERS * TRIAL_BLOCK)))
    blocks = [range(b * trials // count, (b + 1) * trials // count) for b in range(count)]
    aggs = {name: _ChainAgg(name) for name in cfg.theorems}
    failures: list[dict] = []
    for stacks, failed in _run_blocks(cfg, blocks):
        for name, rows in stacks:
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
    A ratio can exceed 1 by rounding over a small gap (see
    :func:`tightness_ratio`), and the ``max`` reports it unclipped.
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
