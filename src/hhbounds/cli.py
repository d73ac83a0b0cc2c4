"""Command-line front end.

Subcommands::

    hh bounds SIMPLEX.json FUNCTION.json [--theorem NAME ...] [flags]
    hh campaign [--config CONFIG.json] [--out RESULT.json] [flags]
    hh cor3-search --p P --q Q --a A --b B --y Y [--budget N] [--seed N]
    hh sample SIMPLEX.json [--count N] [--seed N]

Standard output carries only JSON (one object per line for multi-report
output); diagnostics go to standard error.  Exit codes: 0 on success with
all verdicts passing, 1 when any inequality verdict fails, 2 on usage,
parse, or I/O errors.  The environment variable ``HH_SEED`` provides the
default seed of ``bounds``, ``campaign`` and ``sample``; an explicit
``--seed`` flag wins.  ``cor3-search`` computes its witness in closed form
and reads no seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import quadrature
from .chains import (
    CHAINS,
    _ground_truths,
    chain_reports,
    cor3_max_halfwidth,
    search_cor3_counterexample,
)
from .errors import HHBoundsError
from .funcs import ConvexFunction
from .geometry import Simplex
from .serialize import dumps, dumps_lines, read_json


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("HH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"HH_SEED must be an integer, got {env!r}") from exc
    return 0


def _load_simplex(path: str) -> Simplex:
    return Simplex.from_json_dict(read_json(path))


def _load_function(path: str) -> ConvexFunction:
    return ConvexFunction.from_json_dict(read_json(path))


def _parse_point(text: str, s: Simplex) -> np.ndarray:
    if text == "centroid":
        return s.centroid
    coords = [float(part) for part in text.split(",")]
    return np.asarray(coords, dtype=float)


def _chain_seed(base_seed: int, slot: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(slot,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


# ---------------------------------------------------------------------------
# subcommand: bounds
# ---------------------------------------------------------------------------


def _endpoints(s: Simplex) -> tuple[float, float]:
    a, b = sorted(float(v[0]) for v in s.vertices)
    return a, b


def _centred_subsimplex(args: argparse.Namespace, s: Simplex) -> dict:
    return {"subsimplex": s.centered_subsimplex(_parse_point(args.point, s), args.t)}


def _facet_midpoints(args: argparse.Namespace, s: Simplex) -> dict:
    # Facet midpoints with uniform weights: their average is the centroid.
    n, V = s.dimension, s.vertices
    return {"points": (V.sum(axis=0) - V) / n, "betas": np.full(n + 1, 1.0 / (n + 1))}


def _cor2_params(args: argparse.Namespace, s: Simplex) -> dict:
    a, b = _endpoints(s)
    return {"a": a, "b": b, "lam": args.lam}


def _cor3_params(args: argparse.Namespace, s: Simplex) -> dict:
    a, b = _endpoints(s)
    p, q, y = args.cor3_p, args.cor3_q, args.cor3_y
    if y is None:
        y = 0.5 * cor3_max_halfwidth(p, q, a, b)
    return {"p": p, "q": q, "a": a, "b": b, "y": y}


#: Each chain's params, from the arguments and the simplex.  thm4 and thm5
#: share one builder, so one call builds the subsimplex both run on.
_ARGV_PARAMS = {
    "choquet": lambda args, s: {},
    "thm2": lambda args, s: {"point": _parse_point(args.point, s)},
    "thm3": lambda args, s: {"subsimplex": s.homothety_about_centroid(args.t), "j": args.j},
    "thm4": _centred_subsimplex,
    "thm5": _centred_subsimplex,
    "thm6": _facet_midpoints,
    "cor2": _cor2_params,
    "cor3": _cor3_params,
}


def _cmd_bounds(args: argparse.Namespace) -> int:
    s = _load_simplex(args.simplex)
    f = _load_function(args.function)
    if f.dim != s.dimension:
        raise ValueError(
            f"function dimension {f.dim} does not match simplex {s.dimension}"
        )
    seed = _default_seed(args.seed)
    theorems = args.theorem or ["choquet"]
    if s.dimension != 1:
        bad = [t for t in theorems if CHAINS[t].one_d]
        if bad:
            raise ValueError(f"chains {bad} require a 1-D simplex")
    # cor2's interval is the simplex, so it shares the parent's seed
    parent, sub, window = (_chain_seed(seed, slot) for slot in range(3))
    seeds = {"parent": parent, "interval": parent, "subsimplex": sub, "window": window}
    builders = dict.fromkeys(_ARGV_PARAMS[name] for name in theorems)
    params = {build: build(args, s) for build in builders}
    instances = [(name, (f, s, params[_ARGV_PARAMS[name]])) for name in theorems]
    reports = chain_reports(instances, _ground_truths(instances, seeds, args.mc_samples, {}))
    _emit([dumps(r.to_json_dict()) + "\n" for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommand: campaign
# ---------------------------------------------------------------------------


def _cmd_campaign(args: argparse.Namespace) -> int:
    # the one-shot commands never compile the campaign module
    from .campaign import CampaignConfig, default_config, run_campaign, slack_histograms_csv

    if args.config is None:
        cfg = default_config()
    else:
        cfg = CampaignConfig.from_json_dict(read_json(args.config))
    overrides: dict = {}
    if args.seed is not None or os.environ.get("HH_SEED") is not None:
        overrides["master_seed"] = _default_seed(args.seed)
    if args.trials is not None:
        overrides["trials_per_theorem"] = args.trials
    if args.mc_samples is not None:
        overrides["mc_samples"] = args.mc_samples
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    result = run_campaign(cfg)
    _emit([result.to_json() + "\n"], args.out)
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(slack_histograms_csv(result))
    print(
        f"campaign: {result.trials} trials, "
        f"{sum(v['failures'] for v in result.per_theorem.values())} failures, "
        f"{result.wall_time_seconds:.1f}s",
        file=sys.stderr,
    )
    return 0 if result.all_passed else 1


# ---------------------------------------------------------------------------
# subcommand: cor3-search
# ---------------------------------------------------------------------------


def _cmd_cor3_search(args: argparse.Namespace) -> int:
    if args.budget < 1:  # the flag is otherwise ignored, as is --seed
        raise ValueError("budget must be >= 1")
    witness = search_cor3_counterexample(args.p, args.q, args.a, args.b, args.y)
    sys.stdout.write(dumps({"witness": witness}) + "\n")
    return 0


# ---------------------------------------------------------------------------
# subcommand: sample
# ---------------------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    s = _load_simplex(args.simplex)
    # looked up on its module at call time, so wrappers installed there see
    # the call; each block of points is formatted as it is drawn, so no
    # weight or point matrix of all --count rows is ever held
    blocks = quadrature._sample_blocks(s, args.count, _default_seed(args.seed))
    _emit(map(dumps_lines, blocks), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hh",
        description="Bound chains for convex functions on simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate bound chains on one instance")
    p_bounds.add_argument("simplex", help="simplex descriptor JSON file")
    p_bounds.add_argument("function", help="convex function descriptor JSON file")
    p_bounds.add_argument(
        "--theorem", action="append", choices=tuple(CHAINS), metavar="NAME",
        help="chain to evaluate (repeatable); default: choquet",
    )
    p_bounds.add_argument(
        "--point", default="centroid",
        help="'centroid' or comma-separated coordinates (thm2 pin point and "
        "thm4/thm5 subsimplex barycenter)",
    )
    p_bounds.add_argument(
        "--t", type=float, default=0.5,
        help="subsimplex scale in (0,1]: homothety factor for thm3, fraction "
        "of the largest admissible centered scale for thm4/thm5",
    )
    p_bounds.add_argument(
        "--j", type=int, default=0, help="thm3 subsimplex vertex index (0-based)"
    )
    p_bounds.add_argument(
        "--lam", type=float, default=0.5, help="cor2 split parameter in [0,1]"
    )
    p_bounds.add_argument("--cor3-p", type=float, default=1.0, help="cor3 weight p")
    p_bounds.add_argument("--cor3-q", type=float, default=1.0, help="cor3 weight q")
    p_bounds.add_argument(
        "--cor3-y", type=float, default=None,
        help="cor3 window half-width; default: half the admissible maximum",
    )
    p_bounds.add_argument("--seed", type=int, default=None)
    p_bounds.add_argument("--mc-samples", type=int, default=100_000)
    p_bounds.add_argument("--out", default=None, help="output path (default stdout)")

    p_campaign = sub.add_parser("campaign", help="run a randomized campaign")
    p_campaign.add_argument(
        "--config", default=None, help="campaign config JSON (default: built-in)"
    )
    p_campaign.add_argument("--out", default=None, help="result JSON path")
    p_campaign.add_argument("--csv", default=None, help="slack histogram CSV path")
    p_campaign.add_argument("--seed", type=int, default=None, help="master seed override")
    p_campaign.add_argument("--trials", type=int, default=None)
    p_campaign.add_argument("--mc-samples", type=int, default=None)

    p_search = sub.add_parser(
        "cor3-search",
        help="certify the unit hinge that violates the cor3 chain most",
        description="When the window is too wide, certify the unit hinge that "
        "violates the cor3 chain most: its kink is the endpoint of [a, b] nearer "
        "A = (p*a + q*b)/(p + q), in closed form, so there is nothing to search.",
    )
    p_search.add_argument("--p", type=float, required=True)
    p_search.add_argument("--q", type=float, required=True)
    p_search.add_argument("--a", type=float, required=True)
    p_search.add_argument("--b", type=float, required=True)
    p_search.add_argument("--y", type=float, required=True)
    p_search.add_argument(
        "--budget", type=int, default=10_000,
        help="must be >= 1; kept for old callers and otherwise ignored",
    )
    p_search.add_argument(
        "--seed", type=int, default=None, help="kept for old callers and ignored",
    )

    p_sample = sub.add_parser("sample", help="draw uniform points from a simplex")
    p_sample.add_argument("simplex", help="simplex descriptor JSON file")
    p_sample.add_argument("--count", type=int, default=100)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None, help="output path (default stdout)")

    return parser


_HANDLERS = {
    "bounds": _cmd_bounds,
    "campaign": _cmd_campaign,
    "cor3-search": _cmd_cor3_search,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (HHBoundsError, ValueError, KeyError, IndexError, OSError) as exc:
        # a malformed JSON file raises json.JSONDecodeError, a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
