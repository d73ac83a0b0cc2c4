"""Per-layer tracing from outside the package.

Spans are recorded by wrapping public functions of each module at runtime,
under the names their callers look them up by (``campaign.py`` and
``cli.py`` import functions by name, so e.g. ``hhbounds.campaign.integrate_mc``
is wrapped as well as ``hhbounds.quadrature.integrate_mc``).  Methods are
wrapped on their class.  Nothing under ``src/`` changes; uninstalling restores
every original.

A span is ``(name, start_ns, end_ns, parent_index, info)``.  Spans stay in
memory and are written out once, when the run ends.  A layer's self time is
its spans' duration minus the time their child spans cover; the cost of the
wrapper itself lands in the caller's self time.
"""

from __future__ import annotations

import gzip
import statistics
import time
from collections import defaultdict

import numpy as np

KINDS = ("affine", "quadratic_psd", "max_of_affines", "exp_affine", "log_sum_exp",
         "hinge_distance")
CHAIN_FUNCS = (("choquet", "choquet_chain"), ("thm2", "thm2_upper"), ("thm3", "thm3_chain"),
               ("thm4", "thm4_chain"), ("thm5", "thm5_upper"), ("thm6", "thm6_chain"),
               ("cor2", "cor2_chain"), ("cor3", "cor3_check"))

#: Every per-layer metric with its unit.  Counts and times are per traced
#: round, so they do not grow with the run length.
PER_LAYER = (
    [("geometry.simplex_init.calls", "count/round"),
     ("geometry.simplex_init.self_ms", "ms/round"),
     ("geometry.solve_weights.calls", "count/round"),
     ("geometry.solve_weights.self_ms", "ms/round"),
     ("geometry.solve_weights.distinct_ratio", "ratio"),
     ("funcs.eval.calls", "count/round"),
     ("funcs.eval.points", "points/round"),
     ("funcs.eval.self_ms", "ms/round")]
    + [(f"funcs.eval.ns_per_point.{kind}", "ns/point") for kind in KINDS]
    + [("funcs.random_convex.self_ms", "ms/round"),
       ("quadrature.sample_uniform.points", "points/round"),
       ("quadrature.sample_uniform.self_ms", "ms/round"),
       ("quadrature.integrate_mc.calls", "count/round"),
       ("quadrature.integrate_mc.self_ms", "ms/round"),
       ("quadrature.integrate_exact.calls", "count/round"),
       ("quadrature.integrate_exact.self_ms", "ms/round")]
    + [(f"chains.{short}.{what}", unit) for short, _ in CHAIN_FUNCS
       for what, unit in (("calls", "count/round"), ("self_ms", "ms/round"))]
    + [("campaign.run_campaign.self_ms", "ms/round"),
       ("campaign.random_simplex.self_ms", "ms/round"),
       ("campaign.random_simplex.accept_ratio", "ratio"),
       ("campaign.search_cor3_counterexample.self_ms", "ms/round"),
       ("serialize.dumps.calls", "count/round"),
       ("serialize.dumps.bytes", "B/round"),
       ("serialize.dumps.self_ms", "ms/round"),
       ("cli.main.self_ms", "ms/round"),
       ("import.hhbounds_ms", "ms"),
       ("import.scipy_linalg_ms", "ms"),
       ("import.numpy_ms", "ms"),
       ("trace.overhead_pct", "%")]
)


def _weights_key(args, kwargs, result):
    simplex, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
    return hash((simplex.vertices.tobytes(), np.asarray(points, dtype=float).tobytes()))


def _eval_info(args, kwargs, result):
    func, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    return func.kind, (1 if np.ndim(x) == 1 else len(x))


def _count_info(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["count"]


def _len_info(args, kwargs, result):
    return len(result)


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self, hh) -> None:
        geometry, funcs, quadrature = hh.geometry, hh.funcs, hh.quadrature
        campaign, cli = hh.campaign, hh.cli
        both = (campaign, cli)
        self._targets = [
            ("geometry.simplex_init", [(geometry.Simplex, "__init__")], None),
            ("geometry.solve_weights", [(geometry.Simplex, "solve_weights")],
             lambda *call: (self.rounds, _weights_key(*call))),
            ("funcs.eval", [(funcs.ConvexFunction, "__call__")], _eval_info),
            ("funcs.random_convex", [(campaign, "random_convex")], None),
            ("quadrature.sample_uniform", [(quadrature, "sample_uniform")], _count_info),
            ("quadrature.integrate_mc",
             [(m, "integrate_mc") for m in (quadrature, *both)], None),
            ("quadrature.integrate_exact",
             [(m, "integrate_exact") for m in (quadrature, *both)], None),
            *[(f"chains.{short}", [(m, attr) for m in both], None)
              for short, attr in CHAIN_FUNCS],
            ("campaign.run_campaign", [(m, "run_campaign") for m in both], None),
            ("campaign.random_simplex", [(campaign, "random_simplex")], None),
            ("campaign.search_cor3_counterexample",
             [(cli, "search_cor3_counterexample")], None),
            ("serialize.dumps", [(m, "dumps") for m in both], _len_info),
            ("cli.main", [(cli, "main")], None),
        ]
        self.spans: list[tuple] = []
        self.rounds = 0  # traced rounds so far; distinct inputs are counted per round
        self._stack = [-1]
        self._saved: list[tuple] = []
        self.missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                        for _, owners, _ in self._targets for owner, attr in owners
                        if not hasattr(owner, attr)]

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent,
                          None if info is None else info(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        self.rounds += 1
        for name, owners, info in self._targets:
            wrapped = {}
            for owner, attr in owners:
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, info)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write spans as gzip'd TSV: name, start_ns, end_ns, parent index."""
        base = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            handle.writelines(f"{s[0]}\t{s[1] - base}\t{s[2] - base}\t{s[3]}\n"
                              for s in self.spans)

    def metrics(self) -> dict[str, float]:
        """Per-round layer metrics from the recorded spans (trace/import excluded)."""
        spans, rounds = self.spans, self.rounds
        cover = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                cover[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        kind_ns: dict[str, int] = defaultdict(int)
        kind_points: dict[str, int] = defaultdict(int)
        totals: dict[str, int] = defaultdict(int)
        keys: set = set()
        tries = 0
        for i, (name, start, end, parent, info) in enumerate(spans):
            own = end - start - cover[i]
            calls[name] += 1
            self_ns[name] += own
            if name == "funcs.eval" and info is not None:
                kind_ns[info[0]] += own
                kind_points[info[0]] += info[1]
            elif name == "geometry.solve_weights" and info is not None:
                keys.add(info)
            elif name in ("quadrature.sample_uniform", "serialize.dumps") and info is not None:
                totals[name] += info
            elif name == "geometry.simplex_init" and parent >= 0 \
                    and spans[parent][0] == "campaign.random_simplex":
                tries += 1

        def per_round(value):
            return value / rounds

        def ms(name):
            return per_round(self_ns[name] / 1e6)

        out = {
            "geometry.simplex_init.calls": per_round(calls["geometry.simplex_init"]),
            "geometry.simplex_init.self_ms": ms("geometry.simplex_init"),
            "geometry.solve_weights.calls": per_round(calls["geometry.solve_weights"]),
            "geometry.solve_weights.self_ms": ms("geometry.solve_weights"),
            "geometry.solve_weights.distinct_ratio":
                len(keys) / calls["geometry.solve_weights"]
                if calls["geometry.solve_weights"] else 0.0,
            "funcs.eval.calls": per_round(calls["funcs.eval"]),
            "funcs.eval.points": per_round(sum(kind_points.values())),
            "funcs.eval.self_ms": ms("funcs.eval"),
        }
        for kind in KINDS:
            out[f"funcs.eval.ns_per_point.{kind}"] = (
                kind_ns[kind] / kind_points[kind] if kind_points[kind] else 0.0)
        out["funcs.random_convex.self_ms"] = ms("funcs.random_convex")
        out["quadrature.sample_uniform.points"] = per_round(totals["quadrature.sample_uniform"])
        out["quadrature.sample_uniform.self_ms"] = ms("quadrature.sample_uniform")
        for name in ("quadrature.integrate_mc", "quadrature.integrate_exact"):
            out[f"{name}.calls"] = per_round(calls[name])
            out[f"{name}.self_ms"] = ms(name)
        for short, _ in CHAIN_FUNCS:
            out[f"chains.{short}.calls"] = per_round(calls[f"chains.{short}"])
            out[f"chains.{short}.self_ms"] = ms(f"chains.{short}")
        out["campaign.run_campaign.self_ms"] = ms("campaign.run_campaign")
        out["campaign.random_simplex.self_ms"] = ms("campaign.random_simplex")
        out["campaign.random_simplex.accept_ratio"] = (
            calls["campaign.random_simplex"] / tries if tries else 0.0)
        out["campaign.search_cor3_counterexample.self_ms"] = ms(
            "campaign.search_cor3_counterexample")
        out["serialize.dumps.calls"] = per_round(calls["serialize.dumps"])
        out["serialize.dumps.bytes"] = per_round(totals["serialize.dumps"])
        out["serialize.dumps.self_ms"] = ms("serialize.dumps")
        out["cli.main.self_ms"] = ms("cli.main")
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times (ms) of hhbounds, scipy.linalg and numpy."""
    wanted = {"hhbounds": "import.hhbounds_ms", "scipy.linalg": "import.scipy_linalg_ms",
              "numpy": "import.numpy_ms"}
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[2].strip() in wanted and fields[1].strip().isdigit():
            out[wanted[fields[2].strip()]] = int(fields[1]) / 1e3
    return out


def median_dicts(samples: list[dict]) -> dict[str, float]:
    keys = {k for s in samples for k in s}
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}
