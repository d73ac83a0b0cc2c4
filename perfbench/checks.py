"""Output checks against independent computations and method properties.

No check compares against a saved copy of earlier output.  Each check takes
the program's output plus the benchmark's own inputs and returns a list of
problems (empty when the output is right).  ``selftest.py`` feeds every check
a corrupted output and requires a non-empty list back.

Reference computations used here and nowhere in the program:

* mean of exp(a.x + b) over a simplex: n! * expm(diag(t) + superdiag(1))[0, n]
  with t_k = a.V_k + b (Hermite-Genocchi with Opitz's divided-difference
  formula);
* 1-D exp and hinge means from their antiderivatives;
* barycentric weights from ``numpy.linalg.solve`` on the stacked system.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from inputs import SIMPLEX_CHAINS, expected_evaluations

TOL_SLACK = 1e-8      # chain slacks with exact ground truth (TOL_CHAIN)
TOL_WEIGHT = 1e-9     # barycentric weights of sampled points
TOL_RATIO = 1e-9      # round-off allowance on tightness ratios
TOL_REL = 1e-12       # deterministic chain terms against closed forms
MIN_VIOLATION = 1e-6  # cor3-search witnesses must break the bound by this much
SIGMAS = 4.0
CHANCE_FACTOR = 2.0   # MC slacks are re-judged at 2x the program's 4-sigma tolerance
CHANCE_ALLOWANCE = 3  # chance failures one run may have before they are a problem

SLACK_POSITIONS = {"choquet": 2, "thm2": 2, "thm3": 4, "thm4": 2, "thm5": 2,
                   "thm6": 2, "cor2": 4, "cor3": 2}
TIGHTNESS_CHAINS = ("thm2", "thm3", "thm5", "cor2")
#: Index of the term that carries the integral mean (thm6 has none); the
#: slacks on either side of it carry that mean's Monte Carlo noise.
MEAN_TERM = {"choquet": 1, "thm2": 0, "thm3": 2, "thm4": 1, "thm5": 0, "cor2": 2, "cor3": 1}


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------


def exp_simplex_mean(V, slope, offset) -> float:
    """Exact mean of exp(slope.x + offset) over the simplex with vertices V."""
    t = np.asarray(V, float) @ np.asarray(slope, float) + offset
    n = t.size - 1
    if n == 0:
        return float(np.exp(t[0]))
    # Imported here, not at the top: the set-up processes that setup_s times
    # import this module, and should load only what hhbounds itself loads.
    from scipy.linalg import expm

    M = np.diag(t) + np.diag(np.ones(n), 1)
    return math.factorial(n) * float(expm(M)[0, n])


def barycentric(V, points) -> np.ndarray:
    """Weights of each row of ``points`` in the simplex V, shape (m, n+1)."""
    V = np.asarray(V, float)
    P = np.atleast_2d(np.asarray(points, float))
    A = np.vstack([V.T, np.ones(V.shape[0])])
    B = np.vstack([P.T, np.ones(P.shape[0])])
    return np.linalg.solve(A, B).T


def centered_subsimplex(V, point, t) -> np.ndarray:
    """Vertices p + t * t_max * (V_k - c), t_max = (n+1) * min_k w_k(p)."""
    V = np.asarray(V, float)
    w = barycentric(V, point)[0]
    t_max = V.shape[0] * max(0.0, float(w.min()))
    return point + t * t_max * (V - V.mean(axis=0))


def ramp_mean(slope: float, threshold: float, lo: float, hi: float) -> float:
    """Mean of max(0, slope*x - threshold) on [lo, hi].

    max(0, s x - c)^2 / (2 s) is an antiderivative for any s != 0.
    """
    def G(x):
        return max(0.0, slope * x - threshold) ** 2 / (2.0 * slope)
    return (G(hi) - G(lo)) / (hi - lo)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL_REL * max(1.0, abs(ref))


def _within_sigmas(mean: float, se: float, ref: float) -> bool:
    return abs(mean - ref) <= SIGMAS * se


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def campaign_failures(result: dict) -> int:
    return sum(stats["failures"] for stats in result["per_theorem"].values())


def is_chance_failure(failure: dict) -> bool:
    """Whether Monte Carlo noise alone explains a failed verdict.

    The program allows 4 std errors per slack, with no allowance for the
    thousands of slacks in a campaign, so a correct program fails about one
    verdict in ten ``campaign-mc`` runs.  Re-judged at 8 std errors
    (CHANCE_FACTOR times its tolerance) on the slacks next to the MC mean,
    and at TOL_SLACK on the deterministic ones, a correct verdict fails with
    probability below 1e-15 per slack.  A failure this does not explain is
    a failed operation, and a problem.
    """
    if (failure.get("ground_truth") or {}).get("method") != "monte_carlo":
        return False
    k = MEAN_TERM.get(failure.get("chain"))
    if k is None:
        return False
    for pos, slack in enumerate(failure["slacks"]):
        limit = CHANCE_FACTOR * failure["tolerance"] if pos in (k - 1, k) else TOL_SLACK
        if slack < -limit:
            return False
    return True


def check_campaign(result: dict, cfg: dict) -> list[str]:
    """Properties of a serialized campaign result that the method guarantees.

    Every chain holds for convex functions, so a failed verdict is a
    problem unless :func:`is_chance_failure` explains it (the caller also
    counts it as a failed operation).  With exact ground truth (no MC kinds)
    every slack must clear TOL_CHAIN and tightness ratios lie in [0, 1].
    With MC ground truth every ratio is still at most 1 (the refined bound
    never exceeds the classical one), but MC noise in the shared mean can
    pull a ratio below 0: the guard (gap > tolerance) keeps it above -1, or
    above -CHANCE_FACTOR on a chain with a chance failure.
    """
    problems = []
    exact = set(cfg["function_kinds"]) <= {"affine", "quadratic_psd"}
    if result.get("config") != cfg:
        problems.append("result config differs from the input config")
    if result.get("trials") != cfg["trials_per_theorem"]:
        problems.append(f"trials {result.get('trials')} != {cfg['trials_per_theorem']}")
    per = result["per_theorem"]
    if list(per) != list(cfg["theorems"]):
        problems.append(f"chains {list(per)} != {cfg['theorems']}")
    chance = [f.get("chain") for f in result["failures"] if is_chance_failure(f)]
    counted = [f.get("chain") for f in result["failures"] if not is_chance_failure(f)]
    expected = expected_evaluations(cfg)
    for name, stats in per.items():
        n = expected.get(name)
        if stats["evaluations"] != n:
            problems.append(f"{name}: {stats['evaluations']} evaluations, config implies {n}")
        if stats["passes"] + stats["failures"] != stats["evaluations"]:
            problems.append(f"{name}: passes + failures != evaluations")
        if name in counted:
            problems.append(f"{name}: {counted.count(name)} failed verdicts beyond MC chance")
        slacks = stats["slacks"]
        if len(slacks) != SLACK_POSITIONS[name]:
            problems.append(f"{name}: {len(slacks)} slack positions")
        for row in slacks:
            if row["n"] != stats["evaluations"]:
                problems.append(f"{name}[{row['position']}]: histogram n {row['n']}")
            if not row["min"] <= row["p50"] <= row["max"]:
                problems.append(f"{name}[{row['position']}]: min/p50/max out of order")
            if exact and row["min"] < -TOL_SLACK:
                problems.append(f"{name}[{row['position']}]: exact slack {row['min']!r}")
        if name in ("thm2", "thm5") and len(slacks) > 1 and slacks[1]["min"] < -TOL_SLACK:
            problems.append(f"{name}[1]: dominance slack {slacks[1]['min']!r}")
        tight = stats["tightness"]
        if name in TIGHTNESS_CHAINS:
            if tight is None or tight["n"] + tight["nulls"] != stats["evaluations"]:
                problems.append(f"{name}: tightness counts do not add up")
            elif tight["n"]:
                if exact:
                    low = -TOL_RATIO
                else:
                    low = -CHANCE_FACTOR if name in chance else -1.0
                if not low <= tight["min"] <= tight["max"] <= 1.0 + TOL_RATIO:
                    problems.append(
                        f"{name}: tightness range [{tight['min']!r}, {tight['max']!r}]"
                    )
        elif tight is not None:
            problems.append(f"{name}: unexpected tightness summary")
    if len(result["failures"]) != campaign_failures(result):
        problems.append("failure descriptors do not match failure counts")
    return problems


def check_chance_failures(count: int) -> list[str]:
    """A run's chance failures beyond what chance explains are a problem.

    A correct program has about 0.1 per run; more than CHANCE_ALLOWANCE
    points at an MC mean or a chain term that is off by a few std errors.
    """
    if count > CHANCE_ALLOWANCE:
        return [f"{count} verdicts against MC ground truth failed by up to 8 sigma; "
                f"chance explains at most {CHANCE_ALLOWANCE} in a run"]
    return []


def check_determinism(first_sha: str, again_sha: str, what: str = "output") -> list[str]:
    if first_sha != again_sha:
        return [f"{what}: same inputs, different sha256: {first_sha} -> {again_sha}"]
    return []


def check_mc_reference(instance: dict, mean: float, std_error: float) -> list[str]:
    ref = exp_simplex_mean(instance["vertices"], instance["slope"], instance["offset"])
    if not std_error > 0.0 or not _within_sigmas(mean, std_error, ref):
        dim = np.asarray(instance["vertices"]).shape[1]
        return [f"integrate_mc dim {dim}: {mean!r} +- {std_error!r}, exact {ref!r}"]
    return []


# ---------------------------------------------------------------------------
# one-shot CLI calls
# ---------------------------------------------------------------------------


def _reports(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _terms(report: dict) -> dict[str, float]:
    return {term["label"]: term["value"] for term in report["terms"]}


def _check_gt(report: dict, label: str, ref: float) -> list[str]:
    gt = report["ground_truth"]
    value = _terms(report)[label]
    if gt is None or gt["method"] != "monte_carlo" or value != gt["mean_value"]:
        return [f"{report['chain']}: {label} is not its MC ground truth"]
    if not _within_sigmas(value, gt["std_error"], ref):
        return [f"{report['chain']}: {label} {value!r} +- {gt['std_error']!r}, exact {ref!r}"]
    return []


def check_bounds_simplex(stdout: str, inp: dict) -> list[str]:
    reports = _reports(stdout)
    names = [r["chain"] for r in reports]
    if names != list(SIMPLEX_CHAINS):
        return [f"bounds: chains {names}"]
    V, slope, offset = inp["vertices"], inp["slope"], inp["offset"]
    parent = exp_simplex_mean(V, slope, offset)
    sub = exp_simplex_mean(centered_subsimplex(V, inp["point"], inp["t"]), slope, offset)
    problems = []
    for r in reports:
        if r["verdict"] != "pass":
            problems.append(f"bounds: {r['chain']} verdict {r['verdict']}")
    by_name = dict(zip(names, reports))
    for name in ("choquet", "thm2", "thm3"):
        problems += _check_gt(by_name[name], "integral_mean", parent)
    for name in ("thm4", "thm5"):
        problems += _check_gt(by_name[name], "subsimplex_mean", sub)
    if by_name["thm6"]["ground_truth"] is not None:
        problems.append("bounds: thm6 carries a ground truth")
    terms = _terms(by_name["choquet"])
    f_vertices = np.exp(V @ slope + offset)
    if not _close(terms["f_at_centroid"], float(np.exp(V.mean(axis=0) @ slope + offset))):
        problems.append("bounds: choquet f_at_centroid")
    if not _close(terms["vertex_average"], float(f_vertices.mean())):
        problems.append("bounds: choquet vertex_average")
    return problems


def check_bounds_interval(stdout: str, inp: dict) -> list[str]:
    reports = _reports(stdout)
    if [r["chain"] for r in reports] != ["cor2", "cor3"]:
        return ["bounds1: expected cor2 and cor3 reports"]
    s, o = inp["slope1"], inp["offset1"]

    def f(x):
        return math.exp(s * x + o)

    def mean(lo, hi):
        return (f(hi) - f(lo)) / (s * (hi - lo))

    a, b = inp["interval"]
    lam = inp["lam"]
    m = (1.0 - lam) * a + lam * b
    cor2 = {
        "f_at_midpoint": f((a + b) / 2.0),
        "split_lower": lam * f((a + m) / 2.0) + (1.0 - lam) * f((b + m) / 2.0),
        "split_upper": ((1.0 - lam) * f(a) + lam * f(b) + f(lam * a + (1.0 - lam) * b)) / 2.0,
        "endpoint_average": (f(a) + f(b)) / 2.0,
    }
    p, q, y = inp["cor3"]
    A = (p * a + q * b) / (p + q)
    cor3 = {
        "f_at_weighted_point": f(A),
        "weighted_endpoint_bound": (p * f(a) + q * f(b)) / (p + q),
    }
    problems = []
    for report, closed in ((reports[0], cor2), (reports[1], cor3)):
        terms = _terms(report)
        for label, ref in closed.items():
            if not _close(terms[label], ref):
                problems.append(f"bounds1: {report['chain']} {label} {terms[label]!r} != {ref!r}")
        if report["verdict"] != "pass":
            problems.append(f"bounds1: {report['chain']} verdict {report['verdict']}")
    problems += _check_gt(reports[0], "integral_mean", mean(a, b))
    problems += _check_gt(reports[1], "integral_mean", mean(A - y, A + y))
    if reports[1].get("condition_holds") is not True:
        problems.append("bounds1: cor3 condition should hold")
    return problems


def check_search(stdout: str, inp: dict, budget: int) -> list[str]:
    witness = json.loads(stdout)["witness"]
    if witness is None:
        return ["cor3-search: no witness for a window that breaks the condition"]
    p, q, a, b, y = inp["search"]
    if witness["params"] != {"p": p, "q": q, "a": a, "b": b, "y": y}:
        return ["cor3-search: witness params differ from the inputs"]
    func = witness["function"]
    if func["kind"] != "hinge_distance" or len(func["params"]["slope"]) != 1:
        return ["cor3-search: witness is not a 1-D hinge"]
    slope = func["params"]["slope"][0]
    threshold = func["params"]["threshold"]
    if slope == 0.0:
        return ["cor3-search: witness hinge is flat"]
    A = (p * a + q * b) / (p + q)

    def f(x):
        return max(0.0, slope * x - threshold)

    slack = (p * f(a) + q * f(b)) / (p + q) - ramp_mean(slope, threshold, A - y, A + y)
    problems = []
    if not slack < -MIN_VIOLATION:
        problems.append(f"cor3-search: witness slack {slack!r} does not break the bound")
    if not 1 <= witness["candidates_examined"] <= budget:
        problems.append("cor3-search: candidates_examined outside the budget")
    return problems


def check_sample(lines, V, count: int, chunk: int = 10_000) -> list[str]:
    """Check ``hh sample`` output, read as an iterable of lines.

    Rows are parsed ``chunk`` at a time, so the check holds a few MB at most
    however long the output (it runs in the process whose peak RSS the
    campaign workloads report).
    """
    V = np.asarray(V, float)
    rows = iter(lines)
    n = 0
    w_min = math.inf
    total = np.zeros(V.shape[1])
    total_sq = np.zeros(V.shape[1])
    while block := list(itertools.islice(rows, chunk)):
        P = np.array([json.loads(line) for line in block], dtype=float)
        if P.ndim != 2 or P.shape[1] != V.shape[1]:
            return [f"sample: rows of shape {P.shape[1:]}"]
        n += len(P)
        w_min = min(w_min, float(barycentric(V, P).min()))
        total += P.sum(axis=0)
        total_sq += (P * P).sum(axis=0)
    if n != count:
        return [f"sample: {n} rows, asked for {count}"]
    problems = []
    if w_min < -TOL_WEIGHT:
        problems.append(f"sample: a row lies outside the simplex (weight {w_min!r})")
    mean = total / n
    se = np.sqrt((total_sq - n * mean * mean) / (n - 1) / n)
    off = np.abs(mean - V.mean(axis=0))
    if np.any(off > SIGMAS * se):
        problems.append(f"sample: mean off the centroid by {(off / se).max():.2f} sigma")
    return problems
