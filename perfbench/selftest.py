#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the repository root::

    python3 perfbench/selftest.py

Produces one real output per check (small campaigns, the one-shot calls
made in this process), requires every check to accept it, then feeds each
check corrupted copies and requires every one to be rejected.  Also checks
that ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports.
Exits 1 if any of this fails.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS pin and the paths first
import checks
import inputs
from tracing import PER_LAYER

SEED = 7


def edited(obj, edit):
    bad = copy.deepcopy(obj)
    edit(bad)
    return bad


def lines(reports: list[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in reports)


def shift_mean(report: dict, sigmas: float) -> None:
    """Move the MC mean (and the term carrying it) by ``sigmas`` std errors."""
    gt = report["ground_truth"]
    old = gt["mean_value"]
    gt["mean_value"] += sigmas * gt["std_error"]
    for term in report["terms"]:
        if term["value"] == old:
            term["value"] = gt["mean_value"]


def scale_term(report: dict, label: str, factor: float) -> None:
    for term in report["terms"]:
        if term["label"] == label:
            term["value"] *= factor


def campaign_cases(hh) -> list[tuple[str, list[str], bool]]:
    cases = []
    results = {}
    per = "per_theorem"
    for workload, trials in (("campaign-mc", 24), ("campaign-exact", 40)):
        cfg = inputs.campaign_config(workload, SEED, 0, trials=trials)
        result = json.loads(hh.campaign.run_campaign(
            hh.campaign.CampaignConfig.from_json_dict(cfg)).to_json())
        results[workload] = result, cfg
        corruptions = {
            "thm3 count off by one": lambda r: r[per]["thm3"].update(
                evaluations=r[per]["thm3"]["evaluations"] + 1),
            "thm2 dominance slack negative":
                lambda r: r[per]["thm2"]["slacks"][1].update(min=-1e-6),
            "thm5 dominance slack negative":
                lambda r: r[per]["thm5"]["slacks"][1].update(min=-1e-6),
            "tightness ratio above 1": lambda r: r[per]["cor2"]["tightness"].update(max=1.5),
            "failure descriptor without a failure":
                lambda r: r["failures"].append({"chain": "thm2"}),
            "config not echoed": lambda r: r["config"].update(mc_samples=10),
        }
        if workload == "campaign-exact":
            corruptions.update({
                "exact slack negative":
                    lambda r: r[per]["choquet"]["slacks"][0].update(min=-1e-6),
                "tightness ratio below 0":
                    lambda r: r[per]["thm2"]["tightness"].update(min=-0.01),
            })
        cases.append((f"{workload}: clean", checks.check_campaign(result, cfg), False))
        cases += [(f"{workload}: {label}", checks.check_campaign(edited(result, edit), cfg), True)
                  for label, edit in corruptions.items()]
    mc = {"method": "monte_carlo"}
    chance_cases = {
        # (descriptor, counted as a failed operation)
        "MC slack at -1.05 tolerance (4.2 sigma)": (
            {"chain": "cor3", "ground_truth": mc, "slacks": [-5.917e-5, 0.1],
             "tolerance": 5.640e-5}, False),
        "MC slack at -2.5 tolerance (10 sigma)": (
            {"chain": "cor3", "ground_truth": mc, "slacks": [-1.41e-4, 0.1],
             "tolerance": 5.640e-5}, True),
        "deterministic slack failed, MC chain": (
            {"chain": "thm2", "ground_truth": mc, "slacks": [0.1, -1e-6],
             "tolerance": 5.640e-5}, True),
        "exact ground truth failed": (
            {"chain": "thm2", "ground_truth": {"method": "exact"}, "slacks": [-1e-6, 0.1],
             "tolerance": 1e-8}, True),
    }
    cases += [(f"failure counted: {label}",
               [] if checks.is_chance_failure(desc) else ["counted"], counted)
              for label, (desc, counted) in chance_cases.items()]
    cases += [
        ("chance failures: 3 in a run", checks.check_chance_failures(3), False),
        ("chance failures: 4 in a run", checks.check_chance_failures(4), True),
    ]
    def chance_fail_thm2(r):
        """A thm2 verdict fails by MC chance; its dominance slack is still checked."""
        r[per]["thm2"].update(passes=r[per]["thm2"]["passes"] - 1,
                              failures=r[per]["thm2"]["failures"] + 1)
        r["failures"].append(chance_cases["MC slack at -1.05 tolerance (4.2 sigma)"][0]
                             | {"chain": "thm2"})

    mc_result, cfg = results["campaign-mc"]
    def counted_fail_thm2(r):
        chance_fail_thm2(r)
        r["failures"][-1]["slacks"] = [-1e-3, 0.1]

    cases += [
        ("campaign-mc: a verdict fails beyond chance",
         checks.check_campaign(edited(mc_result, counted_fail_thm2), cfg), True),
        ("campaign-mc: a chance failure",
         checks.check_campaign(edited(mc_result, chance_fail_thm2), cfg), False),
        ("campaign-mc: chance failure, dominance negative", checks.check_campaign(
            edited(mc_result, lambda r: (chance_fail_thm2(r),
                                         r[per]["thm2"]["slacks"][1].update(min=-1e-6))),
            cfg), True),
    ]
    cases += [
        ("determinism: same sha", checks.check_determinism("ab", "ab"), False),
        ("determinism: sha changed", checks.check_determinism("ab", "ac"), True),
    ]
    inst = inputs.spot_instances(SEED)[1]
    f = hh.funcs.ConvexFunction("exp_affine", {"slope": inst["slope"], "offset": inst["offset"]})
    est = hh.quadrature.integrate_mc(f, hh.geometry.Simplex(inst["vertices"]),
                                     inputs.MC_SAMPLES, inst["seed"])
    cases += [
        ("mc reference: clean",
         checks.check_mc_reference(inst, est.mean_value, est.std_error), False),
        ("mc reference: mean off by 10 sigma", checks.check_mc_reference(
            inst, est.mean_value + 10 * est.std_error, est.std_error), True),
    ]
    return cases


def cli_cases(hh, workdir: str) -> list[tuple[str, list[str], bool]]:
    inp = inputs.cli_inputs(SEED)
    args = inputs.write_cli_files(inp, workdir)
    out = {}
    for name in ("bounds", "bounds1", "search", "sample"):
        code, out[name] = run.call_in_process(hh, args[name])
        if code != 0:
            raise SystemExit(f"selftest: {name} exited {code}")
    bounds = [json.loads(line) for line in out["bounds"].splitlines()]
    bounds1 = [json.loads(line) for line in out["bounds1"].splitlines()]
    search = json.loads(out["search"])
    rows = out["sample"].splitlines()
    V, count = inp["vertices"], inputs.SAMPLE_COUNT

    def check_bounds(edit):
        return checks.check_bounds_simplex(lines(edited(bounds, edit)), inp)

    def check_bounds1(edit):
        return checks.check_bounds_interval(lines(edited(bounds1, edit)), inp)

    def check_search(edit):
        return checks.check_search(json.dumps(edited(search, edit)), inp, inputs.SEARCH_BUDGET)

    def check_sample(new_rows):
        return checks.check_sample(new_rows, V, count)

    def moved(row, delta):
        return json.dumps([x + delta for x in json.loads(row)])

    low_half = sorted(rows, key=lambda r: json.loads(r)[0])[: len(rows) // 2]
    params = lambda w: w["witness"]["function"]["params"]  # noqa: E731
    return [
        ("bounds: clean", check_bounds(lambda r: None), False),
        ("bounds: parent mean off by 10 sigma", check_bounds(lambda r: shift_mean(r[0], 10)), True),
        ("bounds: subsimplex mean off by 10 sigma",
         check_bounds(lambda r: shift_mean(r[3], -10)), True),
        ("bounds: f(centroid) off by 1e-9",
         check_bounds(lambda r: scale_term(r[0], "f_at_centroid", 1 + 1e-9)), True),
        ("bounds: a verdict flipped", check_bounds(lambda r: r[5].update(verdict="fail")), True),
        ("bounds: a report missing", check_bounds(lambda r: r.pop()), True),
        ("bounds1: clean", check_bounds1(lambda r: None), False),
        ("bounds1: cor2 split_upper off by 1e-9",
         check_bounds1(lambda r: scale_term(r[0], "split_upper", 1 + 1e-9)), True),
        ("bounds1: cor2 mean off by 10 sigma", check_bounds1(lambda r: shift_mean(r[0], 10)), True),
        ("bounds1: cor3 mean off by 10 sigma",
         check_bounds1(lambda r: shift_mean(r[1], -10)), True),
        ("bounds1: cor3 bound off by 1e-9",
         check_bounds1(lambda r: scale_term(r[1], "weighted_endpoint_bound", 1 + 1e-9)), True),
        ("search: clean", check_search(lambda w: None), False),
        ("search: no witness", check_search(lambda w: w.update(witness=None)), True),
        ("search: hinge moved off the window",
         check_search(lambda w: params(w).update(threshold=1e6)), True),
        ("search: witness for other params",
         check_search(lambda w: w["witness"]["params"].update(y=1.0)), True),
        ("sample: clean", check_sample(rows), False),
        ("sample: a row missing", check_sample(rows[:-1]), True),
        ("sample: a row outside", check_sample(rows[:-1] + [moved(rows[-1], 100.0)]), True),
        ("sample: all rows shifted", check_sample([moved(r, 0.05) for r in rows]), True),
        ("sample: biased to one side", check_sample(low_half * 2), True),
    ]


def benchmark_json_problems() -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != dict(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != dict(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return problems


def main() -> int:
    hh = run.load_package()
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        cases = campaign_cases(hh) + cli_cases(hh, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrong = 0
    for name, problems, should_reject in cases:
        ok = bool(problems) == should_reject
        wrong += not ok
        verdict = "rejected" if problems else "accepted"
        detail = f": {problems[0]}" if problems else ""
        print(f"{name:45s} {verdict}{'' if ok else '  <-- WRONG'}{detail}")
    for problem in benchmark_json_problems():
        wrong += 1
        print(problem)
    print(f"selftest: {len(cases)} cases, {wrong} wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
