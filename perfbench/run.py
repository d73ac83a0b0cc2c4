#!/usr/bin/env python3
"""Benchmark of hhbounds: campaign throughput and one-shot CLI latency.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-mc --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``campaign-mc``    - rounds of ``run_campaign`` on the default mix (48 trials,
  all six kinds, MC ground truth at 10^5 samples), in this process;
* ``campaign-exact`` - rounds of 400 trials with only the closed-form kinds;
* ``cli-oneshot``    - rounds of fresh ``hh`` processes, one at a time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced rounds of the same work and prints the per-layer metrics.  Every
output is checked (``checks.py``); the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw per-run
records and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Same one-thread BLAS pin the package applies at import; set here because
# this process imports numpy before hhbounds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import PER_LAYER, Tracer, median_dicts, parse_importtime  # noqa: E402

WORKLOADS = ("campaign-mc", "campaign-exact", "cli-oneshot")
CAMPAIGNS = ("campaign-mc", "campaign-exact")
CLI_CALLS = ("import", "bounds", "bounds1", "search", "sample")
END_TO_END = (("setup_s", "s"), ("trials_per_s", "trials/s"), ("peak_rss_mb", "MiB"),
              ("import_ms_p50", "ms"), ("bounds_ms_p50", "ms"), ("search_ms_p50", "ms"),
              ("sample_ms_p50", "ms"))

MC_FAILURE_KEYS = ("chain", "trial", "dimension", "function", "slacks", "tolerance",
                   "ground_truth")

SETUP_REPEATS = 3     # fresh-process set-ups per run; setup_s is their median
#: Probe rounds per run: one-shot rounds on the campaign workloads, rounds
#: of PROBE_TRIALS campaign-mc trials on cli-oneshot.
PROBE_ROUNDS = {"campaign-mc": 3, "campaign-exact": 3, "cli-oneshot": 8}
PROBE_TRIALS = 24
WARMUP_TRIALS = 8     # one trial per dimension; rerun after the timed section
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
#: Median time of SpeedGauge.calibrate() on the reference machine (README.md).
REFERENCE_CALIBRATION_S = 0.020

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SCRIPT = os.path.abspath(__file__)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def require_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "hhbounds", "__init__.py")):
        raise SystemExit("error: src/hhbounds not found; run from the repository root")


def load_package() -> SimpleNamespace:
    """Import hhbounds from ``src/`` of the current checkout, nothing else."""
    require_checkout()
    sys.path.insert(0, SRC)
    import hhbounds
    from hhbounds import campaign, cli, funcs, geometry, quadrature

    if not os.path.abspath(hhbounds.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported hhbounds from {hhbounds.__file__}, not {SRC}")
    return SimpleNamespace(campaign=campaign, cli=cli, funcs=funcs, geometry=geometry,
                           quadrature=quadrature)


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, int, str, str]:
    """Run one child to completion; returns (wall ms, exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=ENV, capture_output=True, text=True, timeout=timeout)
    return (time.perf_counter() - start) * 1e3, proc.returncode, proc.stdout, proc.stderr


# Times one call and reports its peak RSS from a small process of its own
# (a child's ru_maxrss starts from the RSS of the process that forked it, so
# RUSAGE_CHILDREN here would report this large process).  The call's stdout
# goes to a file, as in ``hh sample ... > points.jsonl``.  The wait blocks
# (Popen.wait with a timeout polls, adding up to 50 ms); an alarm kills a
# call that hangs.
_TIMER = (
    "import resource, signal, subprocess, sys, time\n"
    "signal.signal(signal.SIGALRM, lambda *_: proc.kill())\n"
    f"signal.alarm({CHILD_TIMEOUT_S})\n"
    "with open(sys.argv[1], 'wb') as out:\n"
    "    start = time.perf_counter()\n"
    "    proc = subprocess.Popen(sys.argv[2:], stdout=out)\n"
    "    code = proc.wait()\n"
    "    ms = (time.perf_counter() - start) * 1e3\n"
    "signal.alarm(0)\n"
    "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print(f'\\nperfbench-timer {code} {ms!r} {rss}', file=sys.stderr)\n"
)


def run_timed(argv: list[str], out_path: str) -> tuple[float, int, str, int]:
    """Run one call under the timer: (wall ms, exit code, stderr, peak RSS KiB)."""
    _, code, _, stderr = run_child([sys.executable, "-S", "-c", _TIMER, out_path, *argv],
                                   timeout=CHILD_TIMEOUT_S + 10)
    stderr, _, tail = stderr.rpartition("\nperfbench-timer ")
    if code != 0 or not tail:
        raise SystemExit(f"error: timer failed ({code}): {stderr[-2000:]}")
    child_code, ms, rss = tail.split()
    return float(ms), int(child_code), stderr, int(rss)


class SpeedGauge:
    """How fast this shared machine runs right now, relative to its reference.

    Its speed drifts by up to 2x over minutes (other tenants), which no run
    length affordable here averages out.  A fixed calibration workload that
    does not touch hhbounds (interpreter loop, small LAPACK solves, vector
    exp) is timed after every measured unit; the unit's time is divided by
    the mean of the calibrations on either side over the reference value.
    Raw times are kept in the run record.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        self._B = rng.standard_normal((5, 3))
        self._x = rng.standard_normal(100_000)
        self._last = self.calibrate()
        self.slowdowns: list[float] = []

    def calibrate(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        for _ in range(1_500):
            np.linalg.solve(self._A, self._B)
        for _ in range(20):
            np.exp(self._x).sum()
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Call right after a measured unit: its slowdown against the reference."""
        now = self.calibrate()
        factor = 0.5 * (self._last + now) / REFERENCE_CALIBRATION_S
        self._last = now
        self.slowdowns.append(factor)
        return factor


def call_in_process(hh, args: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = hh.cli.main(args)
    return code, buffer.getvalue()


class Run:
    """State of one benchmark run: inputs, counters and collected samples."""

    def __init__(self, hh, workload: str, seed: int, workdir: str,
                 gauge: SpeedGauge | None) -> None:
        self.hh, self.workload, self.seed, self.workdir = hh, workload, seed, workdir
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {name: [] for name in CLI_CALLS}
        self.raw_samples: dict[str, list[float]] = {name: [] for name in CLI_CALLS}
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.cli_rss_kib = 0
        self.chance_failures: list[dict] = []
        self.shas: dict[tuple, str] = {}
        self.cli = inputs.cli_inputs(seed)
        self.cli_args = inputs.write_cli_files(self.cli, workdir)

    @property
    def warmup_key(self) -> tuple:
        if self.workload in CAMPAIGNS:
            return (self.workload, 0, WARMUP_TRIALS)
        return ("cli", "bounds")

    def same_output(self, key: tuple, sha: str) -> None:
        """Every output made from the same inputs at one seed must be identical."""
        if key in self.shas:
            self.problems += checks.check_determinism(self.shas[key], sha, "/".join(map(str, key)))
        self.shas.setdefault(key, sha)

    # -- campaigns ----------------------------------------------------------

    def campaign_round(self, workload: str, index: int, trials: int | None = None,
                       *, count: bool = True) -> float:
        """One campaign round (run + serialize); returns its scaled wall time in s.

        ``count=False`` checks the round but leaves the operation counters
        and throughput samples alone, and returns the raw wall time.
        """
        campaign = self.hh.campaign
        cfg_dict = inputs.campaign_config(workload, self.seed, index, trials)
        cfg = campaign.CampaignConfig.from_json_dict(cfg_dict)
        start = time.perf_counter()
        text = campaign.run_campaign(cfg).to_json()
        wall = time.perf_counter() - start
        if count:
            wall /= self.gauge.slowdown()
        result = json.loads(text)
        if count:
            # A verdict against MC ground truth that MC noise explains is
            # listed, not counted as failed (checks.is_chance_failure).
            chance = [f for f in result["failures"] if checks.is_chance_failure(f)]
            self.attempted += sum(s["evaluations"] for s in result["per_theorem"].values())
            self.failed += len(result["failures"]) - len(chance)
            self.chance_failures += [{key: f[key] for key in MC_FAILURE_KEYS} for f in chance]
            self.rates.append(cfg.trials_per_theorem / wall)
            self.raw_rates.append(cfg.trials_per_theorem / wall / self.gauge.slowdowns[-1])
        self.problems += checks.check_campaign(result, cfg_dict)
        self.same_output((workload, index, trials), hashlib.sha256(text.encode()).hexdigest())
        return wall

    def mc_reference(self) -> None:
        quadrature, funcs, geometry = self.hh.quadrature, self.hh.funcs, self.hh.geometry
        for inst in inputs.spot_instances(self.seed):
            f = funcs.ConvexFunction("exp_affine", {"slope": inst["slope"],
                                                    "offset": inst["offset"]})
            est = quadrature.integrate_mc(f, geometry.Simplex(inst["vertices"]),
                                          inputs.MC_SAMPLES, inst["seed"])
            self.problems += checks.check_mc_reference(inst, est.mean_value, est.std_error)

    # -- one-shot CLI calls -------------------------------------------------

    def check_call(self, name: str, code: int, output) -> None:
        """Count one call and check its stdout, given as a text file object."""
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        try:
            if name == "sample":
                problems = checks.check_sample(output, self.cli["vertices"],
                                               inputs.SAMPLE_COUNT)
            else:
                text = output.read()
                if name == "import":
                    problems = [] if text == "" else ["import: unexpected output"]
                elif name == "bounds":
                    problems = checks.check_bounds_simplex(text, self.cli)
                elif name == "bounds1":
                    problems = checks.check_bounds_interval(text, self.cli)
                else:
                    problems = checks.check_search(text, self.cli, inputs.SEARCH_BUDGET)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"{name}: malformed output ({exc!r})"]
        self.problems += problems

    def cli_round(self) -> float:
        """The five calls as fresh processes, one at a time; returns wall in s."""
        total = 0.0
        for name in CLI_CALLS:
            argv = [sys.executable, "-c", "import hhbounds"] if name == "import" \
                else [*inputs.HH, *self.cli_args[name]]
            out_path = os.path.join(self.workdir, f"{name}.out")
            raw_ms, code, stderr, rss_kib = run_timed(argv, out_path)
            ms = raw_ms / self.gauge.slowdown()
            if code != 0:
                print(f"{name}: exit {code}: {stderr[-400:]}", file=sys.stderr)
            total += ms / 1e3
            self.samples[name].append(ms)
            self.raw_samples[name].append(raw_ms)
            self.cli_rss_kib = max(self.cli_rss_kib, rss_kib)
            with open(out_path, encoding="utf-8") as output:
                self.check_call(name, code, output)
            with open(out_path, "rb") as output:
                self.same_output(("cli", name), hashlib.file_digest(output, "sha256").hexdigest())
        return total

    def cli_round_in_process(self) -> float:
        """The four ``hh`` calls through ``cli.main`` in this process."""
        total = 0.0
        for name in CLI_CALLS[1:]:
            start = time.perf_counter()
            code, stdout = call_in_process(self.hh, self.cli_args[name])
            total += (time.perf_counter() - start) / self.gauge.slowdown()
            self.check_call(name, code, io.StringIO(stdout))
            self.same_output(("cli", name), hashlib.sha256(stdout.encode()).hexdigest())
        return total


def prepare(workload: str, seed: int, workdir: str, gauge: SpeedGauge | None = None) -> Run:
    """Import, input generation and warm-up: everything setup_s measures."""
    run = Run(load_package(), workload, seed, workdir, gauge)
    if workload in CAMPAIGNS:
        run.campaign_round(workload, 0, trials=WARMUP_TRIALS, count=False)
    else:
        _, stdout = call_in_process(run.hh, run.cli_args["bounds"])
        run.same_output(run.warmup_key, hashlib.sha256(stdout.encode()).hexdigest())
    return run


def measure_setup(workload: str, seed: int, gauge: SpeedGauge) -> tuple[list, list, list]:
    """Scaled and raw wall times (s) of SETUP_REPEATS fresh set-up processes,
    and the sha256 of each one's warm-up output."""
    scaled, raw, shas = [], [], []
    for _ in range(SETUP_REPEATS):
        ms, code, stdout, stderr = run_child([sys.executable, SCRIPT, "--setup-only",
                                              "--workload", workload, "--seed", str(seed)])
        if code != 0:
            raise SystemExit(f"error: set-up child failed: {stderr[-2000:]}")
        raw.append(ms / 1e3)
        scaled.append(ms / 1e3 / gauge.slowdown())
        shas.append(stdout.split()[-1])
    return scaled, raw, shas


def probe_round(run: Run, j: int) -> None:
    """One round of the other kind of work, for the metrics not native here."""
    if run.workload in CAMPAIGNS:
        run.cli_round()
    else:
        run.campaign_round("campaign-mc", j, trials=PROBE_TRIALS)


def timed_rounds(run: Run, seconds: float, tracer: Tracer | None) -> tuple[list, list]:
    """Whole rounds until their time adds up to ``seconds``.

    Untraced, the probe rounds are spread evenly between them, so that every
    metric samples the whole run (this machine's speed drifts over ~10 s).
    With a tracer there are no probes, and rounds alternate untraced/traced
    on the same inputs (a campaign pair shares its config), ending traced.
    """
    plain, traced = [], []
    probes = 0 if tracer else PROBE_ROUNDS[run.workload]
    done = 0
    spent = 0.0
    i = 0
    while i < (2 if tracer else 1) or spent < seconds or (tracer and i % 2):
        on = tracer is not None and i % 2 == 1
        start = time.perf_counter()
        if on:
            tracer.install()
        try:
            if run.workload in CAMPAIGNS:
                wall = run.campaign_round(run.workload, i // 2 if tracer else i)
            elif tracer:
                wall = run.cli_round_in_process()
            else:
                wall = run.cli_round()
        finally:
            if on:
                tracer.uninstall()
        spent += time.perf_counter() - start
        (traced if on else plain).append(wall)
        i += 1
        while done < probes and spent >= (done + 0.5) * seconds / probes:
            probe_round(run, done)
            done += 1
    for j in range(done, probes):
        probe_round(run, j)
    return plain, traced


def end_to_end(run: Run, setup: list[float]) -> dict[str, float]:
    if run.workload in CAMPAIGNS:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = run.cli_rss_kib
    bounds = run.samples["bounds"] + run.samples["bounds1"]
    return {
        "setup_s": statistics.median(setup),
        "trials_per_s": statistics.median(run.rates),
        "peak_rss_mb": rss_kib / 1024.0,
        "import_ms_p50": statistics.median(run.samples["import"]),
        "bounds_ms_p50": statistics.median(bounds),
        "search_ms_p50": statistics.median(run.samples["search"]),
        "sample_ms_p50": statistics.median(run.samples["sample"]),
    }


def import_layers() -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        _, code, _, stderr = run_child([sys.executable, "-X", "importtime", "-c",
                                        "import hhbounds"])
        if code != 0:
            raise SystemExit(f"error: import child failed: {stderr[-2000:]}")
        samples.append(parse_importtime(stderr))
    return median_dicts(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs and warm up, then exit")
    args = parser.parse_args(argv)

    require_checkout()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        if args.setup_only:
            run = prepare(args.workload, args.seed, workdir)
            print(f"warm-up sha256 {run.shas[run.warmup_key]}")
            return 0
        gauge = SpeedGauge()
        setup, raw_setup, setup_shas = ([], [], []) if args.trace else measure_setup(
            args.workload, args.seed, gauge)
        run = prepare(args.workload, args.seed, workdir, gauge)
        # The set-up processes made the same warm-up: it must match across
        # processes too (string hashing, set order and the like differ there).
        for sha in setup_shas:
            run.same_output(run.warmup_key, sha)
        tracer = Tracer(run.hh) if args.trace else None
        if tracer and tracer.missing:
            print(f"warning: not traced (missing): {tracer.missing}", file=sys.stderr)
        plain, traced = timed_rounds(run, args.seconds, tracer)
        if args.workload in CAMPAIGNS:
            # Same config as the warm-up: the result must be byte-identical.
            run.campaign_round(args.workload, 0, trials=WARMUP_TRIALS, count=False)
        if args.workload == "campaign-mc":
            run.mc_reference()
        if tracer:
            values = tracer.metrics()
            values.update(import_layers())
            values["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(plain) - 1.0)
            units = dict(PER_LAYER)
            tracer.write(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
        else:
            values = end_to_end(run, setup)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.problems += checks.check_chance_failures(len(run.chance_failures))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in run.chance_failures:
        print(f"verdict failed within MC chance (not counted): {failure}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, setup_s=setup, raw_setup_s=raw_setup,
                  round_walls_s=plain, traced_round_walls_s=traced, cli_ms=run.samples,
                  raw_cli_ms=run.raw_samples, round_trials_per_s=run.rates,
                  raw_round_trials_per_s=run.raw_rates, slowdowns=gauge.slowdowns,
                  sha256={"/".join(map(str, key)): sha for key, sha in run.shas.items()},
                  chance_failures=run.chance_failures,
                  problems=run.problems)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
