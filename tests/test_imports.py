"""What a fresh process loads: the package root loads no submodule, and
the one-shot commands never compile the campaign module.

Every ``hh`` process compiles what it imports from source when no bytecode
is cached, so what a command does not import it does not pay for.  Each
check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import hhbounds
from hhbounds import ConvexFunction, Simplex, standard_simplex
from jsonfiles import write_json

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hhbounds.__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def run_child(code: str, *argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


# Runs ``hh ARGV...`` and reports, on the last line of stderr, its exit
# code and whether it loaded the campaign module.
HH_CHILD = (
    "import json, sys\n"
    "from hhbounds.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, 'hhbounds.campaign' in sys.modules]), file=sys.stderr)\n"
)


def hh_loads_campaign(*argv: str) -> bool:
    proc = run_child(HH_CHILD, *argv)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return loaded


def test_import_loads_no_submodule_and_not_numpy():
    proc = run_child(
        "import sys\n"
        "import hhbounds\n"
        "print(sorted(m for m in sys.modules if m.startswith('hhbounds.') or m == 'numpy'))\n"
    )
    assert proc.stdout.split() == ["[]"]


def test_import_pins_blas_threads_unless_the_caller_set_them():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["MKL_NUM_THREADS"] = "3"
    proc = run_child(
        "import os\n"
        "import hhbounds\n"
        f"print(*(os.environ[v] for v in {BLAS_VARS!r}))\n",
        env=env,
    )
    assert proc.stdout.split() == ["1", "1", "3", "1"]


@pytest.fixture()
def inputs(tmp_path):
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("triangle", "interval", "affine", "hinge")}
    write_json(paths["triangle"], standard_simplex(2).to_json_dict())
    write_json(paths["interval"], Simplex([[0.0], [1.0]]).to_json_dict())
    write_json(paths["affine"], ConvexFunction(
        "affine", {"slope": [1.0, 2.0], "offset": 0.5}).to_json_dict())
    write_json(paths["hinge"], ConvexFunction(
        "hinge_distance", {"slope": [1.0], "threshold": 0.4}).to_json_dict())
    paths["out"] = str(tmp_path / "out.jsonl")
    return paths


def test_bounds_does_not_load_campaign(inputs):
    assert not hh_loads_campaign("bounds", inputs["triangle"], inputs["affine"],
                                 "--theorem", "choquet", "--theorem", "thm4",
                                 "--mc-samples", "1000", "--out", inputs["out"])
    assert not hh_loads_campaign("bounds", inputs["interval"], inputs["hinge"],
                                 "--theorem", "cor2", "--theorem", "cor3",
                                 "--out", inputs["out"])


def test_cor3_search_does_not_load_campaign():
    assert not hh_loads_campaign("cor3-search", "--p", "1", "--q", "1", "--a", "0",
                                 "--b", "1", "--y", "0.75")


def test_sample_does_not_load_campaign(inputs):
    assert not hh_loads_campaign("sample", inputs["triangle"], "--count", "50",
                                 "--out", inputs["out"])


def test_campaign_loads_campaign(tmp_path):
    config = str(tmp_path / "config.json")
    write_json(config, {"dimensions": [1, 2], "trials_per_theorem": 2,
                        "mc_samples": 500, "master_seed": 7})
    assert hh_loads_campaign("campaign", "--config", config,
                             "--out", str(tmp_path / "result.json"))
