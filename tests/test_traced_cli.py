"""The benchmark's traced CLI still finds every function it wraps.

``bench/traced_cli.py`` wraps layer functions by the names their callers
look up and exits 97 when one is gone, so a rename in ``src/`` breaks
the benchmark's traced runs; this catches it in the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tierpricing

TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def traced_run(tmp_path, name, *args):
    """Span names of one traced CLI run, which must exit 0."""
    src = os.path.dirname(os.path.dirname(tierpricing.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    spans = tmp_path / f"spans-{name}.json"
    res = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), f"run-{name}", *args,
         "--out", str(tmp_path / f"{name}.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    # 97 means a wrapped function is gone
    assert res.returncode == 0, (name, res.returncode, res.stderr)
    return [span["name"] for span in json.loads(spans.read_text())["spans"]]


STRATEGIES = ("optimal", "demand-weighted", "cost-weighted", "profit-weighted",
              "cost-division", "index-division")


def test_traced_capture_records_every_build(tmp_path):
    # under logit profit-weighted tiers are demand-weighted: demand-weighted,
    # listed first, builds them and one evaluation serves both strategies
    for model in ("ced", "logit"):
        names = traced_run(tmp_path, model, "capture", "--demand-model", model,
                           "--n-flows", "300", "--seed", "7", "--bundles", "1..8",
                           "--strategy", ",".join(STRATEGIES))
        shared = {"profit-weighted"} if model == "logit" else set()
        for strategy in STRATEGIES:
            want = 0 if strategy in shared else 8
            assert names.count(f"build.{strategy}") == want, (model, strategy)
        assert names.count("evaluate") == 8 * (len(STRATEGIES) - len(shared))
        # under logit, one price solve per fit (the per-flow baseline) and
        # per evaluation, all through bundling.logit_solve_prices
        solves = (names.count("fit") + names.count("evaluate")) * (model == "logit")
        assert names.count("solve.logit") == solves, model


# distinct grid points per run: the theta grid, or the alpha and p0
# grids plus, under logit, the default four-point s0 grid, whose s0 = 0.2
# is the base market that p0 = 20 already fits
@pytest.mark.parametrize("command, model, points", [
    ("theta-sweep", "ced", 3), ("theta-sweep", "logit", 3),
    ("sensitivity", "ced", 5), ("sensitivity", "logit", 8),
])
def test_traced_sweep_loads_once_and_fits_each_point(tmp_path, command, model, points):
    grids = (["--theta-grid", "0,0.5,1"] if command == "theta-sweep" else
             ["--alpha-grid", "1.5,3", "--p0-grid", "10,20,30"])
    names = traced_run(tmp_path, f"{command}-{model}", command, "--demand-model", model,
                       "--n-flows", "300", "--seed", "7", "--bundles", "1..3", *grids)
    assert names.count("ingest") == 1
    assert names.count("fit") == points
    assert names.count("build.profit-weighted") == 3 * points
    assert names.count("sweep") == (command == "sensitivity")
    solves = (names.count("fit") + names.count("evaluate")) * (model == "logit")
    assert names.count("solve.logit") == solves
