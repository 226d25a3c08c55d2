"""The benchmark's traced CLI still finds every function it wraps.

``bench/traced_cli.py`` wraps layer functions by the names their callers
look up and exits 97 when one is gone, so a rename in ``src/`` breaks
the benchmark's traced runs; this catches it in the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tierpricing

TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


STRATEGIES = ("optimal", "demand-weighted", "cost-weighted", "profit-weighted",
              "cost-division", "index-division")


def test_traced_capture_records_every_build(tmp_path):
    src = os.path.dirname(os.path.dirname(tierpricing.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for model in ("ced", "logit"):
        spans = tmp_path / f"spans-{model}.json"
        res = subprocess.run(
            [sys.executable, str(TRACED_CLI), str(spans), f"run-{model}",
             "capture", "--demand-model", model, "--n-flows", "300", "--seed", "7",
             "--bundles", "1..8", "--strategy", ",".join(STRATEGIES),
             "--out", str(tmp_path / f"{model}.csv")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        # 97 means a wrapped function is gone
        assert res.returncode == 0, (model, res.returncode, res.stderr)
        names = [span["name"] for span in json.loads(spans.read_text())["spans"]]
        for strategy in STRATEGIES:
            assert names.count(f"build.{strategy}") == 8, (model, strategy)
        assert names.count("evaluate") == 8 * len(STRATEGIES)
