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


def test_traced_capture_records_every_build(tmp_path):
    src = os.path.dirname(os.path.dirname(tierpricing.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    spans = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), "run-0",
         "capture", "--n-flows", "200", "--seed", "7", "--bundles", "1..3",
         "--strategy", "optimal,index-division", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    names = [span["name"] for span in json.loads(spans.read_text())["spans"]]
    assert names.count("build.optimal") == 3
    assert names.count("build.index-division") == 3
