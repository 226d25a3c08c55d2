"""Run the tierpricing CLI with a span recorded at every layer boundary.

    python3 bench/traced_cli.py SPANS_JSON RUN_ID CLI_ARG...

The layers' public functions are wrapped where their callers look them
up (``tierpricing.experiments`` and ``tierpricing.cli`` import their
callees by name), so nothing under ``src/`` changes. Then
``tierpricing.cli.main`` runs with CLI_ARG. Each span holds its id, the
id of the span that was open when it started, its name, start and end.
Spans stay in memory and are written to SPANS_JSON once, at exit.

Exits with the CLI's own code, or with MISSING_TARGET if a function to
wrap no longer exists.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

MISSING_TARGET = 97


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name, info=None):
        """Return ``fn`` recording a span per call. ``name`` is a string
        or a function of the call's arguments; ``info`` maps
        (args, kwargs, result) to counts kept on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name if isinstance(name, str) else name(args, kwargs),
                "start": start,
                "end": end,
            }
            if info is not None:
                span.update(info(args, kwargs, result))
            self.spans.append(span)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _ingest_info(args, kwargs, flows) -> dict:
    # Equal arguments mean the same input was loaded again.
    key = hashlib.sha1(repr((args, sorted(kwargs.items()))).encode()).hexdigest()
    return {"flows": len(flows), "input": key}


def _write_info(args, kwargs, result) -> dict:
    path = args[0]
    return {"bytes": os.path.getsize(path) + os.path.getsize(f"{path}.meta.json")}


def _build_name(args, kwargs) -> str:
    return f"build.{args[0].value}"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; AttributeError names a missing target."""
    from tierpricing import bundling, cli, experiments

    targets = [
        (experiments, "load_flows", "ingest", _ingest_info),
        (experiments, "fit_context", "fit", None),
        (experiments, "build_bundles", _build_name, None),
        (experiments, "optimal_bundles", "build.optimal", None),
        (experiments, "evaluate_bundling", "evaluate", None),
        (bundling, "logit_solve_prices", "solve.logit", None),
        (cli, "run_capture_curve", "sweep", None),
        (cli, "run_sensitivity_sweep", "sweep", None),
        (cli, "write_results", "write", _write_info),
    ]
    wrapped = []
    for module, attr, name, info in targets:
        fn = getattr(module, attr)
        wrapped.append((module, attr, tracer.wrap(fn, name, info)))
    context = bundling.ModelContext
    for attr in ("from_ced", "from_logit"):
        fn = getattr(context, attr).__func__
        wrapped.append((context, attr, classmethod(tracer.wrap(fn, "baselines"))))
    for owner, attr, fn in wrapped:
        setattr(owner, attr, fn)


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    tracer = Tracer(run_id)
    try:
        install(tracer)
    except AttributeError as exc:
        print(f"traced run: missing patch target: {exc}", file=sys.stderr)
        return MISSING_TARGET
    from tierpricing import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
