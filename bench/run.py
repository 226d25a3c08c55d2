#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tierpricing CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from
``src/``. Every repetition runs the CLI in a fresh interpreter with
``--workers 1`` and checks its outputs. Repetitions go on while the
next one is expected to end within ``--seconds``; there are at least
two untraced ones, so that their outputs can be compared byte for byte.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: the CLI's wall time over the time of a fixed calibration
task run around it (the raw wall time is printed too), the set-up time
(a fresh interpreter importing ``tierpricing.cli``, several per run) and
the CLI's peak RSS. ``--trace 1`` alternates plain runs with runs under
``bench/traced_cli.py`` and reports the per-layer metrics of the
traced ones. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it say the same for a reader, with the machine's
provenance. The exit code is 1 if any output check failed, and 2 if the
program cannot be set up at all.

``--out`` also writes the result to a file, with the provenance and,
untraced, the raw wall times. ``--flows`` runs a workload at another
flow count, without the reference check.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 7

BUNDLES = "1..8"
NUM_BUNDLES = 8
STRATEGIES = ("optimal", "demand-weighted", "cost-weighted", "profit-weighted",
              "cost-division", "index-division")
SENSITIVITY_TAGS = ("alpha-min", "p0-min", "s0-max")

MIN_REPS = 2                # untraced repetitions, so that outputs can be compared
SETUP_REPEATS = 3           # CLI imports timed at set-up
IMPORTS_PER_REP = 1         # and before each untraced repetition
DEADLINE_S = 170.0          # the whole invocation ends well within 180 s
CAPTURE_TOL = 1e-9
REFERENCE_RTOL = 1e-12
MISSING_TARGET = 97         # traced_cli.py exit code for a missing patch target
# A traced run's layer self times plus cli.self_s add up to its own wall
# time; they may differ from the paired untraced run's wall time by the
# tracing overhead and the host's drift between the two runs, at most
# this share of the untraced wall time plus TRACE_ALLOWANCE_S.
TRACE_ALLOWANCE = 0.5
TRACE_ALLOWANCE_S = 1.0

RUN_CLI = "import sys; from tierpricing.cli import main; sys.exit(main())"
# A fixed task independent of the program, timed before and after every
# untraced repetition. The host's speed drifts by up to 2x within seconds
# (other tenants); the same drift slows this task, which does the kind of
# work the CLI does (tuples, dicts, key sorts, numpy), so a repetition's
# wall time over it (wall_rel) varies about half as much as the wall time.
CALIBRATE = ("import numpy as np\n"
             "values = np.random.default_rng(0).random(80_000).tolist()\n"
             "rows = [(f'f{i:06d}', x, {'d': 2.0 * x}) for i, x in enumerate(values)]\n"
             "rows.sort(key=lambda r: (r[1], r[0]))\n"
             "acc = {}\n"
             "for fid, x, extra in rows:\n"
             "    acc[fid] = acc.get(fid, 0.0) + x * extra['d']\n"
             "a = np.array([r[1] for r in rows])\n"
             "for _ in range(5):\n"
             "    np.sort(a)\n")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # CLI subcommand
    model: str                        # demand model
    flows: int
    strategies: tuple[str, ...]       # strategies in the output
    layers: tuple[str, ...]           # layers a traced run must call
    csv_preset: str | None = None     # set-up writes flows of this preset to a CSV

    def rows_expected(self) -> int:
        tags = len(SENSITIVITY_TAGS) if self.command == "sensitivity" else 1
        return len(self.strategies) * NUM_BUNDLES * tags

    def cli_args(self, seed: int, flows: int, flows_csv: Path | None,
                 out: Path) -> list[str]:
        args = [self.command, "--demand-model", self.model, "--cost-model", "linear",
                "--bundles", BUNDLES, "--workers", "1", "--out", str(out)]
        if flows_csv is not None:
            args += ["--input", str(flows_csv)]
        else:
            args += ["--synth-preset", "eu-isp", "--n-flows", str(flows),
                     "--seed", str(seed)]
        if self.strategies != STRATEGIES and self.command == "capture":
            args += ["--strategy", ",".join(self.strategies)]
        return args


COMMON_LAYERS = ("ingest", "fit", "baselines", "evaluate", "sweep", "write")
# Each workload is dominated by other layers, and each bypasses work that
# another stresses (optimal, token buckets, CSV parsing, logit pricing);
# BENCHMARK.json says why each was chosen.
WORKLOADS = {w.name: w for w in (
    Workload(
        "capture-ced", "capture", "ced", 20_000, STRATEGIES,
        COMMON_LAYERS + tuple(f"build.{s}" for s in STRATEGIES),
    ),
    Workload(
        "sensitivity-logit", "sensitivity", "logit", 5_000, ("profit-weighted",),
        COMMON_LAYERS + ("build.profit-weighted", "solve.logit"),
        csv_preset="cdn",
    ),
    Workload(
        "capture-logit", "capture", "logit", 200_000, ("cost-division",),
        COMMON_LAYERS + ("build.cost-division", "solve.logit"),
    ),
)}

# The raw wall time is printed and kept as process.wall_s, but not gated:
# host drift gives it a spread near 0.25 over ten runs, wall_rel about 0.06.
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit. Layers are named after the modules they wrap.
PER_LAYER = {
    "ingest.calls": "count", "ingest.self_s": "s",
    "ingest.flows_per_s": "1/s", "ingest.useful_ratio": "ratio",
    "fit.calls": "count", "fit.self_s": "s",
    "baselines.calls": "count", "baselines.self_s": "s",
    **{f"build.{s}.{k}": u for s in STRATEGIES
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "evaluate.calls": "count", "evaluate.self_s": "s",
    "solve.logit.calls": "count", "solve.logit.self_s": "s",
    "write.calls": "count", "write.self_s": "s", "write.bytes": "B",
    "sweep.self_s": "s", "cli.self_s": "s",
    "process.wall_s": "s", "process.cpu_s": "s", "trace.overhead_s": "s",
    "oracle_capture_mean": "ratio",
}
LAYERS = ("ingest", "fit", "baselines", *(f"build.{s}" for s in STRATEGIES),
          "evaluate", "solve.logit", "write", "sweep")


class SetupError(Exception):
    """The program cannot be prepared or imported: no result is printed."""


@dataclass
class Rep:
    wall_s: float
    exit_code: int
    rss_mb: float
    cpu_s: float
    errors: list[str] = field(default_factory=list)
    csv: bytes = b""
    meta: bytes = b""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log_path: Path, timeout: float) -> tuple[float, int, float, float]:
    """Run one child to completion: (wall s, exit code, peak RSS MB, CPU s).

    The wall time spans spawn to reap. A child still running after
    ``timeout`` seconds is killed; its exit code is then negative.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        pidfd = os.pidfd_open(proc.pid)
        timer = threading.Timer(max(timeout, 0.1), _kill, (pidfd,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def log_tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_rows(workload: Workload, rows: list[dict]) -> list[str]:
    """Row count and capture range checks that hold for any seed."""
    errors = []
    if len(rows) != workload.rows_expected():
        errors.append(f"{len(rows)} rows, expected {workload.rows_expected()}")
    for row in rows:
        capture = float(row["profit_capture"])
        label = f"{row['sweep_param']}/{row['strategy']}/B={row['num_bundles']}"
        if not -CAPTURE_TOL <= capture <= 1 + CAPTURE_TOL:
            errors.append(f"{label}: profit_capture {capture!r} outside [0, 1]")
        if row["num_bundles"] == "1" and abs(capture) > CAPTURE_TOL:
            errors.append(f"{label}: single-tier capture {capture!r} is not 0")
    return errors


# Captures lie in [0, 1], and some reference captures are rounding
# residue near 0 (-4e-16 at B = 1), so they are compared with an absolute
# floor: a reordered floating-point sum must not fail the check.
CAPTURE_COLS = ("profit_capture", "surplus_capture")


def _scale(col: str, *values: float) -> float:
    """The magnitude a difference in ``col`` is measured against."""
    return max(*(abs(v) for v in values), 1.0 if col in CAPTURE_COLS else 0.0)


def _close(col: str, a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REFERENCE_RTOL * _scale(col, a, b)


def check_reference(rows: list[dict], reference: list[dict]) -> list[str]:
    """Heuristic rows match the reference to 1e-12 relative; optimal rows
    may only gain profit."""
    key_cols = ("sweep_param", "sweep_value", "strategy", "num_bundles")
    if [tuple(r[c] for c in key_cols) for r in rows] != \
            [tuple(r[c] for c in key_cols) for r in reference]:
        return ["row keys differ from the reference"]
    errors = []
    for row, ref in zip(rows, reference):
        label = f"{row['sweep_param']}/{row['strategy']}/B={row['num_bundles']}"
        if row["strategy"] == "optimal":
            for col in ("profit", "profit_capture"):
                new, old = float(row[col]), float(ref[col])
                if new < old - REFERENCE_RTOL * _scale(col, old):
                    errors.append(f"{label}: {col} {new!r} below reference {old!r}")
            continue
        if row["effective_bundles"] != ref["effective_bundles"]:
            errors.append(f"{label}: effective_bundles differ from the reference")
        for col in ("profit", "profit_capture", "consumer_surplus", "surplus_capture"):
            if not _close(col, float(row[col]), float(ref[col])):
                errors.append(f"{label}: {col} {row[col]} != reference {ref[col]}")
    return errors


def oracle_capture_mean(rows: list[dict]) -> float:
    """Mean profit capture of the optimal rows with two or more tiers; 0
    when the workload runs no optimal search."""
    values = [float(r["profit_capture"]) for r in rows
              if r["strategy"] == "optimal" and int(r["num_bundles"]) >= 2]
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[dict], wall_s: float) -> tuple[dict, list[str]]:
    """Calls, self time and counts per layer from one traced run, and the
    integrity errors found in its span tree."""
    errors = []
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["parent"] is not None and parent is None:
            errors.append(f"span {s['name']} has an unknown parent")
        elif parent is not None:
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                errors.append(f"span {s['name']} is not inside {parent['name']}")
            child_time[parent["id"]] += s["end"] - s["start"]
    out = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("calls", "self_s")}
    flows, inputs, written = 0, set(), 0
    for s in spans:
        self_s = s["end"] - s["start"] - child_time[s["id"]]
        if self_s < -1e-9:
            errors.append(f"span {s['name']} has negative self time {self_s!r}")
        if s["name"] not in LAYERS:
            errors.append(f"unexpected span {s['name']}")
            continue
        out[f"{s['name']}.calls"] += 1
        out[f"{s['name']}.self_s"] += self_s
        flows += s.get("flows", 0)
        written += s.get("bytes", 0)
        if "input" in s:
            inputs.add(s["input"])
    roots = [s for s in spans if s["parent"] is None]
    if sorted(s["name"] for s in roots) != ["sweep", "write"]:
        errors.append(f"top-level spans are {sorted(s['name'] for s in roots)}, "
                      "expected one sweep and one write")
    out["cli.self_s"] = wall_s - sum(s["end"] - s["start"] for s in roots)
    if out["cli.self_s"] < 0:
        errors.append("top-level spans exceed the process wall time")
    ingest = out["ingest.self_s"]
    out["ingest.flows_per_s"] = flows / ingest if ingest > 0 else 0.0
    calls = out["ingest.calls"]
    out["ingest.useful_ratio"] = len(inputs) / calls if calls else 0.0
    out["write.bytes"] = float(written)
    return out, errors


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class Bench:
    """Set-up, repetitions and checks of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 flows: int | None = None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.flows = flows or workload.flows
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        self.out = self.dir / "out.csv"
        self.log = self.dir / "child.log"
        self.flows_csv = self.dir / "flows.csv" if workload.csv_preset else None
        self.reference = None
        ref_path = REFERENCE_DIR / f"{workload.name}.csv"
        if seed == REFERENCE_SEED and self.flows == workload.flows and ref_path.exists():
            self.reference = read_rows(ref_path.read_bytes())
        self.first: tuple[bytes, bytes] | None = None
        self.reps: list[Rep] = []
        self.setup_times: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def setup(self) -> None:
        """Prepare inputs and time the CLI import; raise SetupError if the
        program cannot be imported at all."""
        if not (SRC / "tierpricing" / "cli.py").is_file():
            raise SetupError(f"no program to benchmark: {SRC / 'tierpricing'} is missing")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.flows_csv is not None:
            argv = [sys.executable, "-c", RUN_CLI, "synth", "--synth-preset",
                    self.w.csv_preset, "--n-flows", str(self.flows),
                    "--seed", str(self.seed), "--out", str(self.flows_csv)]
            if run_child(argv, self.log, self.remaining())[1] != 0:
                raise SetupError(f"writing the input CSV failed: {log_tail(self.log)}")
        self.time_import()                      # fills the bytecode cache
        self.setup_times.clear()
        for _ in range(SETUP_REPEATS):
            self.time_import()

    def time_import(self) -> None:
        """Time a fresh interpreter importing the CLI: the set-up cost every
        run pays before any work."""
        wall, code, _, _ = run_child([sys.executable, "-c", "import tierpricing.cli"],
                                     self.log, self.remaining())
        if code != 0:
            raise SetupError(f"importing tierpricing.cli failed: {log_tail(self.log)}")
        self.setup_times.append(wall)

    def cli_args(self) -> list[str]:
        return self.w.cli_args(self.seed, self.flows, self.flows_csv, self.out)

    def run(self, traced: bool) -> tuple[Rep, dict | None]:
        """One checked repetition; the spans file too when traced."""
        for path in (self.out, Path(f"{self.out}.meta.json")):
            path.unlink(missing_ok=True)
        spans_path = self.dir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path),
                    f"{self.w.name}/s{self.seed}/rep{len(self.reps)}", *self.cli_args()]
        else:
            argv = [sys.executable, "-c", RUN_CLI, *self.cli_args()]
        wall, code, rss, cpu = run_child(argv, self.log, self.remaining())
        rep = Rep(wall, code, rss, cpu)
        self.reps.append(rep)
        if code != 0:
            reason = "missing patch target" if code == MISSING_TARGET else f"exit code {code}"
            rep.errors.append(f"{reason}: {log_tail(self.log)}")
            return rep, None
        rep.csv = self.out.read_bytes()
        rep.meta = Path(f"{self.out}.meta.json").read_bytes()
        rows = read_rows(rep.csv)
        rep.errors += check_rows(self.w, rows)
        if self.reference is not None:
            rep.errors += check_reference(rows, self.reference)
        if self.first is None:
            self.first = (rep.csv, rep.meta)
        elif (rep.csv, rep.meta) != self.first:
            what = "CSV" if rep.csv != self.first[0] else ".meta.json"
            rep.errors.append(f"{what} differs from the first repetition's")
        spans = json.loads(spans_path.read_text()) if traced else None
        return rep, spans

    def keep_going(self, unit_s: float, count: int, min_count: int) -> bool:
        """Start another repetition if it is expected to end in time."""
        elapsed = time.perf_counter() - self.run_start
        if unit_s > self.remaining() - 5:
            return False
        return count < min_count or elapsed + unit_s <= self.seconds

    def calibrate(self) -> float:
        return run_child([sys.executable, "-c", CALIBRATE], self.log, self.remaining())[0]

    def measure(self) -> dict:
        """Untraced repetitions: the end-to-end metrics."""
        self.run_start = time.perf_counter()
        cal = self.calibrate()
        walls, rel = [], []
        while self.keep_going(statistics.median(walls) if walls else 0.0, len(walls),
                              MIN_REPS):
            for _ in range(IMPORTS_PER_REP):    # set-up samples spread over the run
                self.time_import()
            rep, _ = self.run(traced=False)
            walls.append(rep.wall_s)
            cal_after = self.calibrate()
            if rep.exit_code == 0:
                rel.append(rep.wall_s / ((cal + cal_after) / 2))
            cal = cal_after
        ok = [r for r in self.reps if r.exit_code == 0]
        return {
            "wall_s": statistics.median(r.wall_s for r in ok) if ok else math.nan,
            "wall_rel": statistics.median(rel) if rel else math.nan,
            "peak_rss_mb": statistics.median(r.rss_mb for r in ok) if ok else math.nan,
        }

    def measure_traced(self) -> dict:
        """Plain and traced repetitions in turn: the per-layer metrics."""
        self.run_start = time.perf_counter()
        plain, traced, overheads = [], [], []
        pair_s = 0.0
        while self.keep_going(pair_s, len(traced), 1):
            p_rep, _ = self.run(traced=False)
            t_rep, spans = self.run(traced=True)
            pair_s = p_rep.wall_s + t_rep.wall_s
            if spans is None or p_rep.exit_code != 0:
                break
            layers, errors = layer_metrics(spans["spans"], t_rep.wall_s)
            missing = [x for x in self.w.layers if not layers[f"{x}.calls"]]
            if missing:
                errors.append(f"layers never called: {', '.join(missing)}")
            layer_sum = sum(layers[f"{x}.self_s"] for x in (*LAYERS, "cli"))
            allowance = TRACE_ALLOWANCE * p_rep.wall_s + TRACE_ALLOWANCE_S
            if abs(layer_sum - p_rep.wall_s) > allowance:
                errors.append(f"layer self times and cli.self_s sum to {layer_sum:.2f} s, "
                              f"the untraced run took {p_rep.wall_s:.2f} s "
                              f"(allowance {allowance:.2f} s)")
            t_rep.errors += errors
            plain.append(p_rep)
            traced.append((t_rep, layers))
            overheads.append(t_rep.wall_s - p_rep.wall_s)
        if not traced:
            return {}
        out = {k: statistics.median(layers[k] for _, layers in traced)
               for k in traced[0][1]}
        out["process.wall_s"] = statistics.median(r.wall_s for r in plain)
        out["process.cpu_s"] = statistics.median(r.cpu_s for r in plain)
        out["trace.overhead_s"] = statistics.median(overheads)
        out["oracle_capture_mean"] = oracle_capture_mean(read_rows(self.first[0]))
        return out

    def failed(self) -> int:
        return sum(1 for r in self.reps if r.exit_code != 0 or r.errors)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile: {n} samples, 11 needed"
    pct = 100 * (n - 10) / n
    return f"p{pct:.0f} {sorted(values)[n - 11]:.4f} s with 10 of {n} samples above"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 flows: int | None = None) -> tuple[dict, list[float]]:
    """Set up, measure and check one workload; print a summary for a
    reader and return the result object and the untraced runs' raw wall
    times."""
    bench = Bench(workload, seed, seconds, flows)
    try:
        bench.setup()
        if trace:
            values = bench.measure_traced()
            units = PER_LAYER
        else:
            values = bench.measure()
            values["setup_s"] = statistics.median(bench.setup_times)
            units = END_TO_END
    finally:
        bench.cleanup()
    for i, rep in enumerate(bench.reps):
        for err in rep.errors:
            print(f"check failed: {workload.name} rep {i}: {err}", file=sys.stderr)
    failed = bench.failed()
    attempted = len(bench.reps)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()
               if k in values and not math.isnan(values[k])}
    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": attempted, "failed": failed, "metrics": metrics}

    walls = [] if trace else [r.wall_s for r in bench.reps if r.exit_code == 0]
    print(f"{workload.name} seed {seed} {'traced' if trace else 'untraced'}: "
          f"{attempted} runs attempted, {failed} failed, "
          f"error_rate {failed / max(attempted, 1):.3f}")
    if walls:
        print(f"  wall_s {values['wall_s']:.4f} s median of {len(walls)}; "
              f"{tail_percentile(walls)}; each: {' '.join(f'{x:.3f}' for x in walls)}")
        print(f"  wall_rel {values['wall_rel']:.4f} ratio, median of wall time over "
              "the calibration task's")
        print(f"  setup_s {values['setup_s']:.4f} s median of {len(bench.setup_times)}")
        print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        if bench.first is not None and "optimal" in workload.strategies:
            mean = oracle_capture_mean(read_rows(bench.first[0]))
            print(f"  oracle_capture_mean {mean:.6f} ratio")
    else:
        for k, m in metrics.items():
            print(f"  {k} {m['value']:.6g} {m['unit']}")
    return result, walls


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read without leaving it; a checkout that is
    not a git repository has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "tierpricing").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(), "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flows", type=int,
                        help="flow count other than the workload's (no reference check)")
    parser.add_argument("--out", help="also write the result, with provenance, here")
    args = parser.parse_args(argv)
    try:
        result, walls = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), args.flows)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.out:
        saved = {"provenance": prov, "argv": sys.argv[1:], "result": result}
        if walls:
            saved["wall_s"] = {"median": statistics.median(walls), "samples": walls}
        Path(args.out).write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
