"""Flow CSV ingestion and moment-matched synthetic flow generation.

Both sources produce a ``FlowTable``: one array per column, in the
order the flows were first seen (CSV) or generated (synthetic).

The input format is a UTF-8 CSV whose header names the columns
``flow_id,demand_mbps,distance_miles,region,dest_type`` in any order
('.' decimal separator; the last two may be blank or absent, other
columns are ignored). Fields may be quoted with '"' and are stripped;
blank lines are skipped. A missing or non-numeric field, a non-finite
or a negative value, or an empty id is a DomainError naming the line.
Rows sharing a flow_id are aggregated (demands summed, distance
demand-weighted); zero-demand rows are dropped with a counted warning.
numpy's C reader parses the columns; per-row code runs only on a file
that it refuses or whose columns fail validation, to name the bad line.

The synthetic generator stands in for proprietary traffic datasets: it
draws demands and distances from independent lognormals and calibrates
them so the sample matches the requested aggregate volume, coefficients
of variation and demand-weighted mean distance. Bundled presets carry
summary statistics of three reference networks (a European transit
ISP, a large CDN, and a US research network).
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .domain import (
    DomainError,
    FlowTable,
    NoConvergence,
    NumericalFailure,
)

if TYPE_CHECKING:
    from .bundling import ModelContext

log = logging.getLogger(__name__)

FLOW_COLUMNS = ("flow_id", "demand_mbps", "distance_miles", "region", "dest_type")
NUMBER_COLUMNS = ("demand_mbps", "distance_miles")
LABEL_COLUMNS = ("region", "dest_type")
FITTED_COLUMNS = ("flow_id", "q", "d", "v", "c", "class_label")
PARAMS_COLUMNS = ("model", "alpha", "p0", "s0", "consumer_mass")


@dataclass(frozen=True)
class DatasetMoments:
    """Summary statistics a synthetic flow set must reproduce."""

    n_flows: int
    weighted_avg_distance_miles: float
    cv_distance: float
    aggregate_gbps: float
    cv_demand: float
    seed: int = 0

    def __post_init__(self):
        if self.n_flows < 1:
            raise DomainError("n_flows must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        for name in ("weighted_avg_distance_miles", "aggregate_gbps"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        for name in ("cv_distance", "cv_demand"):
            cv = getattr(self, name)
            if not (cv >= 0 and cv * cv < math.inf):
                raise DomainError(f"{name} must be >= 0 with a finite square, got {cv}")
            if cv > 0 and cv * cv == 0:
                # the calibration brackets sigma from sqrt(log1p(cv**2)) = 0
                # by doubling, which never leaves 0
                raise DomainError(f"{name} = {cv} is positive but its square "
                                  "underflows to 0")
        # the sample CV (ddof 0) of n positive values is below sqrt(n-1), so
        # a CV > 0 needs more than CV**2 + 1 flows
        cvs = (self.cv_distance, self.cv_demand)
        fewest = max(math.floor(cv * cv) + 2 if cv > 0 else 1 for cv in cvs)
        if self.n_flows < fewest:
            raise DomainError(f"cv_distance = {cvs[0]} and cv_demand = {cvs[1]} need "
                              f"at least {fewest} flows, got n_flows = {self.n_flows}")


# Summary statistics of the three reference networks (distance w-avg in
# miles, distance CV, aggregate traffic in Gbps, demand CV).
SYNTH_PRESETS: dict[str, DatasetMoments] = {
    "eu-isp": DatasetMoments(10_000, 54.0, 0.70, 37.0, 1.71),
    "cdn": DatasetMoments(10_000, 1988.0, 0.59, 96.0, 2.28),
    "internet2": DatasetMoments(10_000, 660.0, 0.54, 4.0, 4.53),
}


def preset_moments(name: str, n_flows: int | None = None, seed: int | None = None) -> DatasetMoments:
    """Preset moments by name, optionally resized/reseeded."""
    try:
        m = SYNTH_PRESETS[name]
    except KeyError:
        raise DomainError(f"unknown preset {name!r}; choose from {sorted(SYNTH_PRESETS)}")
    if n_flows is not None:
        m = replace(m, n_flows=n_flows)
    if seed is not None:
        m = replace(m, seed=seed)
    return m


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def atomic_output(path):
    """A text file that replaces ``path`` only once it is whole.

    The block writes ``<path>.tmp.<pid>``, which ``os.replace`` moves
    onto ``path`` when the block ends; if the block raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a CSV through ``atomic_output``.

    Cells go to ``csv.writer`` as they are: None is written blank and
    any other cell with ``str``, which for a float, numpy's float64
    included, is its shortest round-trip repr, so a read-back
    reproduces it bit-identically.
    """
    with atomic_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_flows_csv(path) -> FlowTable:
    """Parse a flow CSV, aggregating duplicate flow ids.

    Duplicate ids have their demands summed and distances averaged with
    demand weights (so re-reading never double-counts a flow recorded
    by several routers); the first non-blank label of each kind wins.
    Zero-demand rows are dropped and counted in a single warning.
    Flows keep the order of their first kept row.

    numpy's C reader parses the file into columns, which are validated
    and merged as whole arrays. A file it refuses, or whose columns fail
    validation, is read again row by row by ``_read_rows``, which raises
    the error naming the line (or, for the few shapes that only
    ``float`` accepts, returns the table).
    """
    with open(path, "rb") as fh:
        flows = _read_columns(fh.read(), path)
    return _read_rows(path) if flows is None else flows


# ASCII separators that numpy's float parser strips around a number and
# float() refuses
_NUMPY_ONLY_SPACE = range(0x1C, 0x20)
_strip = np.frompyfunc(str.strip, 1, 1)


def _read_columns(raw: bytes, path) -> FlowTable | None:
    """The flows of the CSV bytes ``raw``, parsed by numpy and validated
    column by column; None when a row is malformed."""
    if any(code in raw for code in _NUMPY_ONLY_SPACE):
        return None
    fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    try:
        header = next(csv.reader(fh), [])
        _require_columns(header, path)
        position = {name: i for i, name in enumerate(header)}  # a repeated name: its last
        names = [col for col in FLOW_COLUMNS if col in position]
        with warnings.catch_warnings():     # a file without rows is an empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, ndmin=1,
                dtype=[(col, "f8" if col in NUMBER_COLUMNS else object) for col in names],
                usecols=[position[col] for col in names],
            )
    except (ValueError, csv.Error):     # numpy's parse errors, invalid UTF-8
        return None                     # and a header field past csv's limit
    ids = _strip(rows["flow_id"])
    demand, distance = rows["demand_mbps"], rows["distance_miles"]
    valid = (0 <= demand) & (demand < np.inf) & (0 <= distance) & (distance < np.inf)
    if not valid.all() or (ids == "").any():
        return None
    labels = {col: _label_column(rows[col]) if col in position else None
              for col in LABEL_COLUMNS}
    kept = demand != 0
    dropped = len(kept) - int(np.count_nonzero(kept))
    if dropped:
        log.warning("%s: dropped %d zero-demand rows", path, dropped)
        ids, demand, distance = ids[kept], demand[kept], distance[kept]
        labels = {col: None if v is None else v[kept] for col, v in labels.items()}
    id_list = ids.tolist()
    if len(set(id_list)) < len(id_list):
        ids, demand, distance, labels = _merge_duplicates(id_list, demand, distance, labels)
    return FlowTable(ids, demand, distance, **labels)


def _label_column(column: np.ndarray) -> np.ndarray | None:
    """Stripped labels of an object column of fields, None where blank;
    None for a column of empty fields."""
    if (column == "").all():
        return None
    labels = _strip(column)
    labels[labels == ""] = None
    return labels


def _merge_duplicates(id_list: list[str], demand: np.ndarray, distance: np.ndarray,
                      labels: dict) -> tuple:
    """One row per id, in the order of first rows: demands summed,
    distances demand-weighted, each label its first that is not None.

    The weighted mean is the per-row reader's running recurrence in
    file order, so its bits are the same: step k folds every id's
    (k+1)-th row into its running totals at once.
    """
    n = len(id_list)
    group_of = dict(zip(dict.fromkeys(id_list), range(n)))
    group = np.fromiter(map(group_of.__getitem__, id_list), np.intp, n)
    sizes = np.bincount(group)
    by_group = np.argsort(group, kind="stable")
    rank = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    by_rank = by_group[np.argsort(rank, kind="stable")]
    bounds = np.cumsum(np.bincount(rank))
    first = by_rank[:bounds[0]]         # each id's first row, in group order
    total, mean = demand[first], distance[first]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        row = by_rank[lo:hi]
        g = group[row]
        merged = total[g] + demand[row]
        mean[g] = (total[g] * mean[g] + demand[row] * distance[row]) / merged
        total[g] = merged

    def first_given(column: np.ndarray) -> np.ndarray:
        """Each id's first label that is not None; ``by_group`` keeps
        the file order of an id's rows."""
        given = by_group[np.not_equal(column, None)[by_group]]
        g = group[given]
        earliest = np.diff(g, prepend=-1) != 0
        out = np.full(len(group_of), None, dtype=object)
        out[g[earliest]] = column[given[earliest]]
        return out

    return (list(group_of), total, mean,
            {col: None if v is None else first_given(v) for col, v in labels.items()})


def _require_columns(header: list[str], path) -> None:
    for col in ("flow_id", *NUMBER_COLUMNS):
        if col not in header:
            raise DomainError(f"missing column {col!r} in {path}")


def _parse_float(text: str | None, column: str, line: int) -> float:
    if text is None:
        raise DomainError(f"line {line}: missing {column} value")
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"line {line}: bad {column} value {text!r}")
    if not math.isfinite(value):
        raise DomainError(f"line {line}: non-finite {column} value {text!r}")
    return value


def _utf8_text(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line count csv keeps: a line ends at \n, \r or \r\n
        line = len((raw[:exc.start] + b"?").splitlines())
        raise DomainError(f"line {line}: invalid UTF-8 ({exc.reason})") from None


def _read_rows(path) -> FlowTable:
    """``read_flows_csv`` one row at a time: the reader of the files the
    columnar pass refuses, which names the line of the first bad row.

    A row's line is the ``csv`` reader's line count once the row is
    read, so blank lines count and a row whose quoted field spans
    several lines is named by its last line. A field longer than
    ``csv`` allows is a DomainError naming the reader's line count where
    it stops, which is 1 for the header. A byte that is not UTF-8 is a
    DomainError naming the line that holds it.
    """
    with io.StringIO(_utf8_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            _require_columns(reader.fieldnames or [], path)
            acc: dict[str, dict] = {}
            dropped = 0
            for row in reader:
                line = reader.line_num
                fid = (row.get("flow_id") or "").strip()
                if not fid:
                    raise DomainError(f"line {line}: empty flow_id")
                demand = _parse_float(row["demand_mbps"], "demand_mbps", line)
                distance = _parse_float(row["distance_miles"], "distance_miles", line)
                if demand < 0 or distance < 0:
                    raise DomainError(f"line {line}: negative value")
                if demand == 0:
                    dropped += 1
                    continue
                region = (row.get("region") or "").strip() or None
                dest_type = (row.get("dest_type") or "").strip() or None
                slot = acc.get(fid)
                if slot is None:
                    acc[fid] = {
                        "demand": demand,
                        "distance": distance,
                        "region": region,
                        "dest_type": dest_type,
                    }
                else:
                    total = slot["demand"] + demand
                    slot["distance"] = (
                        slot["demand"] * slot["distance"] + demand * distance
                    ) / total
                    slot["demand"] = total
                    slot["region"] = slot["region"] or region
                    slot["dest_type"] = slot["dest_type"] or dest_type
        except csv.Error as exc:        # a field past csv's length limit
            raise DomainError(f"line {reader.reader.line_num}: {exc}") from exc
    if dropped:
        log.warning("%s: dropped %d zero-demand rows", path, dropped)
    slots = acc.values()
    return FlowTable(
        ids=list(acc),
        demand=[s["demand"] for s in slots],
        distance=[s["distance"] for s in slots],
        region=[s["region"] for s in slots],
        dest_type=[s["dest_type"] for s in slots],
    )


def _labels(column: np.ndarray | None, n: int) -> list:
    return [None] * n if column is None else column.tolist()


def write_flows_csv(path, flows: FlowTable) -> None:
    """Write flows in the input CSV format."""
    n = len(flows)
    write_csv(path, FLOW_COLUMNS, zip(
        flows.ids.tolist(), flows.demand.tolist(), flows.distance.tolist(),
        _labels(flows.region, n), _labels(flows.dest_type, n)))


def write_fitted_csv(path, ctx: ModelContext) -> None:
    """Write the fitted flows of a ``ModelContext``."""
    write_csv(path, FITTED_COLUMNS, zip(
        ctx.ids.tolist(), ctx.q.tolist(), ctx.d.tolist(), ctx.v.tolist(),
        ctx.c.tolist(), _labels(ctx.class_labels, len(ctx))))


def write_params_csv(path, ctx: ModelContext) -> None:
    """Write the market parameters of a fitted ``ModelContext``; s0 and
    the consumer mass are blank under CED."""
    write_csv(path, PARAMS_COLUMNS,
              [(ctx.model.value, ctx.alpha, ctx.p0, ctx.s0, ctx.consumer_mass)])


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


# An exact sample CV below cv*(1 - 1e-6), or above cv*(1 + 1e-6), by more
# than this share of cv settles the bisection steps on its side of its
# sigma (see _calibrated_lognormal).
_SETTLE_SLACK = 1e-9
# A target CV below this is bisected with an exact CV at every step: the
# computed CV's absolute error, up to about 3e-13 (1 + CV), would no
# longer be far below the slack.
_SETTLE_MIN_CV = 1e-2
# Secant steps aim an exact CV this share of cv outside each edge of the
# band, and stop on that side once one lies within twice the band's
# half-width of the edge, or after _ANCHOR_STEPS steps.
_ANCHOR_AIM = 1.1e-6
_ANCHOR_CLOSE = 2e-6
_ANCHOR_STEPS = 6


def _calibrated_lognormal(z: np.ndarray, cv: float) -> np.ndarray:
    """Positive sample exp(sigma*z), or a constant multiple of it, with
    its *sample* coefficient of variation driven to ``cv``.

    The textbook sigma = sqrt(ln(1+cv^2)) only matches the population
    CV; for heavy tails (cv >~ 2) the sample CV of a finite draw spreads
    far beyond any useful tolerance, so sigma is tuned by bisection on
    the fixed draw instead. Deterministic given ``z``. The sample CV is
    scale-free, so a draw that overflows float64 is taken as
    exp(sigma*(z - max z)) instead. NoConvergence when no sigma up to
    1e3 reaches ``cv``.

    Most bisection steps are settled without computing a CV. For
    sigma >= 0 the sample CV of exp(sigma*z) rises with sigma:
    CV^2 + 1 = M(2 sigma) / M(sigma)^2 for the sample moment generating
    function M, and the log of that ratio has derivative
    2 (K'(2 sigma) - K'(sigma)) >= 0, as K = log M is convex. So an
    exact CV at sigma_a that lies below the band cv*(1 -+ 1e-6) by more
    than ``_SETTLE_SLACK`` * cv settles every midpoint at or below
    sigma_a as "below, not converged", and one above the band settles
    every midpoint at or above its sigma as "above": the outcome an
    exact step would compute, as long as the computed CV's rounding
    error stays far below the slack. Each value of the draw is within
    about 1500 ulp of exact (an exp argument of up to 745 in magnitude,
    beyond which exp underflows, rounded twice on the shifted draw);
    with a finite max z >= 0 the draw's largest value is at least 1, so
    the values lost to underflow do not count; so the computed CV is
    off by at most about 3e-13 (1 + CV), which for cv >=
    ``_SETTLE_MIN_CV`` is below 1/30 of the slack. Other draws and
    targets compute the CV at every step.

    Before the bisection, a few secant steps on log(CV/cv) against
    log(sigma) place exact CVs just outside both edges of the band.
    They decide only which steps are settled, never a step's outcome,
    and stop where a CV computes to 0 or is not finite, or the slope is
    not positive. The converged midpoint is always computed, as its
    draw is the result, and so is the last one of a bisection that does
    not converge, as its residual is the error's.
    """
    if cv == 0.0:
        return np.ones_like(z)
    # every evaluation runs in these two buffers: n-element temporaries
    # freed at each step would go back to the kernel and fault in again
    n = z.size
    x, dev = np.empty_like(z), np.empty_like(z)
    settles = cv >= _SETTLE_MIN_CV and 0 <= z.max() < math.inf
    low, high = cv * (1 - 1e-6 - _SETTLE_SLACK), cv * (1 + 1e-6 + _SETTLE_SLACK)
    # (sigma, CV) of the largest sigma settled below the band and of the
    # smallest settled above it; (sigma, CV) of every exact evaluation
    anchors = [(0.0, 0.0), (math.inf, math.inf)]
    trail = []

    def exact_cv(sigma: float) -> float:
        got = _exact_cv(sigma, z, x, dev)
        if settles and got < low and sigma > anchors[0][0]:
            anchors[0] = (sigma, got)
        if settles and got > high and sigma < anchors[1][0]:
            anchors[1] = (sigma, got)
        trail.append((sigma, got))
        return got

    where = f"sample CV calibration to cv = {cv} over {n} flows"
    lo, hi = 0.0, float(np.sqrt(np.log1p(cv * cv)))
    while exact_cv(hi) < cv:
        hi *= 2.0
        if hi > 1e3:
            raise NoConvergence(f"{where} needs sigma > 1e3")
    for side in (0, 1) if settles else ():
        aim = cv * (1 + _ANCHOR_AIM) if side else cv * (1 - _ANCHOR_AIM)
        for _ in range(_ANCHOR_STEPS):
            if abs(anchors[side][1] - cv) <= _ANCHOR_CLOSE * cv:
                break
            sigma = _secant_sigma(trail, aim, anchors[0][0], min(anchors[1][0], hi))
            if sigma is None:
                break
            exact_cv(sigma)
    for _ in range(100):
        sigma = 0.5 * (lo + hi)
        if sigma <= anchors[0][0]:
            lo = sigma
        elif sigma >= anchors[1][0]:
            hi = sigma
        else:
            got = exact_cv(sigma)
            if abs(got - cv) <= 1e-6 * cv:
                break
            if got < cv:
                lo = sigma
            else:
                hi = sigma
    else:
        # the last step may have been settled; its residual is computed
        got = _exact_cv(sigma, z, x, dev)
        raise NoConvergence(f"{where} did not converge", residual=abs(got - cv))
    return x


def _secant_sigma(trail: list, aim: float, below: float, above: float) -> float | None:
    """The sigma where the line through the last two (sigma, CV) points
    of ``trail``, in log-log, reaches CV = ``aim``; with one point, the
    line of slope 1. None where a CV is not positive and finite, the
    slope is not positive, or that sigma is not between ``below`` and
    ``above``."""
    s2, c2 = trail[-1]
    s1, c1 = trail[-2] if len(trail) > 1 else (s2 / 2, c2 / 2)
    if not (0 < c1 < math.inf and 0 < c2 < math.inf):
        return None
    rise, run = math.log(c2 / c1), math.log(s2 / s1)
    if not rise * run > 0:
        return None
    step = math.log(aim / c2) * run / rise
    if not step < math.log(above / s2):
        return None
    sigma = s2 * math.exp(step)
    return sigma if sigma > below else None


def _exact_cv(sigma: float, z: np.ndarray, x: np.ndarray, dev: np.ndarray) -> float:
    """The sample CV of exp(sigma*z), or of exp(sigma*(z - max z)) where
    that overflows, with the draw left in ``x``; ``dev`` is scratch of
    the same size."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(np.multiply(sigma, z, out=x), out=x)
        got = _buffer_cv(x, dev)
    if math.isfinite(got):
        return got
    np.subtract(z, z.max(), out=x)
    np.exp(np.multiply(sigma, x, out=x), out=x)
    return _buffer_cv(x, dev)


def _buffer_cv(x: np.ndarray, dev: np.ndarray) -> float:
    """x.std() / x.mean(), in numpy's arithmetic, with ``dev`` as scratch."""
    mean = np.add.reduce(x) / x.size
    np.subtract(x, mean, out=dev)
    np.multiply(dev, dev, out=dev)
    return float(np.sqrt(np.add.reduce(dev) / x.size) / mean)


def synth_generate(moments: DatasetMoments) -> FlowTable:
    """Generate flows whose sample moments match ``moments``.

    Demands and distances are independent lognormals (the reference
    statistics say nothing about their joint structure, so none is
    assumed; note that bundling strategies keying on demand-cost
    alignment behave very differently on such data than on real
    traffic). Demands are scaled to the aggregate volume exactly;
    distances are rescaled once onto the demand-weighted mean unless it
    is already within 1% of it. Bit-identical output for identical
    (moments, seed). NoConvergence, naming the CV and the flow count,
    when no draw reaches a CV; NumericalFailure when the one that does
    leaves flows at 0.

    The ids, demand and distance arrays are handed over read-only, so
    the returned ``FlowTable`` holds them without a copy. The ids are
    copied out of the code-point matrix they are built in before either
    normal draw, so the matrix is freed before the calibrations run.
    """
    rng = np.random.default_rng(moments.seed)
    n = moments.n_flows
    # the ids are copied out of the matrix they view, and the copy shared,
    # before the draws: freeing the matrix raises glibc's mmap threshold to
    # its size (up to 32 MiB, about 700k flows), so the calibrations' column-
    # sized temporaries reuse the heap instead of faulting in fresh pages
    ids = _synth_ids(n).copy()
    ids.flags.writeable = False
    # the distance draw follows the demand draw in the stream, and is
    # taken only once the demand draw and its calibration buffers are freed
    q = _calibrated_lognormal(rng.standard_normal(n), moments.cv_demand)
    q *= moments.aggregate_gbps * 1000.0 / q.sum()

    d = _calibrated_lognormal(rng.standard_normal(n), moments.cv_distance)
    target = moments.weighted_avg_distance_miles
    got = float(np.sum(q * d) / q.sum())
    if abs(got - target) > 1e-2 * target:
        # the weighted mean is linear in d: one rescale lands on the target
        d *= target / got
    for name, values in (("cv_demand", q), ("cv_distance", d)):
        if not values.min() > 0:
            raise NumericalFailure(f"{name} = {getattr(moments, name)} over {n} flows "
                                   "needs a draw whose smallest flows underflow to 0")
    q.flags.writeable = d.flags.writeable = False
    return FlowTable(ids, q, d)


def _synth_ids(n: int) -> np.ndarray:
    """Ids ``synth-<i>`` for i in 0..n-1, the index zero-padded to the
    width of n-1: one code point per column of a ``uint32`` matrix,
    viewed as a unicode array.

    The digit column of 10**k counts runs of 10**k equal digits through
    0-9 and again: each whole cycle of 10**(k+1) rows, then the rows
    left over, is written as one block through a reshaped view of the
    matrix's rows."""
    prefix = "synth-"
    width = len(str(n - 1))
    codes = np.empty((n, len(prefix) + width), dtype=np.uint32)
    codes[:, :len(prefix)] = [ord(ch) for ch in prefix]
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    for k in range(width):
        col, run = codes.shape[1] - 1 - k, 10 ** k
        whole = n - n % (10 * run)
        codes[:whole].reshape(-1, 10, run, codes.shape[1])[..., col] = digits[:, None]
        tail = codes[whole:]
        runs = len(tail) // run
        tail[:runs * run].reshape(runs, run, codes.shape[1])[..., col] = digits[:runs, None]
        tail[runs * run:, col] = digits[runs]
    return codes.view(np.dtype(("U", codes.shape[1]))).reshape(n)
