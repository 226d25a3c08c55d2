"""CSV ingestion, round trips, and synthetic moment matching."""

import collections
import csv
import dataclasses
import hashlib
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tierpricing import ingestion
from tierpricing.bundling import ModelContext
from tierpricing.cli import main
from tierpricing.domain import (
    DemandModel,
    DomainError,
    FlowTable,
    NoConvergence,
    NumericalFailure,
)
from tierpricing.experiments import ExperimentConfig, fit_context
from tierpricing.ingestion import (
    DatasetMoments,
    SYNTH_PRESETS,
    _calibrated_lognormal,
    _synth_ids,
    preset_moments,
    read_flows_csv,
    synth_generate,
    write_fitted_csv,
    write_flows_csv,
    write_params_csv,
)


FITTED_FIELDS = ("ids", "q", "d", "v", "c", "class_labels")


def columns(table, names=None) -> dict:
    """The columns ``names`` (default: every field) of a FlowTable or
    ModelContext, as Python lists (None for an absent label column),
    for exact comparison."""
    out = {}
    for name in names or [field.name for field in dataclasses.fields(table)]:
        value = getattr(table, name)
        out[name] = None if value is None else value.tolist()
    return out


def read_fitted(path) -> dict:
    """The columns of a fitted-flows CSV, floats parsed, keyed as
    ``columns(ctx, FITTED_FIELDS)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = {"ids": [row["flow_id"] for row in rows]}
    for name in ("q", "d", "v", "c"):
        out[name] = [float(row[name]) for row in rows]
    labels = [row["class_label"] or None for row in rows]
    out["class_labels"] = None if labels.count(None) == len(labels) else labels
    return out


class TestReadFlows:
    def _write(self, tmp_path, text):
        path = tmp_path / "flows.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_duplicate_ids_aggregate(self, tmp_path):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles,region,dest_type\n"
            "a,3,10,,\n"
            "a,4,10,,\n"
        ))
        flows = read_flows_csv(path)
        assert len(flows) == 1
        assert flows.demand[0] == pytest.approx(7.0)
        assert flows.distance[0] == pytest.approx(10.0)

    def test_duplicate_distance_demand_weighted(self, tmp_path):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles,region,dest_type\n"
            "a,1,0,,\n"
            "a,3,40,,\n"
        ))
        flows = read_flows_csv(path)
        assert flows.distance[0] == pytest.approx(30.0)

    def test_zero_demand_dropped_with_warning(self, tmp_path, caplog):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles,region,dest_type\n"
            "a,0,10,,\n"
            "b,0,20,,\n"
            "c,5,30,,\n"
        ))
        with caplog.at_level("WARNING"):
            flows = read_flows_csv(path)
        assert flows.ids.tolist() == ["c"]
        assert "2" in caplog.text

    def test_labels_honored(self, tmp_path):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles,region,dest_type\n"
            "a,5,500,metro,peer\n"
        ))
        flows = read_flows_csv(path)
        assert flows.region.tolist() == ["metro"]
        assert flows.dest_type.tolist() == ["peer"]

    def test_optional_columns_may_be_absent(self, tmp_path):
        path = self._write(tmp_path, "flow_id,demand_mbps,distance_miles\na,5,10\n")
        assert read_flows_csv(path).region is None

    def test_missing_required_column(self, tmp_path):
        path = self._write(tmp_path, "flow_id,demand_mbps\na,5\n")
        with pytest.raises(DomainError, match="missing column 'distance_miles'"):
            read_flows_csv(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles\n"
            "a,5,10\n"
            "b,oops,10\n"
        ))
        with pytest.raises(DomainError, match="^line 3: bad demand_mbps value 'oops'$"):
            read_flows_csv(path)

    @pytest.mark.parametrize("row", ["b,5", "b", "b,,10", "b,5,"])
    def test_missing_field_reports_line(self, tmp_path, row):
        path = self._write(tmp_path, f"flow_id,demand_mbps,distance_miles\na,5,10\n{row}\n")
        with pytest.raises(DomainError, match="^line 3: "):
            read_flows_csv(path)

    @pytest.mark.parametrize("row", ["b,nan,10", "b,3,inf", "b,-inf,10", "b,3,NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, row):
        path = self._write(tmp_path, f"flow_id,demand_mbps,distance_miles\na,5,10\n{row}\n")
        with pytest.raises(DomainError, match="^line 3: non-finite"):
            read_flows_csv(path)

    def test_flows_keep_first_row_order(self, tmp_path):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles,region,dest_type\n"
            "b,1,10,,\n"
            "a,2,20,,peer\n"
            "b,3,10,national,\n"
        ))
        flows = read_flows_csv(path)
        assert flows.ids.tolist() == ["b", "a"]
        assert flows.demand.tolist() == [4.0, 2.0]
        assert flows.region.tolist() == ["national", None]
        assert flows.dest_type.tolist() == [None, "peer"]


def exact(flows: FlowTable) -> dict:
    """Every column of a FlowTable, the numbers as their bytes."""
    out = columns(flows)
    out["ids"] = (flows.ids.dtype.str, out["ids"])
    out["demand"] = flows.demand.tobytes()
    out["distance"] = flows.distance.tobytes()
    return out


def outcome(read, path):
    """What ``read`` makes of the CSV at ``path``: the exact columns of
    its table and the warnings it logged, or the type and message of the
    error it raised."""
    logger = logging.getLogger(ingestion.__name__)
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        return exact(read(path)), [record.getMessage() for record in records]
    except Exception as err:
        return type(err), str(err)
    finally:
        logger.removeHandler(handler)


class TestLineNumbers:
    """A row is named by the csv reader's line count once it is read:
    blank lines count, and a row with a quoted field spanning several
    lines is named by its last line."""

    @pytest.mark.parametrize("text, line", [
        ("flow_id,demand_mbps,distance_miles\n\na,x,1\n", 3),
        ('flow_id,demand_mbps,distance_miles\n"a\nb",x,1\n', 3),
        ('flow_id,demand_mbps,distance_miles\r\n\r\n"a\r\nb",1,1\r\nc,x,1\r\n', 5),
    ])
    def test_bad_row_names_its_own_line(self, tmp_path, text, line):
        path = tmp_path / "flows.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DomainError) as err:
            read_flows_csv(path)
        assert str(err.value) == f"line {line}: bad demand_mbps value 'x'"


    @pytest.mark.parametrize("raw, line, reason", [
        (b"flow_id,demand_mbps,distance_miles\na\xff,1,2\n", 2, "invalid start byte"),
        (b"flow_id\xe9,demand_mbps,distance_miles\na,1,2\n", 1,
         "invalid continuation byte"),
        (b"flow_id,demand_mbps,distance_miles\r\na,1,2\r\n\r\nb,1,2\r\nc\xe2\x82", 5,
         "unexpected end of data"),
        (b"flow_id,demand_mbps,distance_miles\ra,1,2\r\xff", 3, "invalid start byte"),
    ])
    def test_byte_not_utf8_names_its_line(self, tmp_path, raw, line, reason):
        # the decoder reads ahead of the rows, so the line is counted in
        # the bytes, line endings as csv counts them
        path = tmp_path / "flows.csv"
        path.write_bytes(raw)
        with pytest.raises(DomainError) as err:
            read_flows_csv(path)
        assert str(err.value) == f"line {line}: invalid UTF-8 ({reason})"


# flow files that the columnar pass must read itself
COLUMNAR_FILES = {
    "duplicate ids": "flow_id,demand_mbps,distance_miles\na,1,0\nb,2,5\na,3,40\na,0.5,7\n",
    "zero demand": "flow_id,demand_mbps,distance_miles\na,0,10\nb,5,30\nc,-0,1\n",
    "quoted ids": ('flow_id,demand_mbps,distance_miles\n"a,b",1,2\n"say ""hi""",3,4\n'
                   '"two\nlines",5,6\n"a,b",7,8\n'),
    "labels": ("flow_id,demand_mbps,distance_miles,region,dest_type\n"
               "a,1,2,,peer\nb,3,4,metro,\na,5,6,national,customer\nc,7,8,,\n"),
    "padded fields": ("flow_id,demand_mbps,distance_miles,region,dest_type\r\n"
                      " a , 1.5 ,\t2\t, metro ,\r\n\r\n\"b \", 3e2 ,4 ,,  peer\r\n"),
    "reordered columns": ("dest_type,note,distance_miles,flow_id,demand_mbps\n"
                          "peer,x,10,a,1\n,\"y,z\",20,b,2\n,,30,a,3\n"),
    "no rows": "flow_id,demand_mbps,distance_miles,region\n",
}


class TestColumnarReader:
    @pytest.fixture
    def columnar_only(self, monkeypatch):
        """The per-row reader, which fails once patched out."""
        per_row = ingestion._read_rows

        def refuse(path):
            raise AssertionError(f"the columnar pass handed {path} to the per-row reader")

        monkeypatch.setattr(ingestion, "_read_rows", refuse)
        return per_row

    @pytest.mark.parametrize("name", COLUMNAR_FILES)
    def test_reads_without_the_per_row_pass(self, tmp_path, columnar_only, name):
        path = tmp_path / "flows.csv"
        path.write_bytes(COLUMNAR_FILES[name].encode())
        assert outcome(read_flows_csv, path) == outcome(columnar_only, path)

    def test_bench_input_bit_identical(self, tmp_path, columnar_only):
        # the flows of the sensitivity-logit benchmark: cdn, 5k, seed 7
        flows = synth_generate(preset_moments("cdn", n_flows=5000, seed=7))
        path = tmp_path / "flows.csv"
        write_flows_csv(path, flows)
        read = read_flows_csv(path)
        assert exact(read) == exact(columnar_only(path)) == exact(flows)

    def test_merged_rows_fold_in_file_order(self, tmp_path, columnar_only):
        # demand-weighted means whose last bits depend on the order the
        # rows are folded in
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 40, size=400)
        rows = "".join(f"f{i},{q!r},{d!r}\n" for i, q, d in zip(
            ids.tolist(), rng.lognormal(0, 3, size=400).tolist(),
            rng.uniform(0, 1e4, size=400).tolist()))
        path = tmp_path / "flows.csv"
        path.write_text("flow_id,demand_mbps,distance_miles\n" + rows, encoding="utf-8")
        assert outcome(read_flows_csv, path) == outcome(columnar_only, path)

    @pytest.mark.parametrize("cell", ["1_000", "5\x1c", "\x1f5", "\u0661", "0x10", " "])
    def test_numbers_the_parsers_read_differently(self, tmp_path, cell):
        # float() reads the first and fourth; numpy's parser strips the
        # ASCII separators 0x1c-0x1f around a number, float() refuses them
        path = tmp_path / "flows.csv"
        path.write_text(f"flow_id,demand_mbps,distance_miles\na,{cell},2\n", encoding="utf-8")
        assert outcome(read_flows_csv, path) == outcome(ingestion._read_rows, path)

    def test_ids_longer_than_any_fixed_width(self, tmp_path, columnar_only):
        long_ids = ["x" * 300, "y" * 5000, "x" * 301]
        path = tmp_path / "flows.csv"
        path.write_text("flow_id,demand_mbps,distance_miles\n" + "".join(
            f"{fid},1,2\n" for fid in long_ids), encoding="utf-8")
        assert read_flows_csv(path).ids.tolist() == long_ids


def cell_text(draw, text: str) -> str:
    """``text`` as one CSV field: quoted when it must be, and sometimes
    when it need not be."""
    if any(ch in text for ch in ',"\r\n') or draw(st.integers(0, 3)) == 0:
        return '"' + text.replace('"', '""') + '"'
    return text


NUMBER = st.floats(0, 1e6)
FLOW_CELLS = {
    "flow_id": st.one_of(st.sampled_from(["a", "b", " a ", "c,d", 'say "hi"', "two\nlines",
                                          "x" * 300, "\u00e9"]),
                         st.text(min_size=1, max_size=8)),
    "demand_mbps": st.one_of(NUMBER.map(repr), NUMBER.map(lambda x: f" {x:.3f}\t"),
                             st.integers(0, 999).map(str),
                             st.sampled_from(["0", "-0", "0.0", "1e3", ".5", "+2"])),
    "region": st.sampled_from(["", "", "metro", " national ", "international", " "]),
    "dest_type": st.sampled_from(["", "", "customer", "peer ", "\tpeer"]),
    "note": st.text(max_size=6),
}
FLOW_CELLS["distance_miles"] = FLOW_CELLS["demand_mbps"]
# cells that the columnar pass or both readers refuse
BAD_CELLS = {
    "flow_id": st.sampled_from(["", " ", "\t"]),
    "demand_mbps": st.sampled_from(["-1", "nan", "inf", "-inf", "", "oops", "1_000", "0x10",
                                    "5\x1c", "\u0661", "1e400", "5 6"]),
    "region": st.just("moon"),
}
BAD_CELLS["distance_miles"] = BAD_CELLS["demand_mbps"]


@st.composite
def flow_files(draw):
    """The text of a flow CSV: columns in any order, possibly an extra
    one or a required one missing; rows with duplicate, padded, quoted
    and long ids, zero demand and blank labels, in any order, between
    blank lines; about one row in fifteen has a fault: a bad cell, or
    too few or too many fields."""
    columns = ["flow_id", "demand_mbps", "distance_miles"]
    columns += draw(st.lists(st.sampled_from(["region", "dest_type", "note"]), unique=True))
    if draw(st.integers(0, 19)) == 0:
        columns.remove(draw(st.sampled_from(columns[:3])))
    columns = draw(st.permutations(columns))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        fault = draw(st.integers(0, 20 * len(columns)))
        fields = [cell_text(draw, draw(BAD_CELLS.get(col, FLOW_CELLS[col]) if k == fault
                                       else FLOW_CELLS[col]))
                  for k, col in enumerate(columns)]
        if fault == len(columns):
            fields = fields[:draw(st.integers(0, len(fields) - 1))]
        elif fault == len(columns) + 1:
            fields.append("extra")
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=300, deadline=None)
@given(text=flow_files())
def test_columnar_reader_equals_per_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("flows") / "flows.csv"
    path.write_bytes(text.encode())
    assert outcome(read_flows_csv, path) == outcome(ingestion._read_rows, path)


class TestRoundTrips:
    def test_flows_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 50
        flows = FlowTable(
            [f"f{i}" for i in range(n)], rng.lognormal(1, 1.7, size=n),
            rng.uniform(0, 900, size=n),
            region=["metro" if i % 3 == 0 else None for i in range(n)],
            dest_type=["peer" if i % 2 else None for i in range(n)],
        )
        path = tmp_path / "flows.csv"
        write_flows_csv(path, flows)
        assert columns(read_flows_csv(path)) == columns(flows)

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        # the last id, a lone surrogate, cannot be encoded in UTF-8: the
        # write fails well after the first rows reached the file
        n = 5000
        flows = FlowTable([f"f{i}" for i in range(n - 1)] + ["\ud800"], np.ones(n),
                          np.ones(n))
        path = tmp_path / "flows.csv"
        path.write_bytes(b"previous\n")
        with pytest.raises(UnicodeEncodeError):
            write_flows_csv(path, flows)
        assert path.read_bytes() == b"previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_fitted_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 40
        fitted = ModelContext(
            [f"f{i}" for i in range(n)], rng.lognormal(1, 1.5, size=n),
            rng.uniform(1, 900, size=n), rng.uniform(1, 40, size=n),
            rng.uniform(0.1, 10, size=n),
            ["national" if i % 2 else None for i in range(n)],
            DemandModel.CED, 1.5, 20.0,
        )
        path = tmp_path / "fitted.csv"
        write_fitted_csv(path, fitted)
        assert read_fitted(path) == columns(fitted, FITTED_FIELDS)

    def test_params_bit_identical(self, tmp_path):
        flows = synth_generate(preset_moments("eu-isp", n_flows=40, seed=2))
        path = tmp_path / "params.csv"
        header = b"model,alpha,p0,s0,consumer_mass\r\n"
        ced = fit_context(flows, ExperimentConfig())
        write_params_csv(path, ced)
        assert path.read_bytes() == header + b"ced,1.1,20.0,,\r\n"
        logit = fit_context(flows, ExperimentConfig(
            demand_model=DemandModel.LOGIT, alpha=0.7, p0=17.25, s0=0.2))
        write_params_csv(path, logit)
        assert path.read_bytes() == (
            header + f"logit,0.7,17.25,0.2,{logit.consumer_mass!r}\r\n".encode())


def reference_synth_ids(n):
    """The synthetic ids by numpy string operations: ``synth-`` plus the
    index zero-padded to the width of n-1."""
    width = len(str(n - 1))
    return np.char.add("synth-", np.char.zfill(np.arange(n).astype(str), width))


def reference_calibrated_lognormal(z, cv):
    """The sample-CV calibration with fresh temporaries at every
    bisection step: exp(sigma*z), or exp(sigma*(z - max z)) where that
    overflows, at the sigma whose sample CV is within 1e-6 of ``cv``."""
    if cv == 0.0:
        return np.ones_like(z)

    def sample_cv(sigma):
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.exp(sigma * z)
            got = float(x.std() / x.mean())
        if math.isfinite(got):
            return got, False
        x = np.exp(sigma * (z - z.max()))
        return float(x.std() / x.mean()), True

    where = f"sample CV calibration to cv = {cv} over {z.size} flows"
    lo, hi = 0.0, float(np.sqrt(np.log1p(cv * cv)))
    while sample_cv(hi)[0] < cv:
        hi *= 2.0
        if hi > 1e3:
            raise NoConvergence(f"{where} needs sigma > 1e3")
    for _ in range(100):
        sigma = 0.5 * (lo + hi)
        got, shifted = sample_cv(sigma)
        if abs(got - cv) <= 1e-6 * cv:
            break
        if got < cv:
            lo = sigma
        else:
            hi = sigma
    else:
        raise NoConvergence(f"{where} did not converge", residual=abs(got - cv))
    return np.exp(sigma * (z - z.max())) if shifted else np.exp(sigma * z)


def assert_calibrates_like_reference(z, cv) -> str:
    """Assert that ``_calibrated_lognormal`` returns the reference's
    array bit for bit, or raises its error with the same message and
    residual; say which outcome it was."""
    try:
        expected = reference_calibrated_lognormal(z, cv)
    except NoConvergence as err:
        with pytest.raises(NoConvergence) as got:
            _calibrated_lognormal(z, cv)
        assert (str(got.value), repr(got.value.residual)) == (str(err), repr(err.residual))
        return str(err).rpartition(" flows ")[2]
    got = _calibrated_lognormal(z, cv)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    # the shifted draw scales the largest flow to exp(0)
    return "shifted" if expected.max() == 1.0 else "drawn"


# the (preset, n) pairs of test_draws_near_the_cv_bound_reach_it_or_say_why
NEAR_BOUND = [("internet2", 22), ("internet2", 30), ("cdn", 7), ("eu-isp", 4), ("eu-isp", 5)]


class TestSynth:
    def test_presets_carry_published_moments(self):
        eu = SYNTH_PRESETS["eu-isp"]
        assert (eu.weighted_avg_distance_miles, eu.cv_distance,
                eu.aggregate_gbps, eu.cv_demand) == (54.0, 0.70, 37.0, 1.71)
        cdn = SYNTH_PRESETS["cdn"]
        assert (cdn.weighted_avg_distance_miles, cdn.cv_distance,
                cdn.aggregate_gbps, cdn.cv_demand) == (1988.0, 0.59, 96.0, 2.28)
        i2 = SYNTH_PRESETS["internet2"]
        assert (i2.weighted_avg_distance_miles, i2.cv_distance,
                i2.aggregate_gbps, i2.cv_demand) == (660.0, 0.54, 4.0, 4.53)

    @pytest.mark.parametrize("preset", ["eu-isp", "internet2"])
    def test_sample_moments_within_tolerance(self, preset):
        moments = preset_moments(preset, n_flows=10_000, seed=7)
        flows = synth_generate(moments)
        q, d = flows.demand, flows.distance
        assert q.sum() == pytest.approx(moments.aggregate_gbps * 1000.0, rel=1e-9)
        assert q.std() / q.mean() == pytest.approx(moments.cv_demand, rel=0.05)
        assert d.std() / d.mean() == pytest.approx(moments.cv_distance, rel=0.05)
        w_avg = np.sum(q * d) / q.sum()
        assert w_avg == pytest.approx(moments.weighted_avg_distance_miles, rel=0.05)

    def test_deterministic_given_seed(self):
        m = preset_moments("eu-isp", n_flows=500, seed=42)
        a = synth_generate(m)
        b = synth_generate(m)
        assert columns(a) == columns(b)
        assert a.ids.tolist() == [f"synth-{i:03d}" for i in range(500)]

    def test_seeds_differ(self):
        a = synth_generate(preset_moments("eu-isp", n_flows=100, seed=1))
        b = synth_generate(preset_moments("eu-isp", n_flows=100, seed=2))
        assert columns(a) != columns(b)

    # n where the zero-padded index width changes, and the 200k-flow
    # size of the capture-logit benchmark
    @pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 1001, 200_000])
    def test_ids_equal_string_reference(self, n):
        got = _synth_ids(n)
        expected = reference_synth_ids(n)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_generated_flows_carry_the_ids(self):
        for n in (1, 10, 11):
            m = DatasetMoments(n_flows=n, weighted_avg_distance_miles=10.0,
                               cv_distance=0.0, aggregate_gbps=1.0, cv_demand=0.0)
            assert np.array_equal(synth_generate(m).ids, reference_synth_ids(n))

    def test_degenerate_cv_gives_constant_values(self):
        m = DatasetMoments(n_flows=50, weighted_avg_distance_miles=10.0,
                           cv_distance=0.0, aggregate_gbps=1.0, cv_demand=0.0, seed=0)
        flows = synth_generate(m)
        np.testing.assert_allclose(flows.demand, 1000.0 / 50)
        np.testing.assert_allclose(flows.distance, 10.0)

    def test_moment_validation(self):
        with pytest.raises(DomainError):
            DatasetMoments(0, 10.0, 0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            DatasetMoments(10, -1.0, 0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            preset_moments("nonexistent")

    @pytest.mark.parametrize("cv, fewest", [(0.5, 2), (1.0, 3), (2.0, 6), (2.1, 6)])
    @pytest.mark.parametrize("name", ["cv_distance", "cv_demand"])
    def test_a_cv_needs_more_than_its_square_plus_one_flows(self, name, cv, fewest):
        # the sample CV of n positive values is below sqrt(n-1); the other
        # CV is 0.9, which needs 2 flows
        def moments(n):
            cvs = {"cv_distance": 0.9, "cv_demand": 0.9, name: cv}
            return DatasetMoments(n, 10.0, aggregate_gbps=1.0, **cvs)

        with pytest.raises(DomainError, match=f"{name} = {cv}.* need at least {fewest} "
                                              f"flows, got n_flows = {fewest - 1}$"):
            moments(fewest - 1)
        assert moments(fewest).n_flows == fewest

    @pytest.mark.parametrize("preset, n", NEAR_BOUND)
    def test_draws_near_the_cv_bound_reach_it_or_say_why(self, preset, n):
        # these CVs need sigma in the hundreds on some draws, where
        # exp(sigma * z) overflows float64; every draw must reach its
        # sample CVs with positive, finite flows, or name the CV that it
        # cannot reach and the flow count
        moments = preset_moments(preset, n_flows=n)
        cvs = (moments.cv_demand, moments.cv_distance)
        reached = 0
        for seed in range(200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    flows = synth_generate(dataclasses.replace(moments, seed=seed))
                except NumericalFailure as err:
                    # the calibration stops short of a CV; a draw that
                    # reaches it with flows at 0 is a plain failure
                    want = (r"sample CV calibration to cv = ({}|{}) over {} flows needs sigma "
                            r"> 1e3" if type(err) is NoConvergence else
                            r"(cv_demand|cv_distance) = ({}|{}) over {} flows needs a draw "
                            r"whose smallest flows underflow to 0")
                    assert type(err) in (NoConvergence, NumericalFailure)
                    assert re.fullmatch(want.format(*cvs, n), str(err)), err
                    continue
            for values, cv in zip((flows.demand, flows.distance), cvs):
                assert values.min() > 0 and np.isfinite(values).all()
                assert values.std() / values.mean() == pytest.approx(cv, rel=2e-6)
            reached += 1
        assert reached >= 185

    def test_calibration_equals_reference(self):
        # every draw near the CV bound, and eu-isp at benchmark sizes;
        # CVs below float64 resolution at 5k flows cannot converge
        cases = [(preset, n, range(200)) for preset, n in NEAR_BOUND]
        cases += [("eu-isp", n, range(2)) for n in (5000, 200_000)]
        outcomes, shifted = collections.Counter(), set()
        for preset, n, seeds in cases:
            moments = preset_moments(preset, n_flows=n)
            for seed in seeds:
                rng = np.random.default_rng(seed)
                z_q, z_d = rng.standard_normal(n), rng.standard_normal(n)
                for z, cv in ((z_q, moments.cv_demand), (z_d, moments.cv_distance)):
                    outcome = assert_calibrates_like_reference(z, cv)
                    outcomes[outcome] += 1
                    if outcome == "shifted":
                        shifted.add((preset, n, seed))
        z = np.random.default_rng(0).standard_normal(5000)
        for cv in (1e-15, 1e-100):
            outcomes[assert_calibrates_like_reference(z, cv)] += 1
        assert outcomes.keys() == {"drawn", "shifted", "needs sigma > 1e3",
                                   "did not converge"}, outcomes
        # the draw that CI writes twice through the console script
        assert ("internet2", 22, 113) in shifted

    def test_calibration_equals_reference_where_rounding_sets_the_cv(self):
        # near this target the computed CV of these two flows moves in
        # rounding steps wider than the tolerance, and falls in places as
        # sigma rises, so no step may be settled from another step's CV
        z = np.array([1.2, 0.7])
        assert assert_calibrates_like_reference(z, 2.2382840188368513e-12) == "did not converge"

    @pytest.mark.parametrize("n", [20_000, 200_000])
    @pytest.mark.parametrize("preset", sorted(SYNTH_PRESETS))
    def test_calibration_computes_few_cvs(self, preset, n, monkeypatch):
        # the draws of synth at seed 7; an exact CV at every bisection
        # step takes about 20 per target
        sigmas = []
        exact_cv = ingestion._exact_cv
        monkeypatch.setattr(ingestion, "_exact_cv",
                            lambda sigma, *rest: sigmas.append(sigma) or exact_cv(sigma, *rest))
        moments = preset_moments(preset, n_flows=n)
        rng = np.random.default_rng(7)
        z_q, z_d = rng.standard_normal(n), rng.standard_normal(n)
        for z, cv in ((z_q, moments.cv_demand), (z_d, moments.cv_distance)):
            sigmas.clear()
            assert assert_calibrates_like_reference(z, cv) == "drawn"
            assert len(sigmas) <= 10, (cv, sigmas)

    # sha256 of ``synth --synth-preset P --n-flows 5000 --seed 7 --out F``,
    # as written with an exact CV at every bisection step
    SYNTH_5K_SHA256 = {
        "cdn": "e2afa4579fbe75d268c0cc773fe1644847c3ad7de2f3d51340ac51faaf45522f",
        "eu-isp": "32d0ba1a82e2359ffb9fa058784e162488a006aeae705a6400b6cbe706826891",
        "internet2": "8cb2818f58dd73f5735b0dc3b6ae4b3c137166d28950098293786a7b7f451dd6",
    }

    @pytest.mark.parametrize("preset", sorted(SYNTH_5K_SHA256))
    def test_synth_csv_bytes_are_pinned(self, preset, tmp_path):
        out = tmp_path / "flows.csv"
        assert main(["synth", "--synth-preset", preset, "--n-flows", "5000",
                     "--seed", "7", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SYNTH_5K_SHA256[preset]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 500).flatmap(lambda n: st.lists(
               st.floats(-50.0, 50.0), min_size=n, max_size=n)),
           st.one_of(st.just(0.0), st.floats(1e-150, 30.0),
                     st.floats(0.0, 1e-150, exclude_min=True)))
    def test_calibration_equals_reference_on_any_draw(self, z, cv):
        if cv * cv == 0 < cv:
            # both calibrations would loop forever, so the moments refuse it
            with pytest.raises(DomainError, match="underflows to 0"):
                DatasetMoments(len(z), 10.0, 0.5, 1.0, cv)
            return
        assert_calibrates_like_reference(np.array(z), cv)

    @pytest.mark.parametrize("field", ["cv_distance", "cv_demand"])
    @pytest.mark.parametrize("cv", [1e-200, 5e-324])
    def test_a_cv_whose_square_underflows_is_refused(self, field, cv):
        moments = {"cv_distance": 0.5, "cv_demand": 1.0, field: cv}
        with pytest.raises(DomainError, match=f"^{field} = {cv} is positive but its "
                                              "square underflows to 0$"):
            DatasetMoments(100, 10.0, moments["cv_distance"], 1.0, moments["cv_demand"])

    @pytest.mark.parametrize("cv", [-0.5, math.nan, math.inf, 1e200])
    def test_a_cv_must_be_nonnegative_with_a_finite_square(self, cv):
        with pytest.raises(DomainError, match="cv_demand must be >= 0 with a finite square"):
            DatasetMoments(100, 10.0, 0.5, 1.0, cv)
