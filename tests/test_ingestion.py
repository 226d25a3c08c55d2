"""CSV ingestion, round trips, and synthetic moment matching."""

import csv
import dataclasses

import numpy as np
import pytest

from tierpricing.bundling import ModelContext
from tierpricing.domain import (
    DemandModel,
    DomainError,
    FlowTable,
    MissingColumn,
    ParseError,
)
from tierpricing.experiments import ExperimentConfig, fit_context
from tierpricing.ingestion import (
    DatasetMoments,
    SYNTH_PRESETS,
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
        with pytest.raises(MissingColumn):
            read_flows_csv(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = self._write(tmp_path, (
            "flow_id,demand_mbps,distance_miles\n"
            "a,5,10\n"
            "b,oops,10\n"
        ))
        with pytest.raises(ParseError) as err:
            read_flows_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("row", ["b,5", "b", "b,,10", "b,5,"])
    def test_missing_field_reports_line(self, tmp_path, row):
        path = self._write(tmp_path, f"flow_id,demand_mbps,distance_miles\na,5,10\n{row}\n")
        with pytest.raises(ParseError) as err:
            read_flows_csv(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("row", ["b,nan,10", "b,3,inf", "b,-inf,10", "b,3,NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, row):
        path = self._write(tmp_path, f"flow_id,demand_mbps,distance_miles\na,5,10\n{row}\n")
        with pytest.raises(ParseError, match="line 3: non-finite") as err:
            read_flows_csv(path)
        assert err.value.line == 3

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
