import xml.dom.minidom

import numpy as np
import pytest

from dmscramble.experiment import (
    ModelSelectionReport,
    SweepSpec,
    csv_text,
    model_selection_report,
    read_csv,
    render_svg,
    run_sweep,
    svg_text,
    write_csv,
)
from dmscramble.hamiltonian import ChainConfig
from dmscramble.otoc import TimeGrid, otoc_series


@pytest.fixture(scope="module")
def small_result():
    spec = SweepSpec(
        base=ChainConfig(n=3),
        swept_parameter="d_strength",
        values=(0.0, 0.5),
        grid=TimeGrid(t_end=3.0, steps=4),
    )
    return run_sweep(spec)


class TestSweepSpec:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec(base=ChainConfig(n=2), swept_parameter="d_strength",
                      values=())

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            SweepSpec(base=ChainConfig(n=2), swept_parameter="d_strength",
                      values=(0.5, 0.5))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="swept_parameter"):
            SweepSpec(base=ChainConfig(n=2), swept_parameter="h_x",
                      values=(1.0,))

    def test_value_outside_parameter_range_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            SweepSpec(base=ChainConfig(n=2), swept_parameter="temperature",
                      values=(-1.0, 0.5))


class TestRunSweep:
    def test_degenerate_sweep_matches_direct_series(self):
        base = ChainConfig(n=2)
        grid = TimeGrid(t_end=2.0, steps=5)
        spec = SweepSpec(base=base, swept_parameter="d_strength",
                         values=(0.5,), grid=grid)
        result = run_sweep(spec)
        assert len(result.series) == 1
        direct = otoc_series(base.with_(d_strength=0.5), grid)
        np.testing.assert_array_equal(result.series[0].values, direct.values)

    def test_parallel_matches_serial(self, small_result):
        parallel = run_sweep(small_result.spec, jobs=2)
        for s1, s2 in zip(small_result.series, parallel.series):
            assert s1.values.tobytes() == s2.values.tobytes()

    def test_arrays_parallel(self, small_result):
        n = len(small_result.spec.values)
        assert len(small_result.scrambling_times) == n
        assert len(small_result.initial_purities) == n
        assert len(small_result.wall_times) == n


class TestCsv:
    def test_row_count(self, small_result):
        lines = csv_text(small_result).splitlines()
        data = [l for l in lines if not l.startswith("#")
                and not l.startswith("swept_param,")]
        assert len(data) == 2 * 4  # values x grid points

    def test_round_trip(self, small_result, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(small_result, path)
        metadata, rows = read_csv(path)
        assert metadata["evolution_model"] == "sum"
        assert metadata["fidelity_convention"] == "uhlmann-squared-jozsa"
        flat = [
            (value, t, f)
            for value, series in zip(small_result.spec.values, small_result.series)
            for t, f in zip(series.grid.times, series.values)
        ]
        assert len(rows) == len(flat)
        for (param, value, t, f), (ev, et, ef) in zip(rows, flat):
            assert param == "d_strength"
            assert value == ev  # exact: 17 significant digits round-trip
            assert t == et
            assert f == ef

    def test_deterministic_across_runs(self, small_result, tmp_path):
        again = run_sweep(small_result.spec, jobs=1)
        assert csv_text(small_result) == csv_text(again)

    def test_metadata_block(self):
        cfg = ChainConfig(n=3, j_ising=-1.0731, h_x=0.9473, h_z_amp=0.3817,
                          j_x=1.1237, j_y=1.1237, j_z=-0.8642, d_strength=0.7,
                          temperature=0.123, evolution_model="dm")
        spec = SweepSpec(base=cfg, swept_parameter="temperature", values=(0.123, 0.31),
                         grid=TimeGrid(0.25, 3.1, 5), threshold=0.85)
        lines = csv_text(run_sweep(spec, jobs=1)).splitlines()
        assert [l for l in lines if l.startswith("#")] == [
            "# artifact_version=0.1.0",
            "# fidelity_convention=uhlmann-squared-jozsa",
            "# swept_parameter=temperature",
            "# threshold=0.84999999999999998",
            "# n=3",
            "# j_ising=-1.0730999999999999",
            "# h_x=0.94730000000000003",
            "# h_z_amp=0.38169999999999998",
            "# j_x=1.1236999999999999",
            "# j_y=1.1236999999999999",
            "# j_z=-0.86419999999999997",
            "# d_strength=0.69999999999999996",
            "# temperature=0.123",
            "# evolution_model=dm",
            "# t_start=0.25",
            "# t_end=3.1000000000000001",
            "# steps=5",
        ]
        assert lines[17] == "swept_param,swept_value,t,F"

    def test_lf_line_endings(self, small_result, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(small_result, path)
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestSvg:
    def test_valid_xml_with_polyline_per_value(self, small_result, tmp_path):
        path = tmp_path / "sweep.svg"
        render_svg(small_result, path)
        doc = xml.dom.minidom.parse(str(path))
        polylines = doc.getElementsByTagName("polyline")
        assert len(polylines) == len(small_result.spec.values)
        svg = doc.documentElement
        assert svg.getAttribute("width")
        assert svg.getAttribute("height")

    def test_axis_labels_include_grid_endpoints(self, small_result):
        text = svg_text(small_result)
        grid = small_result.spec.grid
        assert f">{grid.t_start:g}<" in text
        assert f">{grid.t_end:g}<" in text

    def test_constant_curve_is_horizontal(self, small_result):
        import dataclasses

        flat = tuple(
            dataclasses.replace(s, values=np.ones_like(s.values))
            for s in small_result.series
        )
        result = dataclasses.replace(small_result, series=flat)
        text = svg_text(result)
        first = text.split('polyline points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in first.split()}
        assert len(ys) == 1


@pytest.fixture(scope="module")
def report():
    # tiny chain and coarse grid: structural checks only
    return model_selection_report(
        base=ChainConfig(n=2),
        grid=TimeGrid(t_end=5.0, steps=11),
        d_values=(0.0, 1.0),
        t_values=(0.05, 1.0),
    )


class TestModelSelection:

    def test_three_rows_two_booleans(self, report):
        assert isinstance(report, ModelSelectionReport)
        assert [r.model for r in report.rows] == ["ising", "dm", "sum"]
        for row in report.rows:
            assert isinstance(row.d_trend_ok, bool)
            assert isinstance(row.t_trend_ok, bool)

    def test_recommendation_rule(self, report):
        qualifying = [r.model for r in report.rows
                      if r.d_trend_ok and r.t_trend_ok]
        if qualifying:
            assert report.recommended == qualifying[0]
        else:
            assert report.recommended == "inconclusive"
