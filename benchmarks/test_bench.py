"""Tests of the benchmark's own arithmetic, tracer and metric names."""

import json
import os
import re
import threading

import pytest

import run as bench
from tracer import LAYER_METRICS, Span, Tracer, covered, layer_metrics, self_times

dm = bench.load_package()

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 8.0)]) == pytest.approx(7.0)
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(2.0, 3.0), (4.0, 5.0), (2.5, 4.5)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_counts_overlapping_children_from_two_threads_once():
    main, worker_a, worker_b = 1, 2, 3
    spans = [
        Span(1, None, main, "experiment", "run_sweep", 0.0, 10.0),
        Span(2, 1, worker_a, "otoc", "otoc_series", 1.0, 5.0),
        Span(3, 1, worker_b, "otoc", "otoc_series", 3.0, 8.0),
        Span(4, 2, worker_a, "linalg", "eigh", 2.0, 3.0),
        Span(5, 3, worker_b, "linalg", "eigh", 7.5, 9.0),  # outlives its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # union of [1, 5] and [3, 8]
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(5.0 - 0.5)  # child clipped at 8
    assert selfs[4] == pytest.approx(1.0)
    metrics = layer_metrics(spans)
    assert metrics["experiment.self_s"][0] == pytest.approx(3.0)
    assert metrics["otoc.self_s"][0] == pytest.approx(7.5)
    assert metrics["experiment.concurrency"][0] == pytest.approx(9.0 / 10.0)
    assert metrics["experiment.queue_wait_s"][0] == pytest.approx(1.0 + 3.0)


def _is_traced(fn):
    return hasattr(fn, "__wrapped__")


def test_tracer_rebinds_every_namespace_and_parents_pool_spans():
    spec = dm.SweepSpec(
        base=dm.ChainConfig(n=3, d_strength=1.0),
        swept_parameter="temperature",
        values=(0.5, 1.0),
        grid=dm.TimeGrid(0.0, 1.0, 3),
    )
    with Tracer() as tracer:
        assert all(_is_traced(fn) for fn in (
            dm.eigh, dm.linalg.eigh, dm.otoc.eigh, dm.thermal.eigh,
            dm.otoc.build_dm, dm.otoc.gibbs_state, dm.otoc.check_density_matrix,
            dm.otoc.uhlmann_fidelity, dm.otoc.evolution_hamiltonian,
            dm.experiment.otoc_series, dm.experiment.build_dm,
            dm.experiment.gibbs_state, dm.experiment.purity))
        traced = dm.run_sweep(spec, jobs=2)
    assert not _is_traced(dm.otoc.eigh) and not _is_traced(dm.thermal.eigh)
    assert not _is_traced(dm.experiment.otoc_series) and not _is_traced(dm.run_sweep)
    assert [s.values.tolist() for s in traced.series] == [
        s.values.tolist() for s in dm.run_sweep(spec, jobs=2).series]

    by_id = {s.id: s for s in tracer.spans}
    (sweep,) = [s for s in tracer.spans if s.name == "run_sweep"]
    series = [s for s in tracer.spans if s.name == "otoc_series"]
    assert len(series) == 2
    assert all(s.parent == sweep.id for s in series)
    assert all(s.thread != threading.get_ident() for s in series)
    assert all(s.parent in by_id for s in tracer.spans if s.parent is not None)

    metrics = layer_metrics(tracer.spans)
    values = {name: value for name, (value, _) in metrics.items()}
    assert values["otoc.points"] == 6
    assert values["hamiltonian.build_dm.calls"] == 6  # series, purity, evolution
    assert values["hamiltonian.build_dm.reuse_ratio"] == pytest.approx(2 / 6)
    assert values["linalg.eigh.ops_computed"] == 8**3 * values["linalg.eigh.calls"]
    assert values["cli.self_s"] == 0.0
    assert values["experiment.run_sweep.s"] > 0.0


def test_metric_and_workload_names_are_well_formed_and_declared():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    names += list(LAYER_METRICS) + list(bench.END_TO_END) + list(bench.WORKLOADS)
    assert all(NAME.fullmatch(name) for name in names), names
    assert [m["name"] for m in declared["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == [
        *LAYER_METRICS, "trace.overhead_s"]
    assert {w["name"] for w in declared["workloads"]} <= set(bench.WORKLOADS)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert all(units[name] == unit for name, unit in LAYER_METRICS.items())
    assert all(units[name] == unit for name, unit in bench.END_TO_END.items())


def test_sweep_check_passes_the_program_and_catches_a_perturbed_value(tmp_path):
    workload = bench.CliSweep(7, "sweep-t", "sweep_t", 3, "temperature", (0.5, 1.0), 5)
    csv_path = workload.run(str(tmp_path))
    assert workload.check(csv_path) == (0, [])

    lines = open(csv_path, encoding="utf-8").read().splitlines()
    perturbed = []
    for line in lines:
        fields = line.split(",")
        if not line.startswith(("#", "swept_param")) and float(fields[2]) > 0.0:
            fields[3] = repr(float(fields[3]) * (1.0 - 1e-7))
        perturbed.append(",".join(fields))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(perturbed) + "\n")
    failed, notes = workload.check(csv_path)
    assert failed >= 1 and any("reference" in note for note in notes)


def test_model_selection_check_fails_the_series_of_an_error_row():
    Row = dm.experiment.ModelRow
    workload = bench.ModelSelect(bench.DEFAULT_SEED)
    committed = [Row(model, d, t) for model, d, t in bench.EXPECTED_MODEL_ROWS]
    report = dm.ModelSelectionReport(rows=tuple(committed), recommended="sum")
    assert workload.check(report)[0] == 0

    broken = [committed[0], Row("dm", False, False, error="boom"), Row("sum", False, True)]
    failed, _ = workload.check(dm.ModelSelectionReport(rows=tuple(broken), recommended="ising"))
    assert failed == 2 * workload.per_row
    assert bench.ModelSelect(1).check(
        dm.ModelSelectionReport(rows=(committed[0], committed[1], broken[2]),
                                recommended="inconclusive"))[0] == 0
