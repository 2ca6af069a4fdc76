"""The benchmark's own tests: python -m pytest perfbench/tests -p no:cacheprovider"""

import json
import os
import shutil

import pytest

import run
from check import Z_MAX, reference_means, summary_problems
from qsme.cli import run_scenario
from qsme.scenario import validate_scenario
from tracer import self_times, summarize
from workloads import MIN_ENSEMBLE_CSV_BYTES, WORKLOADS, make_scenario, scenario_bytes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    a = scenario_bytes(make_scenario(workload, 7))
    assert a == scenario_bytes(make_scenario(workload, 7))
    assert a != scenario_bytes(make_scenario(workload, 8))
    validate_scenario(json.loads(a))


def test_workloads_do_not_share_streams():
    seeds = {make_scenario(w, 7)["seed"] for w in WORKLOADS}
    assert len(seeds) == len(WORKLOADS)


@pytest.fixture
def work(request):
    """A scratch directory inside the benchmark's own work area, removed afterwards."""
    path = run.WORK / f"test-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()


def _span(name, start, end, parent, out_bytes=0):
    return [name, start, end, parent, 1, out_bytes]


SYNTHETIC = [
    _span("cli.run_scenario", 0.0, 10.0, -1),  # 0
    _span("noise.sample_wiener_batch", 0.5, 1.5, 0, 800),  # 1
    _span("master.run_nonlinear_sme", 2.0, 9.0, 0),  # 2
    _span("master.nonlinear_sme_step", 2.0, 5.0, 2),  # 3
    _span("linalg.hermitianize", 4.0, 4.5, 3),  # 4
    _span("master.nonlinear_sme_step", 5.0, 8.0, 2),  # 5
    _span("master.nonlinear_sme_step", 6.0, 7.0, 5),  # 6: recursion
    _span("scenario.validate_scenario", -1.0, -0.5, -1),  # 7: outside the root
]


def test_self_time_is_duration_minus_children():
    assert self_times(SYNTHETIC) == [2.0, 1.0, 1.0, 2.5, 0.5, 2.0, 1.0, 0.5]


def test_summary_of_synthetic_tree():
    s = summarize(SYNTHETIC)
    assert s["root_s"] == 10.0
    assert s["self_s"] == {"cli": 2.0, "noise": 1.0, "master": 6.5, "linalg": 0.5}
    assert sum(s["self_s"].values()) == s["root_s"]
    assert s["calls"]["master.nonlinear_sme_step"] == 3
    # The recursive call is inside an outer step and is not counted twice.
    assert s["inclusive_s"]["master.nonlinear_sme_step"] == 6.0
    assert s["name_self_s"]["master.nonlinear_sme_step"] == 5.5
    assert s["inclusive_s"]["scenario.validate_scenario"] == 0.5
    assert s["max_out_bytes"]["noise.sample_wiener_batch"] == 800
    assert s["max_out_bytes"]["master.nonlinear_sme_step"] == 0


def _toy(workload):
    """The workload's scenario shrunk to a second or so; strides still divide the steps."""
    sc = make_scenario(workload, 3)
    sc["horizon"] = {"meanfield_picard": 0.05, "stiff_d16": 0.04, "ensemble_csv": 0.02}[workload]
    sc["trajectories"] = 40
    return sc


def test_output_check_flags_a_sabotaged_mean(work):
    sc = validate_scenario(_toy("stiff_d16"))
    summary = json.loads(open(run_scenario(sc, str(work), fmt="json").json_path).read())
    reference = reference_means(sc)
    assert summary_problems(sc, summary, reference)[0] == []
    obs = summary["observables"]["number"]
    assert obs["stderr"][1] > 0
    obs["mean"][1] += 10 * obs["stderr"][1]
    problems, z = summary_problems(sc, summary, reference)
    assert len(problems) == 1 and "number" in problems[0]
    assert z > Z_MAX


def test_output_check_flags_non_finite_values(work):
    sc = validate_scenario(_toy("ensemble_csv"))
    summary = json.loads(open(run_scenario(sc, str(work), fmt="json").json_path).read())
    summary["observables"]["number"]["mean"][-1] = float("nan")
    summary["observables"]["identity"]["mean"][-1] = 1.0 + 1e-6
    problems, _ = summary_problems(sc, summary, reference_means(sc))
    assert any("non-finite" in p for p in problems)
    assert any("identity" in p for p in problems)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_end_to_end(workload, work):
    bench = run.Bench(workload, _toy(workload), work)
    values, reps = run.measure_end_to_end(bench, seconds=0)
    assert bench.failed == 0 and bench.problems == []
    assert set(values) == set(run.END_TO_END)
    assert all(v > 0 for v in values.values())
    assert bench.env["blas_threads_env"] == "1"
    if workload == "ensemble_csv":
        assert bench.exercise_problems(reps) == [
            f"ensemble_csv wrote {reps[0][0]['csv_bytes']} CSV bytes (< {MIN_ENSEMBLE_CSV_BYTES})"
        ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_traced(workload, work):
    bench = run.Bench(workload, _toy(workload), work)
    values, _ = run.measure_layers(bench, seconds=0)
    assert bench.failed == 0 and bench.problems == []
    assert set(values) == set(run.PER_LAYER)
    # One batch holds every trajectory's increments (M, steps, channels) of float64.
    assert values["noise.bytes"] == bench.sc.trajectories * bench.sc.steps * bench.sc.ls.shape[0] * 8
    assert (values["linalg.dress_calls"] > 0) == (workload == "stiff_d16")
    assert (values["master.step_calls"] > 0) == (workload != "ensemble_csv")
    assert (values["pure.step_s"] > 0) == (workload == "ensemble_csv")
    assert (values["meanfield.picard_iterations"] > 0) == (workload == "meanfield_picard")
    if workload == "meanfield_picard":
        assert values["master.step_calls"] == bench.sc.steps * values["meanfield.picard_iterations"]
    elif workload == "stiff_d16":
        assert values["master.step_calls"] == bench.sc.steps


def test_a_failed_child_fails_only_itself(monkeypatch, work, capsys):
    bench = run.Bench("stiff_d16", _toy("stiff_d16"), work)
    real_launch = run.launch

    def launch(*args, **kwargs):
        if kwargs.get("setup_only") and bench.failed == 0:
            raise run.ChildFailed("child exited -9: ")
        return real_launch(*args, **kwargs)

    monkeypatch.setattr(run, "launch", launch)
    values, reps = run.measure_end_to_end(bench, seconds=0)
    assert (bench.failed, bench.attempted) == (1, run.SETUP_PROBES + len(reps))
    assert values["setup_s"] > 0
    assert "setup probe 0 FAILED: ChildFailed: child exited -9" in capsys.readouterr().err


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(monkeypatch, work, capsys):
    monkeypatch.setattr(run, "SRC", work / "src")
    assert run.main(["--workload", "stiff_d16", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

