import json
import warnings

import numpy as np
import pytest

from qsme import cli, scenario
from qsme.cli import main
from qsme.scenario import ScenarioError, apply_overrides, validate_scenario


def minimal_scenario(**overrides):
    data = {
        "name": "qubit-smoke",
        "dim": 2,
        "hamiltonian": {"scaled": {"op": "pauli_z", "factor": 0.5}},
        "channels": ["pauli_z"],
        "rho0": {"diag": [0.5, 0.5]},
        "horizon": 0.05,
        "dt": 1e-3,
        "trajectories": 20,
        "seed": 7,
        "engine": "sme_nonlinear",
        "outputs": [{"observable": "pauli_z", "stride": 10, "label": "pauli_z"}],
    }
    data.update(overrides)
    return data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestValidateConfig:
    def test_minimal_scenario_valid(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["validate-config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["engine"] == "sme_nonlinear"

    def test_bad_trace_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario(rho0={"diag": [0.5, 0.4]}))
        assert main(["validate-config", path]) == 2
        assert "trace != 1" in capsys.readouterr().err

    def test_non_hermitian_h_rejected(self, tmp_path, capsys):
        h = {"entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        path = write_scenario(tmp_path, minimal_scenario(hamiltonian=h))
        assert main(["validate-config", path]) == 2
        assert "not Hermitian" in capsys.readouterr().err

    def test_schema_violation_reports_path(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario(engine="magic"))
        assert main(["validate-config", path]) == 2
        assert "/engine" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate-config", "/nonexistent/s.json"]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["validate-config", str(path)]) == 2

    def test_pure_engine_needs_pure_state(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario(engine="pure_nonlinear"))
        assert main(["validate-config", path]) == 2
        assert "pure initial state" in capsys.readouterr().err

    def test_multiple_errors_all_reported(self, tmp_path, capsys):
        data = minimal_scenario(rho0={"diag": [0.5, 0.4]})
        data["outputs"] = [{"observable": "pauli_z", "stride": 7, "label": "z"}]
        path = write_scenario(tmp_path, data)
        assert main(["validate-config", path]) == 2
        err = capsys.readouterr().err
        assert "/rho0" in err and "/outputs/0/stride" in err


class TestSimulate:
    def test_summary_and_csv_written(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        out_dir = str(tmp_path / "out")
        assert main(["simulate", path, "--out", out_dir]) == 0
        info = json.loads(capsys.readouterr().out)
        csv_lines = open(info["csv"]).read().strip().split("\n")
        assert csv_lines[0].startswith("# generated=")
        assert csv_lines[1] == "t,traj_id,observable,value"
        # 6 checkpoints x (20 traj + 1 mean row)
        assert len(csv_lines) == 2 + 6 * 21
        summary = json.load(open(info["summary"]))
        assert summary["observables"]["pauli_z"]["mean"][0] == pytest.approx(0.0)

    def test_reruns_are_byte_identical_modulo_timestamp(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["simulate", path, "--out", str(tmp_path / "a")]) == 0
        info_a = json.loads(capsys.readouterr().out)
        assert main(["simulate", path, "--out", str(tmp_path / "b")]) == 0
        info_b = json.loads(capsys.readouterr().out)
        assert info_a["digest"] == info_b["digest"]
        body_a = open(info_a["csv"]).read().split("\n")[1:]
        body_b = open(info_b["csv"]).read().split("\n")[1:]
        assert body_a == body_b

    def test_dt_override_doubles_rows_and_changes_hash(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["simulate", path, "--out", str(tmp_path / "a")]) == 0
        info_a = json.loads(capsys.readouterr().out)
        assert main(["simulate", path, "--set", "dt=0.0005", "--out", str(tmp_path / "b")]) == 0
        info_b = json.loads(capsys.readouterr().out)
        assert info_a["config_hash"] != info_b["config_hash"]
        rows_a = len(open(info_a["csv"]).read().strip().split("\n")) - 2
        rows_b = len(open(info_b["csv"]).read().strip().split("\n")) - 2
        # same stride on a twice-finer grid: twice as many interior checkpoints
        assert rows_b == 2 * rows_a - 21

    def test_seed_flag_changes_digest(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["simulate", path, "--out", str(tmp_path / "a")]) == 0
        info_a = json.loads(capsys.readouterr().out)
        assert main(["simulate", path, "--seed", "8", "--out", str(tmp_path / "b")]) == 0
        info_b = json.loads(capsys.readouterr().out)
        assert info_a["digest"] != info_b["digest"]

    def test_all_engines_run(self, tmp_path, capsys):
        engines = {
            "pure_linear": {"rho0": {"pure": {"basis": 0}}},
            "pure_nonlinear": {"rho0": {"pure": [[0.6, 0.0], [0.8, 0.0]]}},
            "sme_linear": {},
            "sme_nonlinear": {},
            "ensemble": {"rho0": {"diag": [0.7, 0.3]}},
        }
        for engine, extra in engines.items():
            data = minimal_scenario(engine=engine, **extra)
            path = write_scenario(tmp_path, data, name=f"{engine}.json")
            assert main(["simulate", path, "--out", str(tmp_path / engine)]) == 0
            capsys.readouterr()

    def test_meanfield_zero_interaction_matches_sme_nonlinear(self, tmp_path, capsys):
        base = minimal_scenario(trajectories=50)
        path_a = write_scenario(tmp_path, base, name="direct.json")
        assert main(["simulate", path_a, "--out", str(tmp_path / "a")]) == 0
        info_a = json.loads(capsys.readouterr().out)
        mf = minimal_scenario(
            trajectories=50,
            engine="meanfield",
            meanfield={"interaction": {"variant": "zero"}, "picard_tol": 1e-6},
        )
        path_b = write_scenario(tmp_path, mf, name="meanfield.json")
        assert main(["simulate", path_b, "--out", str(tmp_path / "b")]) == 0
        info_b = json.loads(capsys.readouterr().out)
        mean_a = json.load(open(info_a["summary"]))["observables"]["pauli_z"]["mean"]
        mean_b = json.load(open(info_b["summary"]))["observables"]["pauli_z"]["mean"]
        assert np.allclose(mean_a, mean_b, rtol=0, atol=1e-12)

    def test_meanfield_potential_runs(self, tmp_path, capsys):
        mf = minimal_scenario(
            trajectories=50,
            engine="meanfield",
            meanfield={
                "interaction": {"variant": "potential", "table": [[1.0, -1.0], [-1.0, 1.0]]},
                "picard_tol": 1e-3,
            },
        )
        path = write_scenario(tmp_path, mf)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 0
        info = json.loads(capsys.readouterr().out)
        summary = json.load(open(info["summary"]))
        assert summary["engine_details"]["picard"]["converged"]

    def test_meanfield_non_convergence_exits_3(self, tmp_path, capsys):
        mf = minimal_scenario(
            trajectories=20,
            engine="meanfield",
            meanfield={
                "interaction": {"variant": "potential", "table": [[1.0, -1.0], [-1.0, 1.0]]},
                "picard_tol": 1e-15,
                "picard_max_iter": 1,
            },
        )
        path = write_scenario(tmp_path, mf)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        assert "abort" in capsys.readouterr().err

    def test_sme_linear_trace_collapse_exits_3(self, tmp_path, capsys):
        # a strong channel drives the unnormalized trace through zero at the
        # first step; dividing by it would write |<sigma_z>| up to ~200
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 20.0}}],
            rho0={"diag": [0.7, 0.3]},
            dt=0.01,
            horizon=0.1,
            trajectories=50,
            seed=1,
            engine="sme_linear",
            outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
        )
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["abort"] is True
        assert (report["step"], report["trajectory"]) == (1, 0)
        assert not (tmp_path / "out" / "qubit-smoke.csv").exists()

    def test_meanfield_linear_trace_collapse_names_step_and_trajectory(self, tmp_path, capsys):
        # L = 10 sigma_z with dt 0.05 drives a linear-mode trace through zero
        # on the first step of the first Picard iteration
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.3}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 10.0}}],
            rho0={"diag": [0.7, 0.3]},
            dt=0.05,
            horizon=0.5,
            trajectories=50,
            seed=1,
            engine="meanfield",
            meanfield={
                "interaction": {"variant": "potential", "table": [[1.0, -1.0], [-1.0, 1.0]]},
                "mode": "linear",
            },
            outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
        )
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["abort"] is True
        assert (report["step"], report["trajectory"]) == (1, 0)

    def test_scenario_file_is_closed(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_engine_table_covers_schema(self):
        assert set(cli.ENGINES) == set(scenario.ENGINES) - {"meanfield"}

    def test_json_only_format(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["simulate", path, "--format", "json", "--out", str(tmp_path / "o")]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["csv"] is None


class TestCheck:
    def test_inequalities_suite_passes(self, tmp_path, capsys):
        assert main(["check", "inequalities", "--fast", "--out", str(tmp_path)]) == 0
        report = json.load(open(tmp_path / "check_inequalities.json"))
        assert report["pass"] and len(report["checks"]) == 4

    def test_sabotaged_martingale_fails(self, capsys):
        assert main(["check", "martingale", "--fast", "--sabotage"]) == 1
        err = capsys.readouterr().err
        assert "FAILING" in err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])


class TestOverrides:
    def test_nested_override(self):
        data = minimal_scenario(
            engine="meanfield", meanfield={"interaction": {"variant": "zero"}}
        )
        out = apply_overrides(data, ["meanfield.picard_tol=0.01", "trajectories=5"])
        assert out["meanfield"]["picard_tol"] == 0.01
        assert out["trajectories"] == 5
        assert data["trajectories"] == 20  # original untouched

    def test_string_values_pass_through(self):
        out = apply_overrides(minimal_scenario(), ["engine=sme_linear"])
        assert out["engine"] == "sme_linear"

    def test_malformed_override_rejected(self):
        with pytest.raises(ScenarioError):
            apply_overrides(minimal_scenario(), ["dt," ])


class TestScenarioBuilders:
    def test_builders_compose(self):
        data = minimal_scenario(
            hamiltonian={"sum": ["pauli_x", {"scaled": {"op": "pauli_z", "factor": 2.0}}]}
        )
        sc = validate_scenario(data)
        assert np.allclose(sc.h, np.array([[2.0, 1.0], [1.0, -2.0]]))

    def test_number_operator(self):
        data = minimal_scenario(
            dim=3,
            hamiltonian="number",
            channels=["number"],
            rho0={"diag": [0.5, 0.3, 0.2]},
            outputs=[{"observable": "number", "stride": 10, "label": "n"}],
        )
        sc = validate_scenario(data)
        assert np.allclose(sc.h, np.diag([0, 1, 2]))

    def test_pauli_requires_dim_two(self):
        data = minimal_scenario(dim=3, rho0={"diag": [0.5, 0.3, 0.2]})
        with pytest.raises(ScenarioError, match="dim 2"):
            validate_scenario(data)

    def test_auto_picture_resolution(self):
        sc = validate_scenario(minimal_scenario())
        assert sc.picture == "schroedinger"
        stiff = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_z", "factor": 200.0}}, picture="auto"
        )
        assert validate_scenario(stiff).picture == "interaction"
