import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qsme import cli, master, scenario
from qsme.cli import main
from qsme.linalg import random_density, random_hermitian, random_ket, random_operator
from qsme.master import SMEParams, linear_sme_step, run_linear_sme, run_nonlinear_sme
from qsme.noise import sample_wiener_batch
from qsme.pure import run_linear
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

    def test_memory_estimate_reported(self, tmp_path, capsys):
        # 20 trajectories, 50 steps, 1 channel, one observable checkpointed
        # every 10 steps at d = 2: (K+1) M n_obs float64 values plus one
        # complex working state per trajectory
        for engine, extra, per_state in (
            ("sme_nonlinear", {}, 4),
            ("sme_linear", {}, 4),
            ("pure_linear", {"rho0": {"pure": {"basis": 0}}}, 2),
            ("ensemble", {"rho0": {"diag": [0.7, 0.3]}}, 2 * 2),  # rank 2 kets
        ):
            path = write_scenario(tmp_path, minimal_scenario(engine=engine, **extra))
            assert main(["validate-config", path]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["noise_bytes"] == 20 * 50 * 1 * 8
            assert out["checkpoint_bytes"] == 6 * 20 * 1 * 8 + 20 * per_state * 16

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


    def test_duplicate_output_label_rejected(self, tmp_path, capsys):
        data = minimal_scenario()
        data["outputs"] = [
            {"observable": "pauli_z", "stride": 10, "label": "z"},
            {"observable": "pauli_x", "stride": 10, "label": "z"},
        ]
        path = write_scenario(tmp_path, data)
        assert main(["validate-config", path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error at /outputs/1/label:")
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label", ["a,b%s", 'say "z"', "z\r", "z\nz", ","])
    def test_csv_breaking_label_rejected(self, tmp_path, capsys, label):
        data = minimal_scenario()
        data["outputs"] = [
            {"observable": "pauli_x", "stride": 10, "label": "x"},
            {"observable": "pauli_z", "stride": 10, "label": label},
        ]
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error at /outputs/1/label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("engine", ["ensemble", "meanfield"])
    def test_written_csv_hashes_to_digest(self, tmp_path, capsys, engine):
        extra = {"meanfield": {"interaction": {"variant": "zero"}}} if engine == "meanfield" else {}
        path = write_scenario(tmp_path, minimal_scenario(engine=engine, **extra))
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 0
        info = json.loads(capsys.readouterr().out)
        with open(info["csv"], "rb") as f:
            assert f.readline().startswith(b"# generated=")
            body = f.read()
        assert body.startswith(b"t,traj_id,observable,value\n")
        assert hashlib.sha256(body).hexdigest() == info["digest"]

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
            for outputs in (minimal_scenario()["outputs"], []):  # with no outputs only the summary is written
                data = minimal_scenario(engine=engine, outputs=outputs, **extra)
                path = write_scenario(tmp_path, data, name=f"{engine}.json")
                assert main(["simulate", path, "--out", str(tmp_path / engine)]) == 0
                info = json.loads(capsys.readouterr().out)
                final = np.asarray(json.load(open(info["summary"]))["final_state_mean"])
                assert final.shape == (2, 2, 2) and np.all(np.isfinite(final))

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

    def test_sme_linear_trace_collapse_aborts_at_first_checkpoint(self, tmp_path, capsys, monkeypatch):
        # the collapsing scenario above over a 100x horizon: the abort comes
        # from the first checkpoint, not after the whole horizon
        steps = []

        def counting_step(*args):
            steps.append(1)
            return linear_sme_step(*args)

        monkeypatch.setattr(master, "linear_sme_step", counting_step)
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 20.0}}],
            rho0={"diag": [0.7, 0.3]},
            dt=0.01,
            horizon=10.0,
            trajectories=50,
            seed=1,
            engine="sme_linear",
            outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
        )
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert (report["step"], report["trajectory"]) == (1, 0)
        assert len(steps) == 1  # one checkpoint stride

    def test_sme_linear_trace_collapse_without_outputs_exits_3(self, tmp_path, capsys):
        # with no outputs the checkpoints are t = 0 and the horizon; over a
        # one-step horizon the collapse is still caught, at step 1
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 20.0}}],
            rho0={"diag": [0.7, 0.3]},
            dt=0.01,
            horizon=0.01,
            trajectories=50,
            seed=1,
            engine="sme_linear",
            outputs=[],
        )
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["abort"] is True and "trace" in report["reason"]
        assert (report["step"], report["trajectory"]) == (1, 0)
        assert not (tmp_path / "out" / "qubit-smoke.summary.json").exists()

    @staticmethod
    def diverging_density_run(tmp_path, capsys, engine, horizon):
        # L = 5 sigma_z at dt = 0.1 blows the normalized state up: the first
        # update already takes trajectory 1 to tr rho^2 = 25
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.3}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 5.0}}],
            rho0={"diag": [0.7, 0.3]},
            dt=0.1,
            horizon=horizon,
            trajectories=50,
            seed=1,
            engine=engine,
            outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
        )
        if engine == "meanfield":
            data["meanfield"] = {"interaction": {"variant": "potential", "table": [[1.0, -1.0], [-1.0, 1.0]]}}
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["abort"] is True and "purity" in report["reason"]
        assert (report["step"], report["trajectory"]) == (0, 1)
        assert not (tmp_path / "out" / "qubit-smoke.csv").exists()

    @pytest.mark.parametrize("engine", ["sme_nonlinear", "meanfield"])
    def test_diverging_density_run_exits_3(self, tmp_path, capsys, engine):
        # once escaped as a ValueError traceback, exit 1, when the trace guard
        # caught it at step 4
        self.diverging_density_run(tmp_path, capsys, engine, horizon=2.0)

    @pytest.mark.parametrize("engine", ["sme_nonlinear", "meanfield"])
    def test_short_diverging_density_run_exits_3(self, tmp_path, capsys, engine):
        # over 3 steps the trace stays within 1e-8 of 1, so without the
        # purity guard this wrote |<sigma_z>| up to 1e5 to the CSV with exit 0
        self.diverging_density_run(tmp_path, capsys, engine, horizon=0.3)

    def test_pure_linear_vanishing_norm_exits_3(self, tmp_path, capsys):
        # a strong channel at small dt shrinks every linear ket until both
        # components underflow; <sigma_z> is then 0/0, first for trajectory 1
        # at step 729, which was once written to the CSV as nan with exit 0
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 100.0}}],
            rho0={"pure": [[0.6, 0.0], [0.8, 0.0]]},
            dt=1e-4,
            horizon=0.1,
            trajectories=5,
            seed=1,
            engine="pure_linear",
            outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
        )
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["abort"] is True and "non-finite" in report["reason"]
        assert (report["step"], report["trajectory"]) == (729, 1)
        assert not (tmp_path / "out" / "qubit-smoke.csv").exists()

    def test_run_beyond_physical_memory_exits_2_before_drawing_noise(self, tmp_path, capsys, monkeypatch):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(cli, "sample_wiener_batch", no_noise)
        path = write_scenario(tmp_path, minimal_scenario(trajectories=10**9))
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


class TestReducers:
    """The per-checkpoint reducers against the whole-buffer formulas they replaced."""

    @staticmethod
    def old_ket_values(states, op):
        num = np.einsum("kmi,ij,kmj->km", np.conj(states), op, states).real
        return num / np.sum(np.abs(states) ** 2, axis=-1)

    @staticmethod
    def old_ket_final(states):
        last = states[-1]
        nrm = np.sum(np.abs(last) ** 2, axis=-1)
        return (np.einsum("mi,mj->mij", last, np.conj(last)) / nrm[:, None, None]).mean(axis=0)

    @staticmethod
    def old_density_values(states, op):
        return np.einsum("ij,kmji->km", op, states).real

    @classmethod
    def old_unnormalized_values(cls, states, op):
        return cls.old_density_values(states, op) / np.einsum("...mii->...m", states).real

    @staticmethod
    def old_unnormalized_final(states):
        return (states[-1] / np.einsum("mii->m", states[-1]).real[:, None, None]).mean(axis=0)

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_bitwise_equal_to_whole_buffer_formulas(self, d):
        rng = np.random.default_rng(30 + d)
        h = random_hermitian(d, rng)
        ls = np.stack([random_operator(d, rng), random_hermitian(d, rng)])
        p = SMEParams(h, ls, 1e-2, "interaction")
        ops = [random_hermitian(d, rng), np.diag(np.arange(d)).astype(complex), np.eye(d)]
        strides = (1, 2, 3)  # one per observable, on the gcd grid of every step
        incr = sample_wiener_batch(2, 12, p.dt, seed=d, n_traj=7)
        chi0 = random_ket(d, rng)
        rho0 = random_density(d, rng)
        cases = (
            ("ket", lambda **kw: run_linear(chi0, p, incr, **kw),
             self.old_ket_values, self.old_ket_final),
            ("density", lambda **kw: run_nonlinear_sme(rho0, p, incr, **kw),
             self.old_density_values, lambda states: states[-1].mean(axis=0)),
            ("unnormalized", lambda **kw: run_linear_sme(rho0, p, incr, **kw),
             self.old_unnormalized_values, self.old_unnormalized_final),
        )
        for kind, run, old_values, old_final in cases:
            values, final = cli.REDUCERS[kind]
            states = run()  # (K+1, M, ...)
            vals = run(reduce=lambda frame, k: values(frame, ops))  # (K+1, n_obs, M)
            for i, (op, stride) in enumerate(zip(ops, strides)):
                assert np.array_equal(vals[::stride, i], old_values(states[::stride], op)), kind
            assert np.array_equal(final(states[-1]), old_final(states)), kind

    def test_ensemble_run_keeps_no_checkpoint_states(self, tmp_path):
        # d = 4 rank-4 kets at M = 2000 over 500 steps with stride 1: the
        # (K+1, M, d, d) density buffer would be 256 MB on its own; the run
        # keeps (K+1, M) values instead, so its peak stays far below that
        data = minimal_scenario(
            dim=4,
            hamiltonian="number",
            channels=[{"scaled": {"op": "number", "factor": 0.5}}],
            rho0={"diag": [0.4, 0.3, 0.2, 0.1]},
            horizon=0.5,
            trajectories=2000,
            engine="ensemble",
            outputs=[{"observable": "number", "stride": 1, "label": "n"}],
        )
        assert (501 * 2000 * 4 * 4 * 16) / 2**20 > 240
        script = (
            "import json, sys\n"
            "from qsme.cli import run_scenario\n"
            "from qsme.scenario import validate_scenario\n"
            "run_scenario(validate_scenario(json.loads(sys.argv[1])), sys.argv[2], fmt='json')\n"
            "status = open('/proc/self/status').read().split('\\n')\n"
            "print([l for l in status if l.startswith('VmHWM')][0].split()[1])\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(data), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        peak_mb = int(out.stdout.strip()) / 1024
        assert peak_mb < 120, f"VmHWM {peak_mb:.1f} MB"


class TestCsvChunks:
    @staticmethod
    def row_by_row(outputs, out_times, per_traj, means):
        """The CSV body formatted one row at a time from numpy scalars."""
        body = "t,traj_id,observable,value\n" if outputs else ""
        for label, _, _ in outputs:
            for k, t in enumerate(out_times[label]):
                vals = per_traj[label][k] if label in per_traj else ()
                for m, v in enumerate(vals):
                    body += f"{t:.17g},{m},{label},{v:.17g}\n"
                body += f"{t:.17g},mean,{label},{means[label][k]:.17g}\n"
        return body

    def test_bytes_match_row_by_row_formatting(self):
        special = [-0.0, 1e-300, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1.0 / 3.0, -2.5e17]
        vals = np.array(special * 2).reshape(3, 6)
        outputs = [("pauli_z", None, 1), ("number", None, 2)]
        out_times = {"pauli_z": 1e-3 * np.arange(3), "number": 2e-3 * np.arange(3)}
        per_traj = {"pauli_z": vals, "number": vals[::-1].copy()}
        means = {"pauli_z": np.array([np.nan, -0.0, 1e-300]), "number": np.array([np.inf, 0.3, -0.0])}
        for traj in (per_traj, {}):  # trajectory engines, and meanfield (means only)
            body = "".join(cli._csv_chunks(outputs, out_times, traj, means))
            assert body == self.row_by_row(outputs, out_times, traj, means)
        assert "".join(cli._csv_chunks([], {}, {}, {})) == ""

    def test_percent_in_labels_is_written_literally(self):
        vals = np.array([[0.25, -1.0 / 3.0], [np.nan, 5e-324], [-0.0, 1e17]])
        outputs = [("pop%", None, 1), ("%s", None, 1), ("100%%", None, 1)]
        out_times = {label: 1e-3 * np.arange(3) for label, _, _ in outputs}
        per_traj = {label: vals * (i + 1) for i, (label, _, _) in enumerate(outputs)}
        means = {label: v.mean(axis=1) for label, v in per_traj.items()}
        for traj in (per_traj, {}):
            body = "".join(cli._csv_chunks(outputs, out_times, traj, means))
            assert body == self.row_by_row(outputs, out_times, traj, means)
            assert {row.split(",")[2] for row in body.splitlines()[1:]} == {"pop%", "%s", "100%%"}


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
