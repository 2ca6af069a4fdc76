import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from qsme import cli, ensemble, master, pure, scenario
from qsme.cli import main
from qsme.linalg import HERMITICITY_TOL, random_density, random_hermitian, random_operator
from qsme.master import SMEParams, linear_sme_step, run_linear_sme, run_nonlinear_sme
from qsme.meanfield import MeanFieldConfig, mckean_vlasov_solve
from qsme.noise import sample_wiener_batch
from qsme.pure import run_linear
from qsme.scenario import ScenarioError, apply_overrides, validate_scenario

from oracles import random_ket


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


def engine_scenario(engine, **overrides):
    """``minimal_scenario`` run by ``engine``: a pure rho0 for the ket engines, a zero interaction for meanfield."""
    if engine.startswith("pure"):
        overrides = {"rho0": {"pure": {"basis": 0}}, **overrides}
    if engine == "meanfield":
        overrides = {"meanfield": {"interaction": {"variant": "zero"}}, **overrides}
    return minimal_scenario(engine=engine, **overrides)


def hermiticity_defect(where, relative):
    """Overrides giving H (``/hamiltonian``) or rho0 (``/rho0``) the Hermiticity defect ``relative``.

    One imaginary (0, 1) entry delta: ||A - A†||_HS = sqrt(2) delta, and ||A||_HS < 1.
    """
    delta = relative / np.sqrt(2)
    key, diag = {"/hamiltonian": ("hamiltonian", [0.5, -0.5]), "/rho0": ("rho0", [0.7, 0.3])}[where]
    return {key: {"entries": [[[diag[0], 0.0], [0.0, delta]], [[0.0, 0.0], [diag[1], 0.0]]]}}


# Every engine with a defect in H, and every engine that takes a density rho0 with one in rho0.
DEFECT_CASES = ([(e, "/hamiltonian") for e in scenario.ENGINES]
                + [(e, "/rho0") for e in scenario.ENGINES if not e.startswith("pure")])


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
        # 20 trajectories, 50 steps, 1 channel, one observable "pauli_z"
        # checkpointed every 10 steps at d = 2: a float64 mean and stderr per
        # checkpoint, 2 (K+1) n_obs values, kept.  Working set per kind, in
        # states per trajectory, (M, d, d) arrays for the final mean and
        # blocks of scratch: densities 2n + 5 = 7 and four; kets 4 and two,
        # with two blocks of (1 + n) d = 4 complex images per ket; an
        # ensemble 2 and one, with the larger of two blocks of its kets'
        # images and three of its densities.  Besides, one 21-row CSV chunk
        # and 6 (1 + 3) + 2 d^2 (3 + n + n_obs) = 64 JSON floats
        for engine, extra, per_state, states, finals, scratch in (
            ("sme_nonlinear", {}, 4, 7, 4, 0),
            ("sme_linear", {}, 4, 7, 4, 0),
            ("pure_linear", {"rho0": {"pure": {"basis": 0}}}, 2, 4, 2, 2 * 20 * 4 * 16),
            ("ensemble", {"rho0": {"diag": [0.7, 0.3]}}, 2 * 2, 2, 1,  # rank 2 kets
             max(2 * 20 * 2 * 4 * 16, 3 * 20 * 4 * 16)),
        ):
            path = write_scenario(tmp_path, minimal_scenario(engine=engine, **extra))
            assert main(["validate-config", path]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["noise_bytes"] == 20 * 50 * 1 * 8
            assert out["checkpoint_bytes"] == 2 * 6 * 1 * 8
            assert out["working_bytes"] == (
                states * 20 * per_state * 16 + scratch + finals * 20 * 4 * 16 + 21 * (cli.CSV_ROW_BYTES + 4 * 7)
                + 64 * cli.JSON_FLOAT_BYTES
            )

    @pytest.mark.parametrize("engine", ["pure_linear", "pure_nonlinear", "sme_linear", "sme_nonlinear",
                                        "ensemble", "meanfield"])
    def test_memory_estimate_bounds_traced_peak(self, tmp_path, engine):
        # d = 8, three channels, 300 trajectories, two observables written:
        # every array and string run_scenario allocates, numpy's included,
        # peaks below the estimate (a first run keeps one-time imports out)
        d = 8
        rng = np.random.default_rng(41)
        entries = lambda a: [[[z.real, z.imag] for z in row] for row in a]  # noqa: E731
        data = minimal_scenario(
            dim=d,
            hamiltonian={"entries": entries(random_hermitian(d, rng))},
            channels=[{"entries": entries(0.5 * random_operator(d, rng))} for _ in range(3)],
            rho0={"pure": [[1.0, 0.0]] * d} if engine.startswith("pure") else
            {"entries": entries(random_density(d, rng))},
            horizon=0.01,
            trajectories=300,
            engine=engine,
            outputs=[{"observable": "number", "stride": 2, "label": "n"},
                     {"observable": "identity", "stride": 5, "label": "identity"}],
            **({"meanfield": {"interaction": {"variant": "potential", "table": np.eye(d).tolist()},
                              "picard_tol": 1e-2}} if engine == "meanfield" else {}),
        )
        sc = validate_scenario(data)
        cli.run_scenario(sc, str(tmp_path))
        tracemalloc.start()
        try:
            cli.run_scenario(sc, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = sum(cli.memory_estimate(sc).values())
        assert peak <= estimate, (peak, cli.memory_estimate(sc))

    def test_non_hermitian_h_rejected(self, tmp_path, capsys):
        h = {"entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        path = write_scenario(tmp_path, minimal_scenario(hamiltonian=h))
        assert main(["validate-config", path]) == 2
        assert "not Hermitian" in capsys.readouterr().err

    def test_schema_violation_reports_path(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario(engine="magic"))
        assert main(["validate-config", path]) == 2
        assert "/engine" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, where", [
        ({"dim": 2.0}, "/dim"),
        ({"trajectories": 20.0}, "/trajectories"),
        ({"seed": 7.0}, "/seed"),
        ({"outputs": [{"observable": "pauli_z", "stride": 10.0, "label": "pauli_z"}]}, "/outputs/0/stride"),
        ({"engine": "meanfield", "meanfield": {"interaction": {"variant": "zero"}, "picard_max_iter": 3.0}},
         "/meanfield/picard_max_iter"),
        ({"rho0": {"pure": {"basis": 1.0}}}, "/rho0"),
    ], ids=["dim", "trajectories", "seed", "stride", "picard_max_iter", "basis"])
    def test_integer_field_given_as_float_exits_2(self, tmp_path, capsys, overrides, where):
        path = write_scenario(tmp_path, minimal_scenario(**overrides))
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert f"config error at {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed, flag, where", [
        (-1, [], "/seed"),
        (7, ["--seed", "-1"], "/seed"),
        (7, ["--set", "seed=-1"], "/seed"),
        (7, ["--set", "trajectories=1e3"], "/trajectories"),
    ], ids=["file", "seed_flag", "set_seed", "set_trajectories"])
    def test_out_of_schema_value_from_any_source_exits_2(self, tmp_path, capsys, seed, flag, where):
        path = write_scenario(tmp_path, minimal_scenario(seed=seed))
        assert main(["simulate", path, *flag, "--out", str(tmp_path / "out")]) == 2
        assert f"config error at {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_step_count_is_a_horizon_error(self, tmp_path, capsys):
        # horizon / dt overflows to inf, which has no whole number of steps
        path = write_scenario(tmp_path, minimal_scenario(horizon=1e308, dt=1e-308))
        assert main(["validate-config", path]) == 2
        assert "config error at /horizon: horizon must be a positive whole number of dt steps" in (
            capsys.readouterr().err
        )

    def test_integer_horizon_beyond_float_range_is_a_horizon_error(self, tmp_path, capsys):
        # json reads 10**400 as an int, which has no float value to divide by dt
        path = write_scenario(tmp_path, minimal_scenario(horizon=10**400))
        assert main(["validate-config", path]) == 2
        assert "config error at /horizon: horizon must be a positive whole number of dt steps" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("overrides, flag, where", [
        ({"channels": [{"scaled": {"op": "pauli_z", "factor": float("nan")}}]}, [], "/channels/0"),
        ({"outputs": [{"observable": {"scaled": {"op": "pauli_z", "factor": float("inf")}}, "label": "z"}]}, [],
         "/outputs/0/observable"),
        ({"engine": "meanfield", "meanfield": {"interaction": {"variant": "zero"}, "picard_tol": float("nan")}}, [],
         "/meanfield/picard_tol"),
        ({"engine": "meanfield", "meanfield": {"interaction": {"variant": "zero"}}},
         ["--set", "meanfield.picard_tol=NaN"], "/meanfield/picard_tol"),
        ({}, ["--set", "dt=1e999"], "/dt"),
    ], ids=["channel_factor_nan", "observable_factor_infinity", "picard_tol_nan", "set_picard_tol_nan",
            "set_dt_1e999"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, overrides, flag, where):
        # json reads NaN, Infinity and 1e999 (as inf); none of them is a number of the schema
        path = write_scenario(tmp_path, minimal_scenario(**overrides))
        if not flag:  # --set is an option of simulate only
            assert main(["validate-config", path]) == 2
            assert f"config error at {where}: " in capsys.readouterr().err
        assert main(["simulate", path, *flag, "--out", str(tmp_path / "out")]) == 2
        assert f"config error at {where}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("engine, where", DEFECT_CASES)
    def test_hermiticity_defect_within_tolerance_validates_and_runs(self, tmp_path, engine, where):
        # one tolerance, linalg.HERMITICITY_TOL, for the scenario and the library
        path = write_scenario(tmp_path, engine_scenario(engine, **hermiticity_defect(where, 0.5 * HERMITICITY_TOL)))
        assert main(["validate-config", path]) == 0
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("engine, where", DEFECT_CASES)
    def test_hermiticity_defect_beyond_tolerance_exits_2(self, tmp_path, capsys, engine, where):
        path = write_scenario(tmp_path, engine_scenario(engine, **hermiticity_defect(where, 10 * HERMITICITY_TOL)))
        assert main(["validate-config", path]) == 2
        assert f"config error at {where}: " in capsys.readouterr().err
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert f"config error at {where}: " in capsys.readouterr().err

    def test_huge_non_hermitian_hamiltonian_exits_2(self, tmp_path, capsys):
        # ||H - H†||_HS and ||H||_HS both overflow to inf unscaled, and
        # inf <= tol * inf once let this H through with exit 0
        h = {"entries": [[[1e200, 0.0], [1e200, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        path = write_scenario(tmp_path, minimal_scenario(hamiltonian=h))
        assert main(["validate-config", path]) == 2
        assert "config error at /hamiltonian: H is not Hermitian" in capsys.readouterr().err
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error at /hamiltonian: H is not Hermitian" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("interaction", [
        {"variant": "potential"},
        {"variant": "potential", "table": np.eye(3).tolist()},
        {"variant": "potential", "table": [[1.0, 0.5], [0.0, 1.0]]},
        {"variant": "potential", "table": [[1.0], [0.0, 1.0]]},
        {"variant": "hs_kernel"},
        {"variant": "hs_kernel", "kernel": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"variant": "hs_kernel", "kernel": [[[0.0, 1.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]},
    ], ids=["no_table", "table_3x3", "table_asymmetric", "table_ragged", "no_kernel", "kernel_2x2",
            "kernel_not_hermiticity_preserving"])
    def test_invalid_interaction_exits_2(self, tmp_path, capsys, interaction):
        # InteractionMap's own checks, located at the interaction
        path = write_scenario(tmp_path, engine_scenario("meanfield", meanfield={"interaction": interaction}))
        assert main(["validate-config", path]) == 2
        assert "config error at /meanfield/interaction: " in capsys.readouterr().err
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error at /meanfield/interaction: " in capsys.readouterr().err

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

    def test_interaction_picture_meanfield_rejected(self, tmp_path, capsys):
        # the mean-field solver integrates in the Schroedinger picture; an
        # explicit "interaction" is refused rather than silently replaced
        mf = {"interaction": {"variant": "zero"}}
        path = write_scenario(tmp_path, minimal_scenario(engine="meanfield", meanfield=mf, picture="interaction"))
        assert main(["validate-config", path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error at /picture:")
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        for picture in ("auto", "schroedinger"):
            path = write_scenario(tmp_path, minimal_scenario(engine="meanfield", meanfield=mf, picture=picture))
            assert main(["validate-config", path]) == 0
            assert json.loads(capsys.readouterr().out)["picture"] == "schroedinger"


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

    @pytest.mark.parametrize("mode", ["normalized", "linear"])
    def test_meanfield_output_is_the_solver_path(self, tmp_path, mode):
        # a run writes the converged mean path of a separate solve of the same
        # config, bit for bit: tr(O eta(t)) at each output's own stride with
        # zero stderr, only mean rows in the CSV, and eta at the horizon as
        # the final-state mean
        data = minimal_scenario(
            trajectories=30,
            rho0={"diag": [0.7, 0.3]},
            engine="meanfield",
            meanfield={"interaction": {"variant": "potential", "table": [[1.0, -1.0], [-1.0, 1.0]]}, "mode": mode},
            outputs=[{"observable": obs, "stride": stride, "label": f"{obs}/{stride}"}
                     for obs, stride in (("pauli_z", 1), ("pauli_x", 5), ("pauli_y", 10))],
        )
        sc = validate_scenario(data)
        art = cli.run_scenario(sc, str(tmp_path))
        report = mckean_vlasov_solve(MeanFieldConfig(
            params=cli._params(sc), interaction=sc.interaction, rho0=sc.rho0, trajectories=sc.trajectories,
            horizon=sc.horizon, mode=mode, seed=sc.seed,
        ))
        assert report.converged
        path = report.mean_field_path
        with open(art.json_path) as f:
            summary = json.load(f)
        with open(art.csv_path) as f:
            assert f.readline().startswith("# generated=")
            assert f.readline() == "t,traj_id,observable,value\n"
            rows = [line.rstrip("\n").split(",") for line in f]
        assert {traj for _, traj, _, _ in rows} == {"mean"}
        for label, op, stride in sc.outputs:
            expected = np.einsum("ij,kji->k", op, path[::stride]).real
            observed = summary["observables"][label]
            assert np.array_equal(observed["mean"], expected)
            assert observed["stderr"] == [0.0] * expected.size
            assert observed["times"] == (sc.dt * stride * np.arange(expected.size)).tolist()
            assert np.array_equal([float(v) for _, _, lab, v in rows if lab == label], expected)
        assert len(rows) == sum(sc.steps // stride + 1 for _, _, stride in sc.outputs)
        final = np.asarray(summary["final_state_mean"])
        assert np.array_equal(final[..., 0] + 1j * final[..., 1], path[-1])

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

    def assert_statistics_abort(self, tmp_path, capsys, data, reason, step):
        path = write_scenario(tmp_path, data)
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report == {"abort": True, "reason": reason, "step": step, "trajectory": None}
        assert os.listdir(tmp_path / "out") == []

    @staticmethod
    def big_output(factor):
        return [{"observable": {"scaled": {"op": "pauli_z", "factor": factor}}, "stride": 10, "label": "big"}]

    @pytest.mark.parametrize("engine", [e for e in scenario.ENGINES if e != "meanfield"])
    def test_overflowing_mean_exits_3_and_writes_nothing(self, tmp_path, capsys, engine):
        # from |0> every value 1e307 <sigma_z> is 1e307, finite, but the 20 of
        # them sum past the float range at t = 0; this once wrote "inf" mean
        # rows and "Infinity" summary tokens with exit 0
        data = engine_scenario(engine, rho0={"pure": {"basis": 0}}, outputs=self.big_output(1e307))
        self.assert_statistics_abort(tmp_path, capsys, data, "non-finite mean or stderr of output 'big'", 0)

    def test_overflowing_stderr_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # from diag [0.5, 0.5] the values are 0 at t = 0 and their mean stays
        # finite, but the squares in the stderr overflow at the next checkpoint
        data = minimal_scenario(outputs=self.big_output(1e308))
        self.assert_statistics_abort(tmp_path, capsys, data, "non-finite mean or stderr of output 'big'", 10)

    def test_non_finite_final_state_mean_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # the vanishing pure_linear run above without outputs: no observable
        # value is checked, the final kets are 0 and their normalized mean is
        # 0/0, which was once written into the summary as NaN with exit 0
        data = minimal_scenario(
            hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
            channels=[{"scaled": {"op": "pauli_z", "factor": 100.0}}],
            rho0={"pure": [[0.6, 0.0], [0.8, 0.0]]},
            dt=1e-4,
            horizon=0.1,
            trajectories=5,
            seed=1,
            engine="pure_linear",
            outputs=[],
        )
        self.assert_statistics_abort(tmp_path, capsys, data, "non-finite final-state mean", 1000)

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
        assert set(cli.ENGINES) == set(scenario.ENGINES)

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--set", "dt=0.1"]], ids=["seed", "set"])
    @pytest.mark.parametrize("top", [[], "x", 3], ids=["array", "string", "number"])
    def test_non_object_scenario_is_a_config_error(self, tmp_path, capsys, top, flag):
        path = write_scenario(tmp_path, top)
        assert main(["simulate", path, *flag, "--out", str(tmp_path / "out")]) == 2
        assert "config error at /: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_only_format(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["simulate", path, "--format", "json", "--out", str(tmp_path / "o")]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["csv"] is None
        assert os.listdir(tmp_path / "o") == [os.path.basename(info["summary"])]

    def test_csv_only_format(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario())
        assert main(["simulate", path, "--format", "csv", "--out", str(tmp_path / "o")]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["summary"] is None
        assert os.listdir(tmp_path / "o") == [os.path.basename(info["csv"])]


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

    @pytest.mark.parametrize("kind", ["density", "unnormalized"])
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_density_values_do_not_depend_on_memory_order(self, kind, d):
        # equal states laid out in C and in transposed order give the same
        # bits, and a C-ordered frame is reduced as it is, not copied
        rng = np.random.default_rng(60 + d)
        states = np.stack([random_density(d, rng) for _ in range(40)])
        states[::3] *= 1.7  # unnormalized traces for the linear equation's reducer
        transposed = np.ascontiguousarray(np.swapaxes(states, -1, -2)).swapaxes(-1, -2)
        assert np.array_equal(transposed, states) and not transposed.flags.c_contiguous
        ops = [random_operator(d, rng), random_hermitian(d, rng), np.eye(d)]
        values = cli.REDUCERS[kind][0]
        assert np.array_equal(values(transposed, ops), values(states, ops))
        old = np.stack([self.old_density_values(states[None], op)[0] for op in ops])
        if kind == "unnormalized":
            old = old / np.einsum("mii->m", states).real
        assert np.array_equal(values(states, ops), old)

    def test_ensemble_run_keeps_no_checkpoint_states(self, tmp_path):
        # d = 4 rank-4 kets at M = 2000 over 500 steps with stride 1: the
        # (K+1, M, d, d) density buffer would be 256 MB on its own; the run
        # keeps no checkpoint's states, so its peak stays far below that
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
        peak_mb = peak_rss_mb(data, tmp_path)
        assert peak_mb < 120, f"VmHWM {peak_mb:.1f} MB"


def peak_rss_mb(data, out_dir):
    """VmHWM of a fresh interpreter (one BLAS thread) that runs ``data`` with --format json."""
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
        [sys.executable, "-c", script, json.dumps(data), str(out_dir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(out.stdout.strip()) / 1024


TRAJECTORY_ENGINES = ["pure_linear", "pure_nonlinear", "sme_linear", "sme_nonlinear", "ensemble"]


def strided_scenario(engine, strides, **overrides):
    """A minimal scenario of ``engine`` (24 steps unless overridden) with one output per stride."""
    extra = {"pure_linear": {"rho0": {"pure": {"basis": 0}}}, "pure_nonlinear": {"rho0": {"pure": {"basis": 0}}},
             "ensemble": {"rho0": {"diag": [0.7, 0.3]}},
             "meanfield": {"meanfield": {"interaction": {"variant": "zero"}}}}.get(engine, {})
    observables = ["pauli_z", "pauli_x", "identity", "pauli_y", "number", "zero"]
    outputs = [{"observable": obs, "stride": stride, "label": f"{obs}/{stride}"}
               for obs, stride in zip(observables, strides)]
    return minimal_scenario(engine=engine, outputs=outputs, **{"horizon": 0.024, **extra, **overrides})


def gcd_grid_run(sc):
    """Every output's values from one (K+1, n_obs, M) buffer on the gcd grid of the strides.

    Returns the CSV body, the summary's ``observables`` and the final-state
    mean as a run that evaluates every observable at every grid checkpoint
    and slices each output's rows out of the buffer gives them.
    """
    params = cli._params(sc)
    run, kind = cli.ENGINES[sc.engine]
    values, final = cli.REDUCERS[kind]
    ops = [op for _, op, _ in sc.outputs]
    grid = cli._grid_stride(sc)
    last = []

    def reduce(frame, k):
        if k == sc.steps:
            last.append(frame)
        return values(frame, ops)

    buf = run(sc, params, grid, reduce)
    per_traj, means, times, observables = {}, {}, {}, {}
    for i, (label, _, stride) in enumerate(sc.outputs):
        vals = buf[:: stride // grid, i]
        per_traj[label], means[label] = vals, vals.mean(axis=1)
        times[label] = sc.dt * stride * np.arange(vals.shape[0])
        observables[label] = {
            "times": times[label].tolist(),
            "mean": means[label].tolist(),
            "stderr": (vals.std(axis=1, ddof=1) / np.sqrt(vals.shape[1])).tolist(),
        }
    body = "".join(cli._csv_chunks(sc.outputs, times, per_traj, means))
    return body, observables, final(last[0])


class TestPerOutputStorage:
    """A run keeps each output at its own stride and evaluates only what is due."""

    @pytest.mark.parametrize("strides", [(1, 2), (4, 6)])
    @pytest.mark.parametrize("engine", TRAJECTORY_ENGINES)
    def test_bytes_equal_to_gcd_grid_buffer(self, tmp_path, engine, strides):
        sc = validate_scenario(strided_scenario(engine, strides))
        art = cli.run_scenario(sc, str(tmp_path))
        body, observables, final_mean = gcd_grid_run(sc)
        with open(art.csv_path) as f:
            assert f.readline().startswith("# generated=")
            assert f.read() == body
        assert art.digest == hashlib.sha256(body.encode()).hexdigest()
        with open(art.json_path) as f:
            text = f.read()
        expected = dict(json.loads(text), observables=observables,
                        final_state_mean=[[[z.real, z.imag] for z in row] for row in final_mean])
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("engine", TRAJECTORY_ENGINES + ["meanfield"])
    def test_each_observable_evaluated_only_at_its_checkpoints(self, tmp_path, engine, monkeypatch):
        # strides (4, 6) over 24 steps: grid checkpoints every 2 steps; at
        # 2, 10, 14 and 22 no output is due, so both are evaluated there
        sc = validate_scenario(strided_scenario(engine, (4, 6)))
        index = {id(op): i for i, (_, op, _) in enumerate(sc.outputs)}
        kind = cli.ENGINES[engine][1]
        values, final = cli.REDUCERS[kind]
        calls = []

        def spy(frame, ops):
            calls.append(tuple(index[id(op)] for op in ops))
            return values(frame, ops)

        monkeypatch.setitem(cli.REDUCERS, kind, (spy, final))
        cli.run_scenario(sc, str(tmp_path))
        expected = []
        for k in range(0, 25, 2):
            due = tuple(i for i, stride in enumerate((4, 6)) if k % stride == 0)
            expected.append(due or (0, 1))
        assert calls == expected
        assert calls[1] == (0, 1) and calls[2] == (0,) and calls[3] == (1,) and calls[6] == (0, 1)

    @pytest.mark.parametrize("poisoned_step", [3, 1])
    @pytest.mark.parametrize("engine", TRAJECTORY_ENGINES)
    def test_non_finite_state_between_grid_checkpoints_aborts_at_next_one(self, tmp_path, capsys, engine,
                                                                          poisoned_step, monkeypatch):
        # strides (4, 6), grid checkpoints every 2 steps: trajectory 5 turns
        # NaN in step 3, and checkpoint 4, where only the stride-4 output is
        # due, aborts with step 4 and trajectory 5, as the whole-grid check
        # did; turned NaN in step 1, it aborts at checkpoint 2, where no
        # output is due
        module, name = {"pure_linear": (pure, "linear_pure_step"), "pure_nonlinear": (pure, "nonlinear_pure_step"),
                        "sme_linear": (master, "linear_sme_step"), "sme_nonlinear": (master, "nonlinear_sme_step"),
                        "ensemble": (ensemble, "_kick_kets")}[engine]
        step = getattr(module, name)
        dt = 1e-3

        def poisoned(*args):
            out = step(*args)
            if round(args[-1] / dt) == poisoned_step:
                out = out.copy()
                out[5] = np.nan
            return out

        monkeypatch.setattr(module, name, poisoned)
        path = write_scenario(tmp_path, strided_scenario(engine, (4, 6), dt=dt))
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == 3
        report = json.loads(capsys.readouterr().err)
        assert (report["step"], report["trajectory"]) == (poisoned_step + 1, 5)
        assert report["reason"] == ("nonpositive trace in a linear-equation trajectory" if engine == "sme_linear"
                                    else "non-finite observable value")

    @pytest.mark.parametrize("engine", TRAJECTORY_ENGINES)
    def test_integration_keeps_no_reference_to_start_state(self, engine):
        # the replicated start state is the frame at t = 0; once step 0 has
        # returned nothing holds it
        sc = validate_scenario(strided_scenario(engine, (2,)))
        run, kind = cli.ENGINES[engine]
        refs = []

        def reduce(frame, k):
            states = frame[0] if kind == "ensemble" else frame
            if k == 0:
                refs.append(weakref.ref(states))
            else:
                refs.append(refs[0]() is None)

        params = cli._params(sc)
        assert run(sc, params, 2, reduce) is None
        assert refs[0]() is None and len(refs) == 13
        assert refs[1:] == [True] * 12

    def test_mixed_stride_run_peaks_below_gcd_grid_buffer(self, tmp_path):
        # six outputs at strides 6, 10 and 15 over 600 steps at M = 4000: on
        # their gcd grid (every step) the values alone would take 115 MB;
        # the run keeps a mean and a stderr per output checkpoint, and the
        # whole run peaks below the 115
        strides = (6, 10, 15, 6, 10, 15)
        data = strided_scenario("pure_linear", strides, horizon=0.6, trajectories=4000)
        sc = validate_scenario(data)
        grid_mb = (sc.steps + 1) * len(strides) * sc.trajectories * 8 / 2**20
        assert cli._grid_stride(sc) == 1 and grid_mb > 110
        assert cli.memory_estimate(sc)["checkpoint_bytes"] == 2 * sum(600 // s + 1 for s in strides) * 8
        peak_mb = peak_rss_mb(data, tmp_path)
        assert peak_mb < grid_mb, f"VmHWM {peak_mb:.1f} MB"


class TestStreamedCsv:
    """The CSV body is written at each checkpoint, and only finished runs leave files."""

    @pytest.mark.parametrize("fmt", ["CSV", "", "none"])
    def test_unknown_format_rejected_before_anything_runs(self, tmp_path, monkeypatch, fmt):
        # the CLI's --format choices restrict the value; the library call
        # once ran the whole simulation and wrote nothing
        def no_noise(*args, **kwargs):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(cli, "sample_wiener_batch", no_noise)
        sc = validate_scenario(minimal_scenario())
        with pytest.raises(ValueError, match="'csv', 'json' or 'both'"):
            cli.run_scenario(sc, str(tmp_path / "out"), fmt=fmt)
        assert not (tmp_path / "out").exists()

    def test_peak_does_not_grow_with_checkpoints(self, tmp_path):
        # two outputs of pure_linear at M = 4000 over 200 steps: at stride 1
        # every trajectory's values would take 2 * 201 * 4000 * 8 B = 12.3 MiB
        # if kept; they are written as they come, so the run peaks about as
        # high as with one checkpoint at each end
        peaks = []
        for stride in (1, 200):
            outputs = [{"observable": obs, "stride": stride, "label": obs} for obs in ("pauli_z", "pauli_x")]
            data = engine_scenario("pure_linear", horizon=0.2, trajectories=4000, outputs=outputs)
            assert validate_scenario(data).steps == 200
            peaks.append(peak_rss_mb(data, tmp_path / f"stride{stride}"))
        assert 2 * 201 * 4000 * 8 / 2**20 > 12
        assert abs(peaks[0] - peaks[1]) < 4, f"VmHWM {peaks[0]:.1f} MB at stride 1, {peaks[1]:.1f} MB at 200"

    @pytest.mark.parametrize("engine", TRAJECTORY_ENGINES + ["meanfield"])
    def test_formats_share_the_digest_and_leave_only_their_artifacts(self, tmp_path, capsys, engine):
        path = write_scenario(tmp_path, strided_scenario(engine, (4, 6)))
        digests = set()
        for fmt, artifacts in (("csv", ["csv"]), ("json", ["summary"]), ("both", ["csv", "summary"])):
            out_dir = tmp_path / fmt
            assert main(["simulate", path, "--format", fmt, "--out", str(out_dir)]) == 0
            info = json.loads(capsys.readouterr().out)
            digests.add(info["digest"])
            assert sorted(os.listdir(out_dir)) == sorted(os.path.basename(info[a]) for a in artifacts)
            if info["csv"] is not None:
                with open(info["csv"], "rb") as f:
                    assert f.readline().startswith(b"# generated=")
                    assert hashlib.sha256(f.read()).hexdigest() == info["digest"]
        assert len(digests) == 1

    @pytest.mark.parametrize("case", ["sme_linear_trace_collapse", "pure_linear_vanishing_norm"])
    def test_abort_with_two_outputs_writes_nothing(self, tmp_path, capsys, case):
        # the runs of test_sme_linear_trace_collapse_exits_3 (abort at step 1)
        # and test_pure_linear_vanishing_norm_exits_3 (step 729 of 1000), once
        # as they are and once with a second output, whose chunks go to a
        # temporary file: both abort alike and leave out/ empty
        data = {
            "sme_linear_trace_collapse": minimal_scenario(
                hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
                channels=[{"scaled": {"op": "pauli_z", "factor": 20.0}}],
                rho0={"diag": [0.7, 0.3]}, dt=0.01, horizon=0.1, trajectories=50, seed=1, engine="sme_linear",
                outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
            ),
            "pure_linear_vanishing_norm": minimal_scenario(
                hamiltonian={"scaled": {"op": "pauli_x", "factor": 0.5}},
                channels=[{"scaled": {"op": "pauli_z", "factor": 100.0}}],
                rho0={"pure": [[0.6, 0.0], [0.8, 0.0]]}, dt=1e-4, horizon=0.1, trajectories=5, seed=1,
                engine="pure_linear", outputs=[{"observable": "pauli_z", "stride": 1, "label": "pauli_z"}],
            ),
        }[case]
        reports = []
        for outputs in (data["outputs"], data["outputs"] + [{"observable": "pauli_x", "stride": 2, "label": "x"}]):
            out_dir = tmp_path / f"out{len(outputs)}"
            path = write_scenario(tmp_path, dict(data, outputs=outputs))
            assert main(["simulate", path, "--out", str(out_dir)]) == 3
            reports.append(json.loads(capsys.readouterr().err))
            assert os.listdir(out_dir) == []
        assert reports[0] == reports[1]
        assert (reports[0]["step"], reports[0]["trajectory"]) == {
            "sme_linear_trace_collapse": (1, 0), "pure_linear_vanishing_norm": (729, 1)}[case]

    def test_partial_file_is_in_out_dir_while_the_run_goes(self, tmp_path, monkeypatch):
        # output 0 goes to <name>.csv.partial, the later outputs to unnamed
        # temporary files; the partial file becomes the CSV at the end
        sc = validate_scenario(strided_scenario("sme_nonlinear", (4, 6)))
        kind = cli.ENGINES[sc.engine][1]
        values, final = cli.REDUCERS[kind]
        seen = []

        def spy(frame, ops):
            seen.append(sorted(os.listdir(tmp_path)))
            return values(frame, ops)

        monkeypatch.setitem(cli.REDUCERS, kind, (spy, final))
        art = cli.run_scenario(sc, str(tmp_path), fmt="csv")
        assert seen == [["qubit-smoke.csv.partial"]] * 13
        assert os.listdir(tmp_path) == ["qubit-smoke.csv"] and art.csv_path == str(tmp_path / "qubit-smoke.csv")


class TestTrajectoryIndependence:
    """Trajectory k's CSV rows do not depend on how many trajectories run beside it.

    Its noise comes from its own seed, and the ket steps and the ensemble's
    reductions give each row the same arithmetic in whatever block of rows
    it falls, so M trajectories write the first M trajectories' rows of a
    run whose M' spans two whole blocks and a remainder, byte for byte.
    """

    @staticmethod
    def scenario(engine, d, picture, m):
        rng = np.random.default_rng(60 + d)
        entries = lambda a: [[[z.real, z.imag] for z in row] for row in a]  # noqa: E731
        rho0 = ({"pure": [[z.real, z.imag] for z in random_ket(d, rng)]} if engine.startswith("pure")
                else {"diag": list(np.linspace(2.0, 1.0, d) / np.linspace(2.0, 1.0, d).sum())})
        return validate_scenario(minimal_scenario(
            name=f"{engine}-{m}", dim=d, hamiltonian={"entries": entries(20.0 * random_hermitian(d, rng))},
            channels=[{"entries": entries(0.5 * random_operator(d, rng))} for _ in range(2)], rho0=rho0,
            horizon=0.003, trajectories=m, engine=engine, picture=picture,
            outputs=[{"observable": "number", "stride": 1, "label": "number"},
                     {"observable": "identity", "stride": 3, "label": "identity"}],
        ))

    @staticmethod
    def rows(sc, out_dir, m):
        """The CSV rows of trajectories 0 .. m-1, in file order."""
        with open(cli.run_scenario(sc, str(out_dir), fmt="csv").csv_path) as f:
            lines = f.read().splitlines()[2:]  # the comment and the header
        return [row for row in lines if row.split(",")[1] != "mean" and int(row.split(",")[1]) < m]

    @pytest.mark.parametrize("picture", ["schroedinger", "interaction"])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("engine", TRAJECTORY_ENGINES)
    def test_rows_do_not_depend_on_the_batch(self, tmp_path, engine, d, picture):
        m, rank, n = 7, d, 2
        # trajectories per block of the ket step (a ket engine's trajectory is
        # one row, an ensemble's rank rows) and of the ensemble's reductions
        step = pure.row_blocks((10**9,) if engine.startswith("pure") else (10**9, rank), (1 + n) * d * 16)[0]
        reductions = pure.row_blocks((10**9,), 16 * d * d)[0]
        per_block = step.stop if engine != "ensemble" else max(step.stop, reductions.stop)
        big = 2 * per_block + 3
        small = self.rows(self.scenario(engine, d, picture, m), tmp_path / "small", m)
        assert len(small) == m * (3 + 1 + 2)  # number at 4 checkpoints, identity at 2
        assert self.rows(self.scenario(engine, d, picture, big), tmp_path / "big", m) == small


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
