"""Command-line entry point: scenario runs, config validation, check suites.

Exit codes: 0 ok, 1 validation-suite failure, 2 config error (including a
duplicate output label or one that would break CSV rows, and a run whose
estimated noise and checkpoint memory exceeds physical memory),
3 runtime abort (trace collapse, a nonpositive sme_linear or linear-mode
meanfield trace, a normalized density whose trace leaves 1 or whose purity
tr rho^2 exceeds 2 as a diverging sme_nonlinear or meanfield run blows up, a
vanished ensemble norm, a non-finite observable value, Picard
non-convergence), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .ensemble import decompose_state, run_ensemble, weighted_density, weighted_expectations
from .errors import TrajectoryAbort
from .master import SMEParams, run_linear_sme, run_nonlinear_sme
from .meanfield import MeanFieldConfig, mckean_vlasov_solve
from .noise import sample_wiener_batch
from .pure import run_linear, run_nonlinear
from .scenario import Scenario, ScenarioError, apply_overrides, load_scenario, validate_scenario
from . import suites


@dataclass
class RunArtifacts:
    csv_path: str | None
    json_path: str
    config_hash: str
    seed: int
    digest: str  # sha256 of the deterministic CSV body (or of the summary JSON)


def _config_hash(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]


def _params(sc: Scenario) -> SMEParams:
    return SMEParams(sc.h, sc.ls, sc.dt, sc.picture)


def _grid_stride(sc: Scenario) -> int:
    strides = [stride for _, _, stride in sc.outputs]
    return math.gcd(*strides) if strides else sc.steps


def memory_estimate(sc: Scenario) -> dict[str, int]:
    """Bytes of the noise increments and of the checkpoint data a run allocates.

    Noise is the (M, steps, n) float64 batch.  A trajectory run stores the
    (K+1, n_obs, M) float64 observable values and keeps one complex working
    state per trajectory: d entries for kets, rank * d for ensemble kets and
    d^2 for densities.  A mean-field run stores its (steps+1, d, d) mean path.
    """
    noise = sc.trajectories * sc.steps * sc.ls.shape[0] * 8
    if sc.engine == "meanfield":
        checkpoints = (sc.steps + 1) * sc.dim**2 * 16
    else:
        values = (sc.steps // _grid_stride(sc) + 1) * sc.trajectories * len(sc.outputs) * 8
        kind = ENGINES[sc.engine][1]
        if kind == "ket":
            per_state = sc.dim
        elif kind == "ensemble":
            per_state = decompose_state(sc.rho0).cutoff * sc.dim
        else:
            per_state = sc.dim**2
        checkpoints = values + sc.trajectories * per_state * 16
    return {"noise_bytes": noise, "checkpoint_bytes": checkpoints}


def _check_memory(sc: Scenario) -> None:
    """Refuse (config error) a run whose estimate exceeds the machine's physical memory."""
    need = sum(memory_estimate(sc).values())
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ScenarioError([(
            "/",
            f"noise and checkpoint buffers need an estimated {need} bytes, "
            f"more than the {have} bytes of physical memory",
        )])


def _ket_values(frame: np.ndarray, ops: list) -> np.ndarray:
    bra = np.conj(frame)
    nrm = np.sum(np.abs(frame) ** 2, axis=-1)
    out = np.empty((len(ops), frame.shape[0]))
    for i, op in enumerate(ops):
        out[i] = np.einsum("mi,ij,mj->m", bra, op, frame).real / nrm
    return out


def _ket_final(frame: np.ndarray) -> np.ndarray:
    nrm = np.sum(np.abs(frame) ** 2, axis=-1)
    return (np.einsum("mi,mj->mij", frame, np.conj(frame)) / nrm[:, None, None]).mean(axis=0)


def _density_values(frame: np.ndarray, ops: list) -> np.ndarray:
    out = np.empty((len(ops), frame.shape[0]))
    for i, op in enumerate(ops):
        out[i] = np.einsum("ij,mji->m", op, frame).real
    return out


def _traces(states: np.ndarray) -> np.ndarray:
    """Traces of unnormalized densities, shape (..., M)."""
    return np.einsum("...mii->...m", states).real


def _unnormalized_values(frame: np.ndarray, ops: list) -> np.ndarray:
    return _density_values(frame, ops) / _traces(frame)


def _unnormalized_final(frame: np.ndarray) -> np.ndarray:
    return (frame / _traces(frame)[:, None, None]).mean(axis=0)


# State kind -> (the (n_obs, M) expectations of the observables ``ops`` at one
# checkpoint; the mean normalized density), both over one checkpoint's
# Schroedinger-frame states: (M, d) kets, (M, d, d) densities, or for the
# ensemble a ((M, rank, d) kets, (rank,) weights) pair.
REDUCERS = {
    "ket": (_ket_values, _ket_final),
    "density": (_density_values, lambda frame: frame.mean(axis=0)),
    "unnormalized": (_unnormalized_values, _unnormalized_final),
    "ensemble": (
        lambda frame, ops: weighted_expectations(*frame, ops),
        lambda frame: weighted_density(*frame).mean(axis=0),
    ),
}


def _run_sme_linear(sc: Scenario, p: SMEParams, incr: np.ndarray, stride: int, reduce) -> np.ndarray:
    """``run_linear_sme``, aborting at the first checkpoint with a nonpositive or NaN trace.

    The check is not in ``run_linear_sme`` itself: the ``bounds`` suite runs
    the linear equation from an indefinite gamma0.
    """

    def checked(frame, k):
        TrajectoryAbort.unless(_traces(frame) > 0.0, "nonpositive trace in a linear-equation trajectory", k)
        return reduce(frame, k)

    return run_linear_sme(sc.rho0, p, incr, checkpoint_stride=stride, reduce=checked)


def _run_ensemble(sc: Scenario, p: SMEParams, incr: np.ndarray, stride: int, reduce) -> np.ndarray:
    """``run_ensemble`` from the spectral decomposition of rho0; ``reduce`` sees (kets, weights)."""
    ens = decompose_state(sc.rho0)
    return run_ensemble(
        ens, p, incr, checkpoint_stride=stride, reduce=lambda kets, k: reduce((kets, ens.weights), k)
    )


# Trajectory engine -> (runner (scenario, params, increments, stride,
# per-checkpoint reduce) -> what reduce returned at each checkpoint, state
# kind).  ``meanfield`` is not here: it yields a mean path, not
# per-trajectory states.
ENGINES = {
    "pure_linear": (
        lambda sc, p, incr, stride, reduce: run_linear(
            sc.chi0, p, incr, checkpoint_stride=stride, reduce=reduce
        ),
        "ket",
    ),
    "pure_nonlinear": (
        lambda sc, p, incr, stride, reduce: run_nonlinear(
            sc.chi0, p, incr, checkpoint_stride=stride, reduce=reduce
        ),
        "ket",
    ),
    "sme_linear": (_run_sme_linear, "unnormalized"),
    "sme_nonlinear": (
        lambda sc, p, incr, stride, reduce: run_nonlinear_sme(
            sc.rho0, p, incr, checkpoint_stride=stride, reduce=reduce
        ),
        "density",
    ),
    "ensemble": (_run_ensemble, "ensemble"),
}


def _csv_chunks(outputs, out_times: dict, per_traj: dict, means: dict):
    """The CSV body (header, then every row), one checkpoint of one observable per chunk.

    Rows are ``t,traj_id,observable,value`` with t and value as ``.17g``.
    Each observable's rows at one checkpoint come from one ``%`` template,
    built once per observable (a ``%`` in the label escaped as ``%%``) and
    filled with a single format call whose arguments alternate the t string
    with the values: every trajectory's, then the mean.
    """
    if outputs:
        yield "t,traj_id,observable,value\n"
    for label, _, _ in outputs:
        traj_vals = per_traj.get(label)
        n_traj = 0 if traj_vals is None else traj_vals.shape[1]
        name = label.replace("%", "%%")
        tmpl = "".join([f"%s,{m},{name},%.17g\n" for m in range(n_traj)] + [f"%s,mean,{name},%.17g\n"])
        args = [None] * (2 * n_traj + 2)
        for k, (t, mean) in enumerate(zip(out_times[label].tolist(), means[label].tolist())):
            args[0::2] = [f"{t:.17g}"] * (n_traj + 1)
            args[1::2] = ([] if traj_vals is None else traj_vals[k].tolist()) + [mean]
            yield tmpl % tuple(args)


def run_scenario(sc: Scenario, out_dir: str, fmt: str = "both") -> RunArtifacts:
    """Execute a validated scenario and write CSV/JSON artifacts."""
    _check_memory(sc)
    os.makedirs(out_dir, exist_ok=True)
    cfg_hash = _config_hash(sc.raw)
    stride = _grid_stride(sc)
    grid_times = sc.dt * stride * np.arange(sc.steps // stride + 1)

    engine_details: dict = {}
    per_traj: dict[str, np.ndarray] = {}
    means: dict[str, np.ndarray] = {}
    stderrs: dict[str, np.ndarray] = {}
    out_times: dict[str, np.ndarray] = {}

    if sc.engine == "meanfield":
        cfg = MeanFieldConfig(
            params=_params(sc),
            interaction=sc.interaction,
            rho0=sc.rho0,
            trajectories=sc.trajectories,
            horizon=sc.horizon,
            picard_max_iter=sc.picard_max_iter,
            picard_tol=sc.picard_tol,
            mode=sc.meanfield_mode,
            seed=sc.seed,
        )
        report = mckean_vlasov_solve(cfg)
        if not report.converged:
            raise TrajectoryAbort(
                "Picard iteration did not converge: distances "
                + ", ".join(f"{d:.3e}" for d in report.iteration_distances)
            )
        engine_details["picard"] = report.to_json()
        mean_final = report.mean_field_path[-1]
        for label, op, ostride in sc.outputs:
            sel = report.mean_field_path[:: ostride]
            vals = np.einsum("ij,kji->k", op, sel).real
            means[label] = vals
            stderrs[label] = np.zeros_like(vals)
            out_times[label] = sc.dt * ostride * np.arange(vals.size)
    else:
        params = _params(sc)
        run, kind = ENGINES[sc.engine]
        values, final = REDUCERS[kind]
        ops = [op for _, op, _ in sc.outputs]
        last = []  # the final checkpoint's states, for the final-state reducer

        def reduce(frame, k):
            with np.errstate(divide="ignore", invalid="ignore"):  # non-finite values abort below
                vals = values(frame, ops)  # (n_obs, M)
            TrajectoryAbort.unless(np.isfinite(vals).all(axis=0), "non-finite observable value", k)
            if k == sc.steps:
                last.append(frame)
            return vals

        incr = sample_wiener_batch(params.n_channels, sc.steps, sc.dt, sc.seed, sc.trajectories)
        checkpoint_values = run(sc, params, incr, stride, reduce)  # (K+1, n_obs, M)
        del incr  # not needed past integration; the CSV is the memory peak
        mean_final = final(last[0])
        for i, (label, op, ostride) in enumerate(sc.outputs):
            vals = checkpoint_values[:: ostride // stride, i]  # (K'+1, M)
            per_traj[label] = vals
            means[label] = vals.mean(axis=1)
            stderrs[label] = (
                vals.std(axis=1, ddof=1) / np.sqrt(vals.shape[1]) if vals.shape[1] > 1 else np.zeros(vals.shape[0])
            )
            out_times[label] = sc.dt * ostride * np.arange(vals.shape[0])

    safe_name = "".join(c if c.isalnum() or c in "-_." else "_" for c in sc.name)
    summary = {
        "name": sc.name,
        "engine": sc.engine,
        "picture": sc.picture,
        "seed": sc.seed,
        "config_hash": cfg_hash,
        "trajectories": sc.trajectories,
        "dt": sc.dt,
        "horizon": sc.horizon,
        "grid_times": grid_times.tolist(),
        "observables": {
            label: {
                "times": out_times[label].tolist(),
                "mean": means[label].tolist(),
                "stderr": stderrs[label].tolist(),
            }
            for label, _, _ in sc.outputs
        },
        "final_state_mean": [[[z.real, z.imag] for z in row] for row in np.asarray(mean_final)],
        "engine_details": engine_details,
    }
    summary_blob = json.dumps(summary, indent=2, sort_keys=True)

    # Hash the CSV body, and write it unless fmt is "json", one checkpoint at a time.
    digest = hashlib.sha256()
    csv_path = None
    if sc.outputs and fmt in ("csv", "both"):
        csv_path = os.path.join(out_dir, f"{safe_name}.csv")
    with (open(csv_path, "wb") if csv_path else contextlib.nullcontext()) as f:
        if f is not None:
            stamp = datetime.now(timezone.utc).isoformat()
            f.write(f"# generated={stamp} scenario={safe_name} seed={sc.seed} config={cfg_hash}\n".encode())
        for chunk in _csv_chunks(sc.outputs, out_times, per_traj, means):
            data = chunk.encode()
            digest.update(data)
            if f is not None:
                f.write(data)
    if not sc.outputs:
        digest.update(summary_blob.encode())
    json_path = os.path.join(out_dir, f"{safe_name}.summary.json")
    if fmt in ("json", "both") or not sc.outputs:
        with open(json_path, "w") as f:
            f.write(summary_blob + "\n")
    return RunArtifacts(csv_path, json_path, cfg_hash, sc.seed, digest.hexdigest())


def _cmd_simulate(args) -> int:
    with open(args.scenario) as f:
        data = json.load(f)
    if args.set:
        data = apply_overrides(data, args.set)
    if args.seed is not None:
        data["seed"] = args.seed
    sc = validate_scenario(data)
    artifacts = run_scenario(sc, args.out, fmt=args.format)
    print(
        json.dumps(
            {
                "csv": artifacts.csv_path,
                "summary": artifacts.json_path,
                "config_hash": artifacts.config_hash,
                "seed": artifacts.seed,
                "digest": artifacts.digest,
            },
            indent=2,
        )
    )
    return 0


def _cmd_validate_config(args) -> int:
    sc = load_scenario(args.scenario)
    print(
        json.dumps(
            {
                "valid": True,
                "name": sc.name,
                "dim": sc.dim,
                "engine": sc.engine,
                "picture": sc.picture,
                "channels": int(sc.ls.shape[0]),
                "steps": sc.steps,
                "config_hash": _config_hash(sc.raw),
                **memory_estimate(sc),
            },
            indent=2,
        )
    )
    return 0


def _cmd_check(args) -> int:
    results, passed = suites.run_suite(args.suite, fast=args.fast, sabotage=args.sabotage)
    report = {
        "suite": args.suite,
        "pass": passed,
        "checks": [r.to_json() for r in results],
    }
    blob = json.dumps(report, indent=2)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"check_{args.suite}.json")
        with open(path, "w") as f:
            f.write(blob + "\n")
    print(blob)
    if not passed:
        failing = [r.name for r in results if not r.passed]
        print("FAILING: " + ", ".join(failing), file=sys.stderr)
    return 0 if passed else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsme",
        description="Simulate and validate diffusive quantum stochastic master equations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file and emit CSV/JSON artifacts")
    sim.add_argument("scenario", help="path to a scenario JSON file")
    sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a scenario field (dotted path, JSON value)")
    sim.add_argument("--out", default="out", help="output directory (default: out)")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--format", choices=("csv", "json", "both"), default="both",
                     help="artifact formats to write (default: both)")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate-config", help="validate a scenario file without running it")
    val.add_argument("scenario")
    val.set_defaults(func=_cmd_validate_config)

    chk = sub.add_parser("check", help="run a pinned-seed validation suite")
    chk.add_argument("suite", choices=("all",) + suites.SUITE_NAMES)
    chk.add_argument("--out", default=None, help="also write the JSON report to this directory")
    chk.add_argument("--fast", action="store_true",
                     help="reduced Monte Carlo budgets (smoke testing, not the acceptance gate)")
    chk.add_argument("--sabotage", action="store_true",
                     help="(testing) bias the martingale samples to verify failure detection")
    chk.set_defaults(func=_cmd_check)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        for path, msg in e.errors:
            print(f"config error at {path}: {msg}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config error: not valid JSON ({e})", file=sys.stderr)
        return 2
    except TrajectoryAbort as e:
        print(
            json.dumps({"abort": True, "reason": e.reason, "step": e.step, "trajectory": e.trajectory}),
            file=sys.stderr,
        )
        return 3
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
