"""Command-line entry point: scenario runs, config validation, check suites.

Every engine, the mean-field solver included, is one row of ``ENGINES``, and
``run_scenario`` reduces, checks and summarizes the checkpoints of all of
them through one path.

Exit codes: 0 ok, 1 validation-suite failure, 2 config error (including a
duplicate output label or one that would break CSV rows, and a run whose
estimated noise, checkpoint and working memory exceeds physical memory),
3 runtime abort (trace collapse, a nonpositive sme_linear or linear-mode
meanfield trace, a normalized density whose trace leaves 1 or whose purity
tr rho^2 exceeds 2 as a diverging sme_nonlinear or meanfield run blows up, a
vanished ensemble norm, a non-finite observable value of any engine,
Picard non-convergence), 4 I/O failure.
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
from .scenario import Scenario, ScenarioError, apply_overrides, load_scenario, read_scenario, validate_scenario
from . import suites


@dataclass
class RunArtifacts:
    csv_path: str | None
    json_path: str | None
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


# Upper bounds on what one value costs while run_scenario writes it, measured
# with tracemalloc: a CSV row of one checkpoint's chunk (its template piece,
# Python float, text and encoded copy), besides its label, and one float of
# indented JSON text (its Python objects, the encoder's chunks and the text).
CSV_ROW_BYTES = 320
JSON_FLOAT_BYTES = 400


def memory_estimate(sc: Scenario) -> dict[str, int]:
    """Bytes of the noise increments, the checkpoint data and the working set a run allocates.

    Noise is the (M, steps, n) float64 batch.  A trajectory run keeps one
    (steps // stride + 1, M) float64 array of values per output, at that
    output's own stride, and integration lets go of the replicated start
    state after the first step; a mean-field run keeps three
    (steps+1, d, d) mean paths (the previous iterate, the new one and their
    difference).  The working set is what is held only for a while, counted
    for the M states in units of one state (d complex entries for kets,
    rank * d for ensemble kets, d^2 for densities): the count is 2n + 5, an
    upper bound for every engine's step.  A density step holds 2n + 3 (6 for
    n = 1): the state, the workspace its params keep (the n channel
    products, their row copy for the dissipator's GEMM, which also serves
    as scratch, and the half X of the update: 2n + 1, or 4 for n = 1) and
    the update X + X† it returns; the run drops the params, and with them
    the workspace, when integration ends.  After the run the final-state mean forms up to four (M, d, d)
    arrays, the CSV is formatted one checkpoint of one observable (M + 1
    rows) at a time, and the config
    hash and the summary are JSON text: the scenario's matrices, the
    final-state mean, every checkpoint's mean and stderr, and for a
    mean-field run its mean path.
    """
    m, d, n, n_obs = sc.trajectories, sc.dim, sc.ls.shape[0], len(sc.outputs)
    noise = m * sc.steps * n * 8
    json_floats = (sc.steps // _grid_stride(sc) + 1) * (1 + 3 * n_obs) + 2 * d**2 * (3 + n + n_obs)
    kind = ENGINES[sc.engine][1]
    if kind == "ket":
        per_state = d
    elif kind == "ensemble":
        per_state = decompose_state(sc.rho0).cutoff * d
    else:
        per_state = d**2
    if sc.engine == "meanfield":
        checkpoints = 3 * (sc.steps + 1) * d**2 * 16
        json_floats += 2 * (sc.steps + 1) * d**2
        output = 0
    else:
        checkpoints = sum(sc.steps // stride + 1 for _, _, stride in sc.outputs) * m * 8
        label = max((len(lab) for lab, _, _ in sc.outputs), default=0)
        output = 4 * m * d**2 * 16 + (m + 1) * (CSV_ROW_BYTES + 4 * label)
    working = (2 * n + 5) * m * per_state * 16 + output + json_floats * JSON_FLOAT_BYTES
    return {"noise_bytes": noise, "checkpoint_bytes": checkpoints, "working_bytes": working}


def _check_memory(sc: Scenario) -> None:
    """Refuse (config error) a run whose estimate exceeds the machine's physical memory."""
    need = sum(memory_estimate(sc).values())
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ScenarioError([(
            "/",
            f"noise, checkpoint and working buffers need an estimated {need} bytes, "
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
    # einsum sums in memory order: reduce a C-ordered frame, so the values
    # depend on the states alone and not on how a step laid them out
    frame = np.ascontiguousarray(frame)
    out = np.empty((len(ops), frame.shape[0]))
    for i, op in enumerate(ops):
        out[i] = np.einsum("ij,mji->m", op, frame).real
    return out


def _traces(states: np.ndarray) -> np.ndarray:
    """Traces of unnormalized densities, shape (..., M)."""
    return np.einsum("...mii->...m", states).real


def _unnormalized_values(frame: np.ndarray, ops: list) -> np.ndarray:
    frame = np.ascontiguousarray(frame)
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


def _noise(sc: Scenario, p: SMEParams) -> np.ndarray:
    """The run's (M, steps, n) Wiener increments."""
    return sample_wiener_batch(p.n_channels, sc.steps, sc.dt, sc.seed, sc.trajectories)


def _run_sme_linear(sc: Scenario, p: SMEParams, stride: int, reduce) -> np.ndarray | None:
    """``run_linear_sme``, aborting at the first checkpoint with a nonpositive or NaN trace.

    The check is not in ``run_linear_sme`` itself: the ``bounds`` suite runs
    the linear equation from an indefinite gamma0.
    """

    def checked(frame, k):
        TrajectoryAbort.unless(_traces(frame) > 0.0, "nonpositive trace in a linear-equation trajectory", k)
        return reduce(frame, k)

    return run_linear_sme(sc.rho0, p, _noise(sc, p), checkpoint_stride=stride, reduce=checked)


def _run_ensemble(sc: Scenario, p: SMEParams, stride: int, reduce) -> np.ndarray | None:
    """``run_ensemble`` from the spectral decomposition of rho0; ``reduce`` sees (kets, weights)."""
    incr = _noise(sc, p)
    ens = decompose_state(sc.rho0)
    return run_ensemble(
        ens, p, incr, checkpoint_stride=stride, reduce=lambda kets, k: reduce((kets, ens.weights), k)
    )


def _run_meanfield(sc: Scenario, p: SMEParams, stride: int, reduce) -> dict:
    """``mckean_vlasov_solve``; ``reduce`` sees the converged mean path, one state per checkpoint."""
    report = mckean_vlasov_solve(MeanFieldConfig(
        params=p, interaction=sc.interaction, rho0=sc.rho0, trajectories=sc.trajectories, horizon=sc.horizon,
        seed=sc.seed, **sc.meanfield,
    ))
    if not report.converged:
        raise TrajectoryAbort(
            "Picard iteration did not converge: distances "
            + ", ".join(f"{d:.3e}" for d in report.iteration_distances)
        )
    for k in range(0, sc.steps + 1, stride):
        reduce(report.mean_field_path[k][None], k)
    return {"picard": report.to_json()}


# Engine -> (runner, state kind).  A runner (scenario, params, stride,
# per-checkpoint reduce) draws its noise through this module's
# ``sample_wiener_batch`` (the Picard solver through its own) and passes
# reduce the Schroedinger-frame states at k = 0, stride, ..., steps: the M
# trajectories' states, or for ``meanfield`` the mean path's one state.  It
# returns what reduce returned, stacked (None for a reduce that returns
# None), or for ``meanfield`` the summary's engine details.
ENGINES = {
    "pure_linear": (
        lambda sc, p, stride, reduce: run_linear(
            sc.chi0, p, _noise(sc, p), checkpoint_stride=stride, reduce=reduce
        ),
        "ket",
    ),
    "pure_nonlinear": (
        lambda sc, p, stride, reduce: run_nonlinear(
            sc.chi0, p, _noise(sc, p), checkpoint_stride=stride, reduce=reduce
        ),
        "ket",
    ),
    "sme_linear": (_run_sme_linear, "unnormalized"),
    "sme_nonlinear": (
        lambda sc, p, stride, reduce: run_nonlinear_sme(
            sc.rho0, p, _noise(sc, p), checkpoint_stride=stride, reduce=reduce
        ),
        "density",
    ),
    "ensemble": (_run_ensemble, "ensemble"),
    "meanfield": (_run_meanfield, "density"),
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

    params = _params(sc)
    run, kind = ENGINES[sc.engine]
    values, final = REDUCERS[kind]
    ops = [op for _, op, _ in sc.outputs]
    strides = [ostride for _, _, ostride in sc.outputs]
    # one (steps // stride + 1, width) array per output, filled at its own
    # checkpoints; a mean-field run reduces one state, its mean path, and
    # writes only mean rows
    mean_only = sc.engine == "meanfield"
    kept = [np.empty((sc.steps // ostride + 1, 1 if mean_only else sc.trajectories)) for ostride in strides]
    last = []  # the final checkpoint's states, for the final-state reducer

    def reduce(frame, k):
        due = [i for i, ostride in enumerate(strides) if k % ostride == 0]
        # where no output is due every value is computed anyway, so that
        # a non-finite state aborts at the first grid checkpoint it reaches
        checked = due or range(len(ops))
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite values abort below
            vals = values(frame, [ops[i] for i in checked])  # (len(checked), width)
        TrajectoryAbort.unless(np.isfinite(vals).all(axis=0), "non-finite observable value", k)
        for i, v in zip(due, vals):
            kept[i][k // strides[i]] = v
        if k == sc.steps:
            last.append(frame)

    engine_details = run(sc, params, stride, reduce) or {}
    del params  # it holds the density step's workspace; the CSV is the memory peak
    mean_final = final(last[0])
    per_traj = dict(zip([label for label, _, _ in sc.outputs], kept))
    means = {label: vals.mean(axis=1) for label, vals in per_traj.items()}
    stderrs = {
        label: vals.std(axis=1, ddof=1) / np.sqrt(vals.shape[1]) if vals.shape[1] > 1 else np.zeros(vals.shape[0])
        for label, vals in per_traj.items()
    }
    out_times = {label: sc.dt * ostride * np.arange(sc.steps // ostride + 1) for label, _, ostride in sc.outputs}

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
        for chunk in _csv_chunks(sc.outputs, out_times, {} if mean_only else per_traj, means):
            data = chunk.encode()
            digest.update(data)
            if f is not None:
                f.write(data)
    if not sc.outputs:
        digest.update(summary_blob.encode())
    json_path = None
    if fmt in ("json", "both") or not sc.outputs:
        json_path = os.path.join(out_dir, f"{safe_name}.summary.json")
        with open(json_path, "w") as f:
            f.write(summary_blob + "\n")
    return RunArtifacts(csv_path, json_path, cfg_hash, sc.seed, digest.hexdigest())


def _cmd_simulate(args) -> int:
    data = read_scenario(args.scenario)
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
    chk.add_argument("suite", choices=("all", *suites.SUITES))
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
