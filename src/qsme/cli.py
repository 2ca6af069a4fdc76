"""Command-line entry point: scenario runs, config validation, check suites.

Every engine, the mean-field solver included, is one row of ``ENGINES``, and
``run_scenario`` reduces, checks and summarizes the checkpoints of all of
them through one path.  It writes each checkpoint's CSV chunk in the
per-checkpoint reduce that computes its values, and keeps only every
output's means and stderrs, so no run holds every trajectory's values.

Exit codes: 0 ok, 1 validation-suite failure, 2 config error (including a
duplicate output label or one that would break CSV rows, and a run whose
estimated noise, checkpoint and working memory exceeds physical memory),
3 runtime abort (trace collapse, a nonpositive sme_linear or linear-mode
meanfield trace, a normalized density whose trace leaves 1 or whose purity
tr rho^2 exceeds 2 as a diverging sme_nonlinear or meanfield run blows up, a
vanished ensemble norm, a non-finite observable value of any engine, a
non-finite mean, stderr or final-state mean, Picard non-convergence; nothing
is written then), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .ensemble import decompose_state, run_ensemble, weighted_density, weighted_expectations
from .errors import TrajectoryAbort
from .master import SMEParams, run_linear_sme, run_nonlinear_sme
from .meanfield import MeanFieldConfig, mckean_vlasov_solve
from .noise import sample_wiener_batch
from .pure import block_bytes, run_linear, run_nonlinear
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
# Bytes read at a time when a later output's CSV chunks are copied back from
# their temporary file into the digest and the CSV.
COPY_BLOCK = 1 << 16

FORMATS = ("csv", "json", "both")
CSV_HEADER = "t,traj_id,observable,value\n"


def memory_estimate(sc: Scenario) -> dict[str, int]:
    """Bytes of the noise increments, the checkpoint data and the working set a run allocates.

    Noise is the (M, steps, n) float64 batch.  A trajectory run keeps two
    (steps // stride + 1,) float64 arrays per output, its means and stderrs
    at that output's own stride: every checkpoint's values are written to
    the CSV as they come, and integration lets go of the replicated start
    state after the first step.  A mean-field run keeps three
    (steps+1, d, d) mean paths (the previous iterate, the new one and their
    difference).  The working set is what is held only for a while, counted
    for the M states in units of one state (d complex entries for kets,
    rank * d for ensemble kets, d^2 for densities), plus the blocks of
    scratch of the ket steps (``pure.block_bytes``):

    * a density step holds 2n + 3 states (6 for n = 1): the state, the
      workspace its params keep (the n channel products, their row copy for
      the dissipator's GEMM, which also serves as scratch, and the half X of
      the update: 2n + 1, or 4 for n = 1) and the update X + X† it returns;
      2n + 5 are counted.  The run drops the params, and with them the
      workspace, when integration ends;
    * a ket step holds its input, its output and two blocks; at a checkpoint
      the state, its interaction-picture frame, the frame's conjugate and
      its squared moduli (half a state) are held: 4 states are counted;
    * an ensemble step holds its input, its output and two blocks, and a
      checkpoint the state and its frame: 2 states are counted, with the
      larger of the step's two blocks and the three blocks of scratch of
      the final-state densities.

    The CSV is formatted one checkpoint of one observable (M + 1 rows) at a
    time, in the run, and with more than one output the later outputs'
    chunks are copied back ``COPY_BLOCK`` bytes at a time after it.  After
    the run the final-state mean forms (M, d, d) arrays: up to four for
    densities, two for kets and one for an ensemble.  The config hash and
    the summary are JSON text: the scenario's matrices, the final-state
    mean, every checkpoint's mean and stderr, and for a mean-field run its
    mean path.
    """
    m, d, n, n_obs = sc.trajectories, sc.dim, sc.ls.shape[0], len(sc.outputs)
    noise = m * sc.steps * n * 8
    json_floats = (sc.steps // _grid_stride(sc) + 1) * (1 + 3 * n_obs) + 2 * d**2 * (3 + n + n_obs)
    kind = ENGINES[sc.engine][1]
    images = (1 + n) * d * 16  # one ket's GEMM images in a step
    if kind == "ket":
        per_state, states, finals = d, 4, 2
        scratch = 2 * block_bytes((m,), images)
    elif kind == "ensemble":
        rank = decompose_state(sc.rho0).cutoff
        per_state, states, finals = rank * d, 2, 1
        scratch = max(2 * block_bytes((m, rank), images), 3 * block_bytes((m,), d * d * 16))
    else:
        per_state, states, finals, scratch = d**2, 2 * n + 5, 4, 0
    if sc.engine == "meanfield":
        checkpoints = 3 * (sc.steps + 1) * d**2 * 16
        json_floats += 2 * (sc.steps + 1) * d**2
        output = 0
    else:
        checkpoints = 2 * sum(sc.steps // stride + 1 for _, _, stride in sc.outputs) * 8
        label = max((len(lab) for lab, _, _ in sc.outputs), default=0)
        output = finals * m * d**2 * 16 + (m + 1) * (CSV_ROW_BYTES + 4 * label)
    output += COPY_BLOCK if n_obs > 1 else 0
    working = states * m * per_state * 16 + scratch + output + json_floats * JSON_FLOAT_BYTES
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


def _csv_rows(label: str, n_traj: int):
    """The formatter of one observable's CSV rows at one checkpoint: ``rows(t, values, mean) -> str``.

    Rows are ``t,traj_id,observable,value`` with t and value as ``.17g``: one
    per trajectory, then the mean.  They come from one ``%`` template, built
    once (a ``%`` in the label escaped as ``%%``), and each call is a single
    format call whose arguments alternate the t string with the values: the
    ``n_traj`` trajectories' (a list of floats), then the mean.
    """
    name = label.replace("%", "%%")
    tmpl = "".join([f"%s,{m},{name},%.17g\n" for m in range(n_traj)] + [f"%s,mean,{name},%.17g\n"])
    args = [None] * (2 * n_traj + 2)

    def rows(t: float, vals: list, mean: float) -> str:
        args[0::2] = [f"{t:.17g}"] * (n_traj + 1)
        args[1::2] = vals + [mean]
        return tmpl % tuple(args)

    return rows


def _csv_chunks(outputs, out_times: dict, per_traj: dict, means: dict):
    """The CSV body (header, then every row) from whole arrays, one checkpoint of one observable per chunk.

    ``per_traj`` maps a label to its (checkpoints, M) values, or lacks it
    for mean rows only.  Each chunk is what ``run_scenario`` writes at that
    checkpoint, through the same ``_csv_rows`` formatter.
    """
    if outputs:
        yield CSV_HEADER
    for label, _, _ in outputs:
        traj_vals = per_traj.get(label)
        rows = _csv_rows(label, 0 if traj_vals is None else traj_vals.shape[1])
        for k, (t, mean) in enumerate(zip(out_times[label].tolist(), means[label].tolist())):
            yield rows(t, [] if traj_vals is None else traj_vals[k].tolist(), mean)


class _CsvBody:
    """A run's CSV body, written in observable order while the run's checkpoints come in.

    Output 0's chunks, after the header, go straight into the SHA-256
    ``digest`` and, unless ``path`` is None, into ``<path>.partial``, which
    starts with the ``comment`` line.  Each later output's chunks go to an
    unnamed temporary file in the same directory.  ``publish`` appends those
    files, in output order, through the digest and renames the partial file
    to ``path``.  ``close`` closes every file and removes the partial one
    unless it was published, so a run that raises leaves nothing behind.
    """

    def __init__(self, digest, n_outputs: int, out_dir: str, path: str | None, comment: str):
        self.digest, self.path = digest, path
        self.csv = self.partial = None
        self.sides = []
        try:
            if path is not None:
                self.csv = open(path + ".partial", "wb")
                self.partial = self.csv.name
                self.csv.write(comment.encode())
            for _ in range(n_outputs - 1):
                self.sides.append(tempfile.TemporaryFile(dir=out_dir))
        except BaseException:
            self.close()
            raise
        if n_outputs:
            self.write(0, CSV_HEADER.encode())

    def write(self, i: int, data: bytes) -> None:
        """Add one chunk of output ``i``."""
        if i:
            self.sides[i - 1].write(data)
            return
        self.digest.update(data)
        if self.csv is not None:
            self.csv.write(data)

    def publish(self) -> None:
        for side in self.sides:
            side.seek(0)
            while block := side.read(COPY_BLOCK):
                self.write(0, block)
        if self.csv is not None:
            self.csv.close()
            os.replace(self.partial, self.path)
            self.partial = None

    def close(self) -> None:
        for f in [self.csv, *self.sides]:
            if f is not None:
                f.close()
        if self.partial is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.partial)


def run_scenario(sc: Scenario, out_dir: str, fmt: str = "both") -> RunArtifacts:
    """Execute a validated scenario and write CSV/JSON artifacts (``fmt`` is one of ``FORMATS``).

    Each checkpoint's CSV chunk is written by the per-checkpoint reduce that
    computes its values, which keeps only each output's means and stderrs.
    Every statistic and the final-state mean are checked after the run; a
    run that aborts or fails writes nothing.
    """
    if fmt not in FORMATS:
        raise ValueError(f"fmt must be 'csv', 'json' or 'both', not {fmt!r}")
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
    times = [(sc.dt * ostride * np.arange(sc.steps // ostride + 1)).tolist() for ostride in strides]
    # a mean-field run reduces one state, its mean path, and writes only mean rows
    mean_only = sc.engine == "meanfield"
    width = 1 if mean_only else sc.trajectories
    means = [np.empty(len(t)) for t in times]
    stderrs = [np.empty(len(t)) for t in times]
    rows = [_csv_rows(label, 0 if mean_only else width) for label, _, _ in sc.outputs]
    last = []  # the final checkpoint's states, for the final-state reducer

    safe_name = "".join(c if c.isalnum() or c in "-_." else "_" for c in sc.name)
    csv_path = os.path.join(out_dir, f"{safe_name}.csv") if sc.outputs and fmt != "json" else None
    stamp = datetime.now(timezone.utc).isoformat()
    digest = hashlib.sha256()
    comment = f"# generated={stamp} scenario={safe_name} seed={sc.seed} config={cfg_hash}\n"
    with contextlib.closing(_CsvBody(digest, len(sc.outputs), out_dir, csv_path, comment)) as body:

        def reduce(frame, k):
            due = [i for i, ostride in enumerate(strides) if k % ostride == 0]
            # where no output is due every value is computed anyway, so that
            # a non-finite state aborts at the first grid checkpoint it reaches
            checked = due or range(len(ops))
            with np.errstate(divide="ignore", invalid="ignore"):  # non-finite values abort below
                vals = values(frame, [ops[i] for i in checked])  # (len(checked), width)
            TrajectoryAbort.unless(np.isfinite(vals).all(axis=0), "non-finite observable value", k)
            if k == sc.steps:
                last.append(frame)
            if not due:
                return
            # numpy sums a contiguous row pairwise and a strided one (the
            # ensemble's values are a transposed view) in another order:
            # reduce C-ordered rows, so every engine's statistics keep their bits
            vals = np.ascontiguousarray(vals)
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite statistics abort after the run
                mean = vals.mean(axis=1).tolist()
                err = (vals.std(axis=1, ddof=1) / np.sqrt(width)).tolist() if width > 1 else [0.0] * len(due)
            for i, v, m, e in zip(due, vals, mean, err):
                j = k // strides[i]
                means[i][j], stderrs[i][j] = m, e
                body.write(i, rows[i](times[i][j], [] if mean_only else v.tolist(), m).encode())

        engine_details = run(sc, params, stride, reduce) or {}
        del params  # it holds the density step's workspace
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite final-state mean aborts below
            mean_final = final(last[0])
        # finite values can still overflow a sum: check every statistic before anything is written
        for (label, _, ostride), m, e in zip(sc.outputs, means, stderrs):
            bad = np.flatnonzero(~(np.isfinite(m) & np.isfinite(e)))
            if bad.size:
                raise TrajectoryAbort(f"non-finite mean or stderr of output {label!r}", step=int(bad[0]) * ostride)
        TrajectoryAbort.unless(np.isfinite(mean_final).all(), "non-finite final-state mean", sc.steps)

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
                label: {"times": t, "mean": m.tolist(), "stderr": e.tolist()}
                for (label, _, _), t, m, e in zip(sc.outputs, times, means, stderrs)
            },
            "final_state_mean": [[[z.real, z.imag] for z in row] for row in np.asarray(mean_final)],
            "engine_details": engine_details,
        }
        summary_blob = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
        body.publish()
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
    sim.add_argument("--format", choices=FORMATS, default="both",
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
