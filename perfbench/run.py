"""qsme benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload stiff_d16 --seed 1 --seconds 40 --trace 0

The scenario is generated from ``--seed`` (``workloads.py``) and run
repeatedly, each repetition in a fresh single-process child (``child.py``)
with BLAS pinned to one thread, as long as another repetition of the median
length so far still ends within ``--seconds`` (at least one always runs).
Every repetition's output is checked (``check.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (child launch to a
validated Scenario; median over the repetitions plus ``SETUP_PROBES``
set-up-only children), ``wall_s`` (``run_scenario``) and ``peak_rss_mb``
(child ``ru_maxrss``), each the median over repetitions.  ``--trace 1``
alternates untraced and traced children and reports the per-layer metrics
from the traced ones (``tracer.py``).  The last stdout line is the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import STEP_SPANS, summarize
from workloads import (MIN_ENSEMBLE_CSV_BYTES, MIN_PICARD_ITERATIONS, WORKLOADS, make_scenario,
                       scenario_bytes)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 4
# A hung child is cut off early enough for the whole run to stay under 180 s.
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "scenario.validate_s": "s",
    "noise.sample_s": "s",
    "noise.bytes": "B",
    "master.step_calls": "count",
    "master.step_s": "s",
    "master.ns_per_traj_step": "ns",
    "master.lindblad_generator_s": "s",
    "master.frame_map_s": "s",
    "master.self_s": "s",
    "linalg.dress_calls": "count",
    "linalg.dress_s": "s",
    "linalg.propagator_builds": "count",
    "linalg.hermitianize_s": "s",
    "linalg.self_s": "s",
    "pure.step_s": "s",
    "pure.ns_per_traj_step": "ns",
    "pure.self_s": "s",
    "ensemble.self_s": "s",
    "meanfield.picard_iterations": "count",
    "meanfield.iteration_s": "s",
    "meanfield.self_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}
# Counts are deterministic for a given scenario and must repeat exactly.
COUNTS = ("master.step_calls", "linalg.dress_calls", "linalg.propagator_builds",
          "meanfield.picard_iterations", "cli.csv_bytes", "noise.bytes")


class ChildFailed(RuntimeError):
    pass


# What one failed child can raise in the parent; it fails that child, not the run.
CHILD_ERRORS = (ChildFailed, subprocess.SubprocessError, OSError, ValueError, KeyError, IndexError)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(scenario_path: Path, out_dir: Path, *, setup_only: bool = False,
           spans_path: Path | None = None, run_id: int = 0) -> dict:
    """Run one child and return its report with ``setup_s`` filled in."""
    cmd = [sys.executable, str(HERE / "child.py"), str(scenario_path), str(out_dir), "--run-id", str(run_id)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    t_launch = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"child printed no report: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    if not Path(report["qsme_file"]).resolve().is_relative_to(SRC.resolve()):
        raise ChildFailed(f"child imported qsme from {report['qsme_file']}, not from {SRC}")
    report["setup_s"] = report["t_validated"] - t_launch
    return report


def layer_metrics(summary: dict, sc, rep: dict, picard_iterations: int) -> dict:
    """Per-layer metrics of one traced repetition (see PER_LAYER)."""
    calls, inc, name_self, layer_self, max_out = (
        summary[k] for k in ("calls", "inclusive_s", "name_self_s", "self_s", "max_out_bytes"))
    m = sc.trajectories

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    def per_traj_step_ns(layer):
        n_calls = total(calls, STEP_SPANS[layer])
        return 1e9 * total(inc, STEP_SPANS[layer]) / (n_calls * m) if n_calls else 0.0

    solve_s = inc.get("meanfield.mckean_vlasov_solve", 0.0)
    noise_in_solve = inc.get("noise.sample_wiener_batch", 0.0) if solve_s else 0.0
    return {
        "scenario.validate_s": inc["scenario.validate_scenario"],
        "noise.sample_s": inc.get("noise.sample_wiener_batch", 0.0),
        "noise.bytes": max_out.get("noise.sample_wiener_batch", 0),
        "master.step_calls": total(calls, STEP_SPANS["master"]),
        "master.step_s": total(inc, STEP_SPANS["master"]),
        "master.ns_per_traj_step": per_traj_step_ns("master"),
        "master.lindblad_generator_s": inc.get("master.lindblad_generator", 0.0),
        "master.frame_map_s": inc.get("master.frame_map", 0.0),
        "master.self_s": layer_self.get("master", 0.0),
        "linalg.dress_calls": total(calls, ("linalg.dress", "linalg.factor")),
        "linalg.dress_s": total(name_self, ("linalg.dress", "linalg.factor")),
        "linalg.propagator_builds": calls.get("linalg.Propagator", 0),
        "linalg.hermitianize_s": inc.get("linalg.hermitianize", 0.0),
        "linalg.self_s": layer_self.get("linalg", 0.0),
        "pure.step_s": total(inc, STEP_SPANS["pure"]),
        "pure.ns_per_traj_step": per_traj_step_ns("pure"),
        "pure.self_s": layer_self.get("pure", 0.0),
        "ensemble.self_s": layer_self.get("ensemble", 0.0),
        "meanfield.picard_iterations": picard_iterations,
        "meanfield.iteration_s": (solve_s - noise_in_solve) / picard_iterations if picard_iterations else 0.0,
        "meanfield.self_s": layer_self.get("meanfield", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.csv_bytes": rep["csv_bytes"],
        "trace.wall_s": rep["wall_s"],
    }


class Bench:
    """One benchmark run: a scenario, its reference, and the repetitions made."""

    def __init__(self, workload: str, scenario: dict, work: Path):
        # check.py and qsme load from src/, which main() puts on sys.path.
        from check import first_order_problems, reference_means
        from qsme.scenario import validate_scenario

        self.workload = workload
        self.work = work
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_bytes(scenario_bytes(scenario))
        self.sc = validate_scenario(json.loads(self.scenario_path.read_text()))
        self.reference = None if self.sc.engine == "meanfield" else reference_means(self.sc)
        self.problems: list[str] = [] if self.reference is None else first_order_problems(self.sc)
        self.attempted = 0
        self.failed = 0
        self.last_failure = ""
        self.z_max = 0.0
        self.digest: str | None = None
        self.env: dict | None = None

    def repetition(self, traced: bool) -> tuple[dict, dict] | None:
        """Run and check one repetition; returns (child report, summary JSON) or None if it failed."""
        from check import summary_problems

        self.attempted += 1
        run_id = self.attempted
        out_dir = self.work / f"rep{run_id}"
        spans_path = self.work / f"spans{run_id}.json" if traced else None
        try:
            rep = launch(self.scenario_path, out_dir, spans_path=spans_path, run_id=run_id)
            with open(rep["json_path"]) as f:
                summary = json.load(f)
            problems, z_max = summary_problems(self.sc, summary, self.reference)
            if self.digest is None:
                self.digest = rep["digest"]
            elif rep["digest"] != self.digest:
                problems.append("CSV body differs from the first repetition's")
            if traced:
                with open(spans_path) as f:
                    rep["spans"] = json.load(f)
        except CHILD_ERRORS as e:
            problems, z_max, summary = [f"{type(e).__name__}: {e}"], 0.0, None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.z_max = max(self.z_max, z_max)
        kind = "traced" if traced else "untraced"
        if problems:
            self.fail(f"rep {run_id} ({kind})", problems)
            return None
        self.env = rep["env"]
        print(f"rep {run_id} ({kind}): setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} cpu_s={rep['cpu_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f} picture={rep['picture']} max_z={z_max:.2f}")
        return rep, summary

    def setup_probe(self, i: int) -> float | None:
        """``setup_s`` of one set-up-only child, or None if it failed."""
        self.attempted += 1
        try:
            return launch(self.scenario_path, self.work / f"probe{i}", setup_only=True)["setup_s"]
        except CHILD_ERRORS as e:
            self.fail(f"setup probe {i}", [f"{type(e).__name__}: {e}"])
            return None

    def fail(self, what: str, problems: list[str]) -> None:
        """Count a failed child; the reason goes to stderr so it survives a cut-down log."""
        self.failed += 1
        self.last_failure = f"{what}: " + "; ".join(problems)
        print(f"{what} FAILED: " + "; ".join(problems), file=sys.stderr, flush=True)

    def exercise_problems(self, reps: list[tuple[dict, dict]]) -> list[str]:
        """Self-checks that the workload still reaches the layer it was chosen for."""
        problems = []
        for rep, summary in reps:
            if self.workload == "stiff_d16" and rep["picture"] != "interaction":
                problems.append(f"stiff_d16 resolved to the {rep['picture']} picture, not interaction")
            if self.workload == "meanfield_picard":
                iters = len(summary["engine_details"]["picard"]["iteration_distances"])
                if iters < MIN_PICARD_ITERATIONS:
                    problems.append(f"meanfield_picard converged in {iters} Picard iterations (< {MIN_PICARD_ITERATIONS})")
            if self.workload == "ensemble_csv" and rep["csv_bytes"] < MIN_ENSEMBLE_CSV_BYTES:
                problems.append(f"ensemble_csv wrote {rep['csv_bytes']} CSV bytes (< {MIN_ENSEMBLE_CSV_BYTES})")
        return sorted(set(problems))


def another_fits(start: float, durations: list[float], seconds: float) -> bool:
    """Whether one more repetition of the median length so far ends within the window."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, list]:
    start = time.perf_counter()
    probes = [bench.setup_probe(i) for i in range(SETUP_PROBES)]
    setups = [s for s in probes if s is not None]
    reps, durations = [], []
    while True:
        t0 = time.perf_counter()
        done = bench.repetition(traced=False)
        durations.append(time.perf_counter() - t0)
        if done is not None:
            reps.append(done)
        if (bench.failed >= 3 and not reps) or (reps and not another_fits(start, durations, seconds)):
            break
    if not reps:
        raise ChildFailed(f"no repetition succeeded; last: {bench.last_failure}")
    setups += [rep["setup_s"] for rep, _ in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep, _ in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep, _ in reps),
    }
    return metrics, reps


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, list]:
    start = time.perf_counter()
    plain, traced, durations = [], [], []
    while True:
        t0 = time.perf_counter()
        for is_traced, bucket in ((False, plain), (True, traced)):
            done = bench.repetition(traced=is_traced)
            if done is not None:
                bucket.append(done)
        durations.append(time.perf_counter() - t0)
        ok = plain and traced
        if (bench.failed >= 3 and not ok) or (ok and not another_fits(start, durations, seconds)):
            break
    if not (plain and traced):
        raise ChildFailed(f"no traced or no untraced repetition succeeded; last: {bench.last_failure}")
    per_rep = []
    for rep, summary in traced:
        iters = len(summary["engine_details"]["picard"]["iteration_distances"]) if "picard" in summary["engine_details"] else 0
        per_rep.append(layer_metrics(summarize(rep.pop("spans")), bench.sc, rep, iters))
    metrics = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(rep["wall_s"] for rep, _ in traced)
        / statistics.median(rep["wall_s"] for rep, _ in plain) - 1.0
    )
    for name in COUNTS:
        if len({r[name] for r in per_rep}) != 1:
            bench.problems.append(f"{name} differs between traced repetitions")
    return metrics, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qsme" / "__init__.py").is_file():
        print(f"error: no qsme package under {SRC}; run from a qsme checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, make_scenario(args.workload, args.seed), work)
        if args.trace:
            values, reps = measure_layers(bench, args.seconds)
            units = PER_LAYER
        else:
            values, reps = measure_end_to_end(bench, args.seconds)
            units = END_TO_END
        problems = bench.problems + bench.exercise_problems(reps)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    print(f"env: {json.dumps(bench.env, sort_keys=True)}")
    print(f"workload={args.workload} seed={args.seed} "
          + " ".join(f"{k}={v:.6g} {units[k]}" for k, v in values.items())
          + f" failed_frac={bench.failed / bench.attempted:.3g} ({bench.failed}/{bench.attempted})"
          + f" max_z={bench.z_max:.2f}")
    print(json.dumps({
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
