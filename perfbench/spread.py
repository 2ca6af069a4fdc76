"""Run the benchmark over several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 1-10 [--trace 0] [--out FILE]

Every workload of ``BENCHMARK.json`` is run for its ``run_seconds``.  For
every workload and metric this prints the median of the per-seed values,
their quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and, for end-to-end metrics, the bound from
``BENCHMARK.json`` and whether the spread is below a third of it.  The exit
code is nonzero if a run fails or is not correct, or if an end-to-end spread
other than ``setup_s``'s is not below a third of its bound: like the
benchmark's acceptance rule, it gates ``setup_s`` on its median, not its
spread, because set-up time follows the machine's slow drift.  It also
prints failed_frac, the share of attempted repetitions that failed their
output check.  Runs are made one at a time, seed by seed, cycling through the
workloads; ``--out`` writes the per-metric summaries and per-seed values as
JSON (the format of ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float | None]:
    """(median, Q1, Q3, (Q3 - Q1) / median); the spread is None for a zero median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else None


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs[w].append({"seed": seed, "stdout": lines, "result": result})
            shown = lines[-2] if result else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            print(f"[{w} seed {seed}] {shown}", flush=True)

    ok = True
    report = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        results = [r["result"] for r in runs[w] if r["result"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        incorrect = sum(not r["correct"] for r in results) + sum(r["result"] is None for r in runs[w])
        print(f"\n{w}: {len(results)} runs, failed_frac={failed / max(attempted, 1):.3g} "
              f"({failed}/{attempted} repetitions), runs not correct: {incorrect}")
        ok &= incorrect == 0 and failed == 0
        summary = {"runs": len(results), "attempted": attempted, "failed": failed,
                   "runs_not_correct": incorrect, "metrics": {}}
        report["workloads"][w] = summary
        if not results:
            continue
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            summary["metrics"][name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                                        "spread": sp, "values": values}
            shown = "n/a" if sp is None else f"{sp:.4f}"
            line = f"  {name:30s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} spread={shown} {first['unit']}"
            if name in bounds:
                steady = sp < bounds[name] / 3
                ok &= steady or name == "setup_s"  # see the module docstring
                line += f"  bound={bounds[name]} {'steady' if steady else 'NOT steady'}"
            print(line)
        env_lines = [l for r in runs[w] for l in r["stdout"] if l.startswith("env: ")]
        if env_lines:
            report["env"] = json.loads(env_lines[-1][len("env: "):])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
