"""One benchmark repetition in a fresh single-process interpreter.

Usage: child.py SCENARIO_JSON OUT_DIR [--setup-only] [--trace SPANS_JSON] [--run-id N]

Pins BLAS to one thread before numpy is imported, validates the scenario
through ``qsme.scenario.validate_scenario`` and runs it through
``qsme.cli.run_scenario``.  Prints one JSON line with the monotonic clock
reading at which the validated scenario was in hand (the parent subtracts its
launch time to get ``setup_s``), the wall time of ``run_scenario``, the peak
resident memory and the artifact paths.  With ``--trace`` the public
functions are wrapped (see ``tracer.py``) and the spans written to
SPANS_JSON when the run ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, CPU count and the BLAS thread pin."""
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": threads,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("scenario")
    ap.add_argument("out_dir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, metavar="SPANS_JSON")
    ap.add_argument("--run-id", type=int, default=0)
    args = ap.parse_args(argv)

    import qsme
    from qsme import cli, scenario

    tracer = None
    validate = scenario.validate_scenario
    run = cli.run_scenario
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
        validate = tracer.wrap("scenario.validate_scenario", validate)
        run = tracer.wrap("cli.run_scenario", run)

    with open(args.scenario) as f:
        data = json.load(f)
    t0 = time.perf_counter()
    sc = validate(data)
    t_validated = time.perf_counter()
    result = {
        "qsme_file": qsme.__file__,
        "t_validated": t_validated,
        "validate_s": t_validated - t0,
        "picture": sc.picture,
    }
    if not args.setup_only:
        t1, c1 = time.perf_counter(), time.process_time()
        artifacts = run(sc, args.out_dir, fmt="both")
        t2, c2 = time.perf_counter(), time.process_time()
        result.update(
            wall_s=t2 - t1,
            cpu_s=c2 - c1,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            digest=artifacts.digest,
            csv_path=artifacts.csv_path,
            json_path=artifacts.json_path,
            csv_bytes=os.path.getsize(artifacts.csv_path) if artifacts.csv_path else 0,
        )
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace, "w") as f:
            json.dump(tracer.spans, f)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
