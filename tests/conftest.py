import os

# One BLAS thread, as in CI and the benchmark, set before numpy is imported:
# the CSV writer process is forked only from a single-threaded process, so
# its tests would otherwise be skipped wherever BLAS starts a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
