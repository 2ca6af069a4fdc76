"""Command-line entry point: scenario runs, config validation, check suites.

Every engine, the mean-field solver included, is one row of ``ENGINES``, and
``run_scenario`` reduces, checks and summarizes the checkpoints of all of
them through one path.  It hands each checkpoint's values to the CSV sink
in the per-checkpoint reduce that computes them, and keeps only every
output's means and stderrs, so no run holds every trajectory's values.
The sink formats the rows in the run's process, or, for a run of at least
``WRITER_MIN_VALUES`` trajectory values in a single-threaded process that
may use two CPUs, in a forked writer process that formats them on the other
CPU while the run integrates (``_CsvWriter``); both write the same bytes.
Every value is written as ``.17g``, the bytes of ``'%.17g' % value``.  A
chunk of ``CSV_NUMPY_ROWS`` trajectories or more is formatted in numpy, in
row blocks bounded by ``pure.BLOCK_BYTES``: its zeros and fixed-point values
(1e-4 <= |v| < 1e16) exactly, with Dekker's two-product, and the rest
(scientific notation, inf, nan) by Python, value by value
(``_g17_fields``).  A shorter chunk is formatted by Python alone.

Exit codes: 0 ok, 1 validation-suite failure, 2 config error (including a
duplicate output label or one that would break CSV rows, a run whose
estimated noise, checkpoint and working memory exceeds physical memory, and
``check --sabotage`` for a suite with no sabotaged variant),
3 runtime abort (trace collapse, a nonpositive sme_linear or linear-mode
meanfield trace, a normalized density whose trace leaves 1 or whose purity
tr rho^2 exceeds 2 as a diverging sme_nonlinear or meanfield run blows up, a
vanished weighted ket norm (an ensemble's, or a pure engine's at the
final-state mean: "weighted ket norm vanished"), a non-finite observable
value of any engine, a non-finite mean, stderr or final-state mean, Picard
non-convergence; nothing is written then), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from types import SimpleNamespace

import numpy as np

from .ensemble import decompose_state, run_ensemble, weighted_density, weighted_expectations
from .errors import TrajectoryAbort
from .master import SMEParams, run_linear_sme, run_nonlinear_sme
from .meanfield import MeanFieldConfig, mckean_vlasov_solve
from .noise import sample_wiener_batch
from .pure import block_bytes, row_blocks, run_linear, run_nonlinear
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


def _csv_values(sc: Scenario) -> int:
    """The trajectory values of a run's CSV body: M per output and checkpoint (a mean-field run writes none)."""
    if sc.engine == "meanfield":
        return 0
    return sc.trajectories * sum(sc.steps // stride + 1 for _, _, stride in sc.outputs)


# Upper bounds on what one value costs while run_scenario writes it, measured
# with tracemalloc: a CSV row of a chunk being formatted, besides its label,
# and one float of indented JSON text (its Python objects, the encoder's
# chunks and the text).  Besides a 30-character label, a row formatted in
# numpy peaks at 155-180 B, fixed-point or scientific alike (its digits,
# masks, int64 and float64 temporaries, its padded bytes and their copy
# without padding); one formatted by Python at 150-200 B in chunks of 10 to
# 399 rows, and 254 B in a chunk of one.  Numpy formats a chunk in row
# blocks of at most ``pure.BLOCK_BYTES`` at this many bytes a row and its
# label.
CSV_ROW_BYTES = 256
JSON_FLOAT_BYTES = 400
# Trajectories of a chunk from which its rows are formatted in numpy.  In a
# run, between integration steps, a numpy block costs about 120 us besides
# 0.2 us a row, and Python 0.5 us a row: equal at 300-400 rows (seed-1
# ensemble_csv scaled in M, formatting inline, the time in _CsvBody.add;
# x86-64, 2-CPU VM).  Back to back on one chunk the numpy block costs 65 us.
CSV_NUMPY_ROWS = 400
# Bytes read at a time when a later output's CSV chunks are copied back from
# their temporary file into the digest and the CSV.
COPY_BLOCK = 1 << 16

# Trajectory CSV values (M per output and checkpoint) from which a run
# formats its CSV in a forked writer process, on another CPU while it
# integrates.  Below it, the fork, the copy-on-write faults the run takes
# while the writer lives and the wait for the writer's exit cost about what
# the formatting, hashing and writing moved off the run save.  Seed-1
# ensemble_csv, each run in a fresh process, 10-12 alternating samples a
# side on a 2-CPU x86-64 VM, gain of the writer (min over samples): at
# M = 10^4 (numpy formatting, 0.26 us a value in a run) 1.5 ms at 50,000
# values, 11 ms at 80,000 and 26 ms at 170,000; at M = 100-300 (Python
# formatting, 0.5 us a value) 1.5 ms at 15,200, 8 ms at 30,400 and 19 ms
# at 45,600.
WRITER_MIN_VALUES = 50_000
# Bytes the writer's pipe is asked to hold: a checkpoint's messages (8 M
# bytes per due output) queue there while the run steps on.
WRITER_PIPE_BYTES = 1 << 20

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
    for the M states in units of one state (rank * d complex entries for
    kets, where a pure engine's kets are rank one, and d^2 for densities),
    plus the blocks of scratch of the ket steps (``pure.block_bytes``):

    * a density step holds 2n + 3 states (6 for n = 1): the state, the
      arrays it allocates (the n channel products, their row copy for the
      dissipator's GEMM, which also serves as scratch, and the half X of
      the update: 2n + 1, or 4 for n = 1) and the update X + X† it returns;
      2n + 5 are counted;
    * a ket step holds its input, its output and two blocks, and a
      checkpoint the state and its frame: 2 states are counted, with the
      larger of the step's two blocks and the three blocks of scratch of
      the final-state densities.

    The CSV is formatted one checkpoint of one observable (M + 1 rows) at a
    time, in row blocks of at most ``pure.BLOCK_BYTES`` at ``CSV_ROW_BYTES``
    a row besides its label, and with more than one output the later
    outputs' chunks are copied back ``COPY_BLOCK`` bytes at a time after the
    run.  A run of at least ``WRITER_MIN_VALUES`` trajectory values may
    format them in a forked writer process instead (``_writer_pays``): then
    the messages queued in its pipe (``WRITER_PIPE_BYTES``) and one (M,)
    float64 message on either side of it are counted too.  After the run
    the final-state mean forms (M, d, d) arrays: up to four for densities
    and one for kets.  The config hash and the summary are JSON text: the
    scenario's matrices, the final-state mean, every checkpoint's mean and
    stderr, and for a mean-field run its mean path.
    """
    m, d, n, n_obs = sc.trajectories, sc.dim, sc.ls.shape[0], len(sc.outputs)
    noise = m * sc.steps * n * 8
    json_floats = (sc.steps // _grid_stride(sc) + 1) * (1 + 3 * n_obs) + 2 * d**2 * (3 + n + n_obs)
    if ENGINES[sc.engine][1] == "ensemble":
        rank = decompose_state(sc.rho0).cutoff
        images = (1 + n) * d * 16  # one ket's GEMM images in a step
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
        output = finals * m * d**2 * 16 + block_bytes((m + 1,), CSV_ROW_BYTES + 4 * label)
    output += COPY_BLOCK if n_obs > 1 else 0
    output += WRITER_PIPE_BYTES + 2 * 8 * m if _csv_values(sc) >= WRITER_MIN_VALUES else 0
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


def _density_values(frame: np.ndarray, ops: list) -> np.ndarray:
    # einsum sums in memory order, so the values would depend on how a frame
    # is laid out: every engine hands its reducer C-ordered frames
    out = np.empty((len(ops), frame.shape[0]))
    for i, op in enumerate(ops):
        out[i] = np.einsum("ij,mji->m", op, frame).real
    return out


def _traces(states: np.ndarray) -> np.ndarray:
    """Traces of unnormalized densities, shape (..., M)."""
    return np.einsum("...mii->...m", states).real


def _unnormalized_values(frame: np.ndarray, ops: list) -> np.ndarray:
    return _density_values(frame, ops) / _traces(frame)


def _unnormalized_final(frame: np.ndarray, k: int) -> np.ndarray:
    return (frame / _traces(frame)[:, None, None]).mean(axis=0)


# State kind -> (the (n_obs, M) expectations of the observables ``ops`` at one
# checkpoint; the mean normalized density at checkpoint k), both over one
# checkpoint's Schroedinger-frame states: (M, d, d) densities, or for every
# ket engine a ((M, rank, d) kets, (rank,) weights) pair, which the pure
# engines hand on at rank one (``_weighted_kets``).  A weighted-ket mean
# whose weighted norm vanished aborts at k, naming the trajectory.
REDUCERS = {
    "density": (_density_values, lambda frame, k: frame.mean(axis=0)),
    "unnormalized": (_unnormalized_values, _unnormalized_final),
    "ensemble": (
        lambda frame, ops: weighted_expectations(*frame, ops),
        lambda frame, k: weighted_density(*frame, k).mean(axis=0),
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


def _weighted_kets(reduce, weights: np.ndarray):
    """The per-checkpoint reduce of a ket run that hands ``reduce`` ((M, rank, d) kets, weights).

    A pure engine's (M, d) kets are the rank-one ensemble of weight 1.
    """
    return lambda kets, k: reduce((kets.reshape(len(kets), weights.size, -1), weights), k)


def _run_ensemble(sc: Scenario, p: SMEParams, stride: int, reduce) -> np.ndarray | None:
    """``run_ensemble`` from the spectral decomposition of rho0; ``reduce`` sees (kets, weights)."""
    incr = _noise(sc, p)
    ens = decompose_state(sc.rho0)
    return run_ensemble(ens, p, incr, checkpoint_stride=stride, reduce=_weighted_kets(reduce, ens.weights))


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
            sc.chi0, p, _noise(sc, p), checkpoint_stride=stride, reduce=_weighted_kets(reduce, np.ones(1))
        ),
        "ensemble",
    ),
    "pure_nonlinear": (
        lambda sc, p, stride, reduce: run_nonlinear(
            sc.chi0, p, _noise(sc, p), checkpoint_stride=stride, reduce=_weighted_kets(reduce, np.ones(1))
        ),
        "ensemble",
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


# Decimal exponents E whose ``.17g`` text is fixed-point and is built in
# numpy: 1e-4 <= |v| < 1e16 (``%g`` writes fixed-point up to 1e17)
_G17_EXP = (-4, 15)
_G17_KEYS = 2 * (_G17_EXP[1] - _G17_EXP[0] + 1) * 17
_SPACE_TO_PAD = bytes.maketrans(b" ", b"\xff")


def _g17_key(neg, e, keep):
    """The mask row of a value's sign, exponent E and digits kept (1..17)."""
    return (neg * (_G17_EXP[1] - _G17_EXP[0] + 1) + e - _G17_EXP[0]) * 17 + keep - 1


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """The tables of ``_g17_fields``, built on first use so that importing the CLI stays cheap.

    * ``pow10``: (3, 23), 10**s for s = 0..22, all exact doubles, and their
      Veltkamp halves;
    * ``digits``: one uint64 per 4-digit group g < 10**4, its 8 bytes
      ``0 d 0 d 0 d 0 d`` (the ASCII digits of g behind zero bytes), then
      ``0 0 0 0 0 0 0 d`` for a leading digit d = 0..9 at 10**4 + d;
    * ``ascii4``: one uint32 per group, its four ASCII digits;
    * ``masks``: one (5,) uint64 row, 40 bytes, per ``_g17_key`` and a last
      row of 0xFF only.  ORed onto the 40 bytes of a value's five digit
      groups it gives the value's text padded with 0xFF: the sign and the
      ``0.000`` of E < 0 in bytes 0..5, then before each of the 17 digits a
      separator, which holds the point after digit E or 0xFF, and 0xFF over
      the digits not kept.
    """
    g = np.arange(10_000)
    ascii4 = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    digits = np.zeros((10_010, 8), np.uint8)
    digits[:10_000, 1::2] = ascii4
    digits[10_000:, 7] = ord("0") + np.arange(10)
    masks = np.full((_G17_KEYS + 1, 40), 0xFF, np.uint8)
    for neg, e, keep in itertools.product((0, 1), range(_G17_EXP[0], _G17_EXP[1] + 1), range(1, 18)):
        m = masks[_g17_key(neg, e, keep)]
        if neg:
            m[0] = ord("-")
        if e < 0:
            m[1 : 2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
        m[7 : 7 + 2 * keep : 2] = 0  # the digits kept
        if 0 <= e < keep - 1:
            m[8 + 2 * e] = ord(".")
    pow10 = 10.0 ** np.arange(23)
    return SimpleNamespace(
        pow10=np.stack([pow10, *_veltkamp(pow10)]), digits=digits.view(np.uint64).ravel(),
        ascii4=np.ascontiguousarray(ascii4).view(np.uint32).ravel(), masks=masks.view(np.uint64),
    )


def _veltkamp(x):
    """Split doubles into high and low halves of 26 bits each: x = hi + lo exactly."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _g17_scaled(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**s) as int64, exact wherever the result is at least 2**53 (0 <= s <= 22).

    Dekker's two-product gives a * 10**s = p + lo exactly; p >= 2**53 is
    an even integer, so rounding p + lo to even is p + rint(lo).
    """
    b, bh, bl = _g17_tables().pow10.take(s, axis=1)
    p = a * b
    ah, al = _veltkamp(a)
    lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(lo).astype(np.int64)


def _g17_exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10 a) as float64, one too high or low at most (near powers of ten); -inf for 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.floor(np.log10(a))


def _g17_round(v: np.ndarray):
    """(E, q, the rows left to Python): q = round-half-even(|v| 10**(16 - E)) in [1e16, 1e17), exactly.

    E starts as ``_g17_exponent(|v|)`` and is corrected by one, with q
    recomputed from v, where q falls outside [1e16, 1e17), a carry to 1e17
    included.  Zeros get E = 0 and q = 0; a value whose E is outside
    ``_G17_EXP``, or is not finite, is left to Python.
    """
    a = np.abs(v)
    e = _g17_exponent(a)
    ok = (e >= _G17_EXP[0] - 1) & (e <= _G17_EXP[1] + 1)
    e = np.where(ok, e, 0.0).astype(np.int64)
    a = np.where(ok, a, 0.0)  # q = 0 where not ok
    q = _g17_scaled(a, 16 - e)
    fix = np.flatnonzero(ok & ((q - 10**16).view(np.uint64) >= 9 * 10**16))
    if fix.size:
        e[fix] = np.clip(e[fix] + np.where(q[fix] < 10**16, -1, 1), _G17_EXP[0] - 1, _G17_EXP[1] + 1)
        q[fix] = _g17_scaled(a[fix], 16 - e[fix])
    outside = ((q - 10**16).view(np.uint64) >= 9 * 10**16) | (
        (e - _G17_EXP[0]).view(np.uint64) > _G17_EXP[1] - _G17_EXP[0]
    )
    return e, q, np.flatnonzero(outside & (v != 0))


def _g17_digits(q: np.ndarray) -> np.ndarray:
    """(len(q), 5) uint64: the ``_g17_tables`` digit groups of q < 1e17, its leading digit and four of 4 digits."""
    top = q // 10**8
    low = q - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    groups = np.empty((len(q), 5), np.int64)
    groups[:, 0] = lead + 10_000
    groups[:, 1] = top // 10**4
    groups[:, 2] = top - groups[:, 1] * 10**4
    groups[:, 3] = low // 10**4
    groups[:, 4] = low - groups[:, 3] * 10**4
    return _g17_tables().digits.take(groups)


def _g17_fields(v: np.ndarray) -> np.ndarray:
    """(len(v), 40) uint8: each value's ``.17g`` text with 0xFF bytes anywhere in it, which are dropped.

    Zeros and fixed-point values (exponent in ``_G17_EXP``) are converted
    in numpy, exactly (``_g17_round``): q's 17 digits come from the group
    table, and the mask of (sign, E, digits kept) places the sign, the
    point and the padding.  Any other value (scientific notation, inf,
    nan) is formatted by Python.
    """
    e, q, python = _g17_round(v)
    text = _g17_digits(q)
    nonzero = text.view(np.uint8)[:, 39:6:-2] != ord("0")  # digits 16 .. 0
    nonzero[:, -1] = True  # a zero keeps its one digit
    keep = np.maximum(17 - nonzero.argmax(axis=1), e + 1)  # no trailing zeros, but every integer digit
    key = _g17_key(np.signbit(v), e, keep)
    key[python] = _G17_KEYS
    text |= _g17_tables().masks.take(key, axis=0)
    out = text.view(np.uint8)
    if python.size:  # at most 24 characters, as in -1.2345678901234567e-308, padded with spaces
        chars = ("%-24.17g" * python.size % tuple(v[python].tolist())).encode().translate(_SPACE_TO_PAD)
        out[python, :24] = np.frombuffer(chars, np.uint8).reshape(-1, 24)
    return out


def _csv_ids(start: int, stop: int, width: int) -> np.ndarray:
    """(stop - start, width) uint8: the decimal trajectory indices start..stop-1, leading zeros as 0xFF."""
    ids = np.arange(start, stop)
    n = -(-width // 4)
    groups = np.stack([ids // 10 ** (4 * i) % 10_000 for i in range(n - 1, -1, -1)], axis=1)  # of 4 digits
    out = _g17_tables().ascii4.take(groups).view(np.uint8)[:, 4 * n - width :]
    for k in range(len(str(start)), width):  # indices below 10**k have width - k leading zeros
        out[: min(10**k - start, stop - start), : width - k] = 0xFF
    return out


def _csv_rows(label: str, n_traj: int):
    """The formatter of one observable's CSV rows at one checkpoint: ``rows(t, values, mean, write)``.

    Rows are ``t,traj_id,observable,value`` in UTF-8 with t and value as
    ``.17g``: one per trajectory, from the (n_traj,) float64 ``values``,
    then the mean; ``write`` is handed their bytes in order, a piece at a
    time.  A chunk of fewer than ``CSV_NUMPY_ROWS`` trajectories is
    formatted by Python, value by value, in one piece.  A longer one is
    built in row blocks of at most ``pure.BLOCK_BYTES`` of scratch, a piece
    each: a byte matrix whose rows are the t text, ``,``, the index,
    ``,label,``, the value's ``_g17_fields`` and a line feed, padded with
    0xFF, which UTF-8 never holds; deleting every 0xFF leaves the rows, and
    any label passes through untouched.
    """
    tail = f",mean,{label},"
    if n_traj < CSV_NUMPY_ROWS:
        name = label.replace("%", "%%")

        def rows(t: float, vals: np.ndarray, mean: float, write) -> None:
            ts = f"{t:.17g}"
            args = [None] * (2 * len(vals))
            args[0::2], args[1::2] = range(len(vals)), vals.tolist()
            write(((f"{ts},%d,{name},%.17g\n" * len(vals)) % tuple(args) + f"{ts}{tail}{mean:.17g}\n").encode())

        return rows

    name = label.encode()
    width = len(str(n_traj - 1))
    blocks = row_blocks((n_traj,), CSV_ROW_BYTES + len(name))

    def rows(t: float, vals: np.ndarray, mean: float, write) -> None:
        ts = f"{t:.17g}"
        head = f"{ts},".encode()
        row = np.frombuffer(b"%s%s,%s,%s\n" % (head, b"\xff" * width, name, b"\xff" * 40), np.uint8)
        for b in blocks:
            write(_csv_block(row, len(head), width, b, vals[b]))
        write(f"{ts}{tail}{mean:.17g}\n".encode())

    return rows


def _csv_block(row: np.ndarray, at: int, width: int, b: slice, vals: np.ndarray) -> bytearray:
    """Trajectories b's rows: copies of the padded ``row`` with their index at ``at`` and their value's text."""
    fields, ids = _g17_fields(vals), _csv_ids(b.start, b.stop, width)
    text = bytearray(len(vals) * row.size)
    block = np.frombuffer(text, np.uint8).reshape(len(vals), row.size)
    block[:] = row
    block[:, at : at + width] = ids
    block[:, -41:-1] = fields
    del block, fields, ids  # before the copy without padding
    return text.translate(None, b"\xff")


class _CsvBody:
    """A run's CSV body, formatted and written in observable order while the run's checkpoints come in.

    ``add`` formats output ``i``'s rows at its checkpoint ``j`` with the
    output's ``_csv_rows`` formatter.  Output 0's chunks, after the header,
    go straight into the SHA-256 digest and, unless ``path`` is None, into
    ``<path>.partial``, which starts with the ``comment`` line.  Each later
    output's chunks go to an unnamed temporary file in the same directory.
    ``publish`` appends those files, in output order, through the digest,
    renames the partial file to ``path`` and returns the hex digest.
    ``close`` closes every file and removes the partial one unless it was
    published, so a run that raises leaves nothing behind.  The body runs in
    the run's own process, or behind ``_CsvWriter`` in a forked one.
    """

    def __init__(self, rows: list, times: list, out_dir: str, path: str | None, comment: str):
        self.rows, self.times = rows, times
        self.digest, self.path = hashlib.sha256(), path
        self.csv = self.partial = None
        self.sides = []
        try:
            if path is not None:
                self.csv = open(path + ".partial", "wb")
                self.partial = self.csv.name
                self.csv.write(comment.encode())
            for _ in range(len(rows) - 1):
                self.sides.append(tempfile.TemporaryFile(dir=out_dir))
        except BaseException:
            self.close()
            raise
        if rows:
            self.write(0, CSV_HEADER.encode())

    def add(self, i: int, j: int, vals: np.ndarray, mean: float) -> None:
        """Add output ``i``'s rows at checkpoint ``j``: (M,) float64 ``vals`` (empty for mean rows), then ``mean``."""
        self.rows[i](self.times[i][j], vals, mean, functools.partial(self.write, i))

    def write(self, i: int, data: bytes) -> None:
        """Add one chunk of output ``i``."""
        if i:
            self.sides[i - 1].write(data)
            return
        self.digest.update(data)
        if self.csv is not None:
            self.csv.write(data)

    def publish(self) -> str:
        for side in self.sides:
            side.seek(0)
            while block := side.read(COPY_BLOCK):
                self.write(0, block)
        if self.csv is not None:
            self.csv.close()
            os.replace(self.partial, self.path)
            self.partial = None
        return self.digest.hexdigest()

    def close_files(self) -> None:
        for f in [self.csv, *self.sides]:
            if f is not None:
                f.close()

    def close(self) -> None:
        self.close_files()
        if self.partial is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.partial)


def _writer_pays(n_values: int) -> bool:
    """Whether a run writing ``n_values`` trajectory CSV values formats them in a forked writer.

    It does when they reach ``WRITER_MIN_VALUES`` and the process can fork,
    may run on more than one CPU and has a single thread (a fork copies only
    the calling thread, and one formatting beside the run needs a second CPU).
    """
    if n_values < WRITER_MIN_VALUES or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return threads == 1 and len(os.sched_getaffinity(0)) > 1


class _CsvWriter:
    """A ``_CsvBody`` run by a forked writer process, with the body's ``add``, ``publish`` and ``close``.

    The body's files are opened before the fork, so the writer inherits
    them; the run's process closes its copies.  ``add`` sends
    ``(i, j, vals as bytes, mean)`` down a pipe and returns, and the writer
    formats and writes the rows meanwhile.  ``publish`` ends the stream; the
    writer publishes the body, sends back its hex digest and exits.  If the
    stream ends without the publish message (``close`` on an abort), the
    writer closes the body, removing its partial file, and exits; ``close``
    reaps it and removes the partial file too.  An ``OSError`` in the writer
    comes back as an ``OSError`` from ``add`` or ``publish``.
    """

    def __init__(self, body: _CsvBody):
        import fcntl  # here, not at the top: only the writer path needs it

        for f in [body.csv, *body.sides]:
            if f is not None:
                f.flush()  # so neither process writes the other's buffered bytes
        data_r, data_w = os.pipe()
        report_r, report_w = os.pipe()
        with contextlib.suppress(OSError):
            fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, WRITER_PIPE_BYTES)
        # a pipe wakes its reader on the writer's CPU: on one CPU each, the
        # two processes run side by side instead of taking turns
        self.cpus = os.sched_getaffinity(0)
        cpu = max(self.cpus)
        try:
            os.sched_setaffinity(0, self.cpus - {cpu})
            self.pid = os.fork()
        except OSError:
            os.sched_setaffinity(0, self.cpus)
            for fd in (data_r, data_w, report_r, report_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.sched_setaffinity(0, {cpu})
                os.close(data_w)
                os.close(report_r)
                _serve(body, data_r, report_w)
            finally:  # the forked copy never returns into the run
                os._exit(1)
        os.close(data_r)
        os.close(report_w)
        body.close_files()
        self.partial = body.partial
        self.pipe = open(data_w, "wb")
        self.report = report_r

    def add(self, i: int, j: int, vals: np.ndarray, mean: float) -> None:
        try:
            pickle.dump((i, j, vals.tobytes(), mean), self.pipe, pickle.HIGHEST_PROTOCOL)
        except BrokenPipeError:  # the writer failed and exited
            raise self._reap() from None

    def publish(self) -> str:
        with contextlib.suppress(BrokenPipeError):
            pickle.dump(None, self.pipe, pickle.HIGHEST_PROTOCOL)
        report = self._reap()
        if isinstance(report, BaseException):
            raise report
        self.partial = None
        return report

    def _reap(self):
        """End the stream, wait for the writer, and return its report: the hex digest or an ``OSError``."""
        with contextlib.suppress(OSError):  # a writer that failed leaves bytes unsent
            self.pipe.close()
        with open(self.report, "rb") as f:
            blob = f.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        os.sched_setaffinity(0, self.cpus)
        if not blob:
            return OSError(f"the CSV writer process ended with status {os.waitstatus_to_exitcode(status)}")
        return pickle.loads(blob)

    def close(self) -> None:
        if self.pid is not None:
            self._reap()
        if self.partial is not None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.partial)


def _serve(body: _CsvBody, data_r: int, report_w: int):
    """The writer process: ``body.add`` each message from ``data_r``, then publish; never returns.

    It sends its report on ``report_w``, the hex digest or an ``OSError``,
    and leaves through ``os._exit``, so no handler or buffer of the forked
    run's process runs twice.
    """
    code = 1
    try:
        with open(data_r, "rb") as src:
            while (msg := pickle.load(src)) is not None:
                i, j, vals, mean = msg
                body.add(i, j, np.frombuffer(vals), mean)
        report, code = body.publish(), 0
    except OSError as e:
        report = e
    except BaseException as e:  # the stream ended unpublished (an abort), or an interrupt
        report = OSError(f"the CSV writer stopped: {e!r}")
    finally:
        try:
            if code:
                body.close()
            os.write(report_w, pickle.dumps(report))
        finally:
            os._exit(code)


def _csv_sink(n_values: int, rows: list, times: list, out_dir: str, path: str | None, comment: str):
    """The run's ``_CsvBody``, behind a forked ``_CsvWriter`` when ``_writer_pays(n_values)``."""
    body = _CsvBody(rows, times, out_dir, path, comment)
    if not _writer_pays(n_values):
        return body
    try:
        return _CsvWriter(body)
    except BaseException:
        body.close()
        raise


def run_scenario(sc: Scenario, out_dir: str, fmt: str = "both") -> RunArtifacts:
    """Execute a validated scenario and write CSV/JSON artifacts (``fmt`` is one of ``FORMATS``).

    The per-checkpoint reduce that computes each checkpoint's values hands
    them to the CSV sink (``_csv_sink``) and keeps only each output's means
    and stderrs.  The sink formats the rows right there, or, when
    ``_writer_pays`` the run's trajectory CSV values, in a writer process
    forked as the sink opens, which formats them on another CPU while the
    run steps on; it is reaped before this returns or raises, and the CPU
    affinity it narrowed is restored.  Every statistic and the final-state
    mean are checked after the run; a run that aborts or fails writes
    nothing.
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
    comment = f"# generated={stamp} scenario={safe_name} seed={sc.seed} config={cfg_hash}\n"
    with contextlib.closing(_csv_sink(_csv_values(sc), rows, times, out_dir, csv_path, comment)) as body:

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
                body.add(i, j, v[:0] if mean_only else v, m)

        engine_details = run(sc, params, stride, reduce) or {}
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite final-state mean aborts below
            mean_final = final(last[0], sc.steps)
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
        digest = body.publish()
    if not sc.outputs:
        digest = hashlib.sha256(summary_blob.encode()).hexdigest()
    json_path = None
    if fmt in ("json", "both") or not sc.outputs:
        json_path = os.path.join(out_dir, f"{safe_name}.summary.json")
        with open(json_path, "w") as f:
            f.write(summary_blob + "\n")
    return RunArtifacts(csv_path, json_path, cfg_hash, sc.seed, digest)


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
    if args.sabotage and args.suite not in ("all", "martingale"):
        print(f"--sabotage applies to the martingale suite (and all), not {args.suite}", file=sys.stderr)
        return 2
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
                     help="(testing) bias the martingale samples to verify failure detection; "
                          "martingale and all only")
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
