"""Sweep doubles through the CSV's numpy ``.17g`` text and compare it with CPython's ``'%.17g' % value``.

    python tests/csv_format_sweep.py [--values N] [--seed S]

Draws N doubles (10**7 by default) in blocks of 2**16, a third each:
uniformly over the 64-bit patterns (every exponent, subnormals, both zeros,
NaN and inf); uniformly within decades drawn uniformly from 1e-323 .. 1e308;
and the same within the decades 1e-5 .. 1e17 around the ones formatted in
numpy, with random signs.  Each block goes through ``qsme.cli._g17_fields``,
as the CSV rows do, and the script exits 1 at the first value whose text
differs, printing it.  Takes about 20 s per 10**7 values on one core of an
x86-64 VM.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from qsme import cli

BLOCK = 1 << 16


def draw(rng: np.random.Generator, n: int) -> np.ndarray:
    bits = rng.integers(0, 2**64, size=n - 2 * (n // 3), dtype=np.uint64).view(np.float64)
    exponents = np.concatenate([rng.integers(-323, 309, n // 3), rng.integers(-5, 17, n // 3)])
    with np.errstate(over="ignore"):
        decades = rng.uniform(1.0, 10.0, exponents.size) * np.power(10.0, exponents)
    decades *= rng.choice([-1.0, 1.0], size=decades.size)
    return np.concatenate([bits, decades])


def text(vals: np.ndarray) -> bytes:
    """One line per value, from ``cli._g17_fields``."""
    lines = np.empty((len(vals), 41), np.uint8)
    lines[:, :40] = cli._g17_fields(vals)
    lines[:, 40] = ord("\n")
    return lines.tobytes().translate(None, b"\xff")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--values", type=int, default=10**7)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    start, done, numpy = time.perf_counter(), 0, 0
    while done < args.values:
        vals = draw(rng, min(BLOCK, args.values - done))
        numpy += len(vals) - cli._g17_round(vals)[2].size
        got = text(vals)
        want = (("%.17g\n" * len(vals)) % tuple(vals.tolist())).encode()
        if got != want:
            for x, a, b in zip(vals.tolist(), got.splitlines(), want.splitlines()):
                if a != b:
                    print(f"MISMATCH at {x!r} ({x.hex()}): {a.decode()!r}, '%.17g' gives {b.decode()!r}")
                    return 1
        done += len(vals)
    print(f"{done} values ({numpy} formatted in numpy) match '%.17g' in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
