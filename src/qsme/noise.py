"""Multichannel Wiener increments and Brownian coarsening.

Increments (not cumulative paths) are the canonical representation: the SDE
steppers consume increments directly and cumulative sums lose precision.

Reproducibility: paths are drawn from numpy's PCG64 generator (ziggurat
normal sampling), which is stream-stable for a fixed numpy version on a given
platform.  Trajectory ``k`` of a run seeded with ``seed`` is row ``k`` of
its batch and uses the counter-derived child
``SeedSequence(entropy=seed, spawn_key=(k,))``, so disjoint trajectories
never share a stream, a batch is a prefix of every larger batch of the same
seed, and the same (seed, k) always reproduces the same path, which is what
the common-random-numbers reuse in the mean-field Picard loop relies on.

A batch does not build those ``SeedSequence`` objects one by one.  Their
hash (numpy's ``SeedSequence``, after M. E. O'Neill's ``seed_seq_fe``) is
the same for every trajectory up to the spawn-key word, which enters last,
so ``sample_wiener_batch`` mixes that word for ``SEED_BLOCK`` trajectories
at a time and seeds their PCG64 states, all in uint64 arithmetic, and then
sets one reused generator to each state in turn.
``trajectory_seed`` is the definition: row ``k`` is bitwise the stream of
``np.random.default_rng(trajectory_seed(seed, k))``.
"""

from __future__ import annotations

import operator

import numpy as np

SEED_BLOCK = 512  # trajectories whose generator states are derived together

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG64's 128-bit multiplier


def trajectory_seed(seed: int, index: int = 0) -> np.random.SeedSequence:
    """Child seed sequence for one trajectory of a seeded run."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def _words(value: int) -> list:
    """A nonnegative integer as SeedSequence reads it: 32-bit words, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """One word of the ``seed_seq_fe`` hash; the hash constant advances by ``mult``.

    ``value`` is a Python int or a uint64 array of 32-bit words; the
    constants are Python ints below 2**32, so every product fits in 64 bits
    and the mask wraps it as the uint32 reference does.  Returns (hashed
    value, next hash constant).
    """
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (Python ints or uint64 arrays)."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _pools(entropy: list) -> list:
    """SeedSequence's entropy pool for the assembled entropy words, longer than the pool.

    Only the last word may be an array (one spawn key per trajectory):
    it is mixed in last, so the work before it is done once on Python ints.
    """
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        h, const = _hash(word, const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    return pool


def _mul_hi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of a·b for a uint64 array ``a`` and a Python int ``b`` below 2**64."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray) -> tuple:
    """(a + b) mod 2**128 in uint64 halves.

    The carry out of the low halves is taken with shifts, not a comparison:
    each further kind of integer loop pages in more of numpy's code (about
    64 KiB), which stays resident for the rest of the run.
    """
    carry = ((a_lo >> 1) + (b_lo >> 1) + (a_lo & b_lo & 1)) >> 63
    return a_hi + b_hi + carry, a_lo + b_lo


def _pcg_states(pool: list) -> tuple:
    """PCG64's (state, inc) seeded by ``SeedSequence.generate_state(4, uint64)`` of each pool.

    Returns the high and low 64-bit halves of both, as uint64 arrays:
    inc = 2·seq + 1 and state = (inc + seed)·MULT + inc, modulo 2**128.
    """
    const, words = _INIT_B, []
    for i in range(8):  # four 64-bit words, low 32-bit half first
        h, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        words.append(h)
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * j] | words[2 * j + 1] << 32 for j in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    hi = _mul_hi(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(hi, lo * _PCG_MULT_LO, inc_hi, inc_lo) + (inc_hi, inc_lo)


def _sample_block(out: np.ndarray, run_entropy: list, start: int, rng: np.random.Generator, scale: float):
    """Fill the rows of ``out``, trajectories ``start ..``, each from its own stream through ``rng``.

    Only this block's pools, states and their Python ints are alive while it runs.
    """
    keys = np.arange(start, start + len(out), dtype=np.uint64)
    halves = (a.tolist() for a in _pcg_states(_pools(run_entropy + [keys])))
    bit_gen, shape = rng.bit_generator, out.shape[1:]
    for row, state_hi, state_lo, inc_hi, inc_lo in zip(out, *halves):
        bit_gen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        row[...] = rng.normal(0.0, scale, shape)


def sample_wiener_batch(n_channels: int, step_count: int, dt: float, seed: int, n_traj: int) -> np.ndarray:
    """Stack of ``n_traj`` per-trajectory paths, shape (n_traj, step_count, n_channels).

    Row ``m`` holds i.i.d. Normal(0, dt) increments drawn from the generator
    of ``trajectory_seed(seed, m)`` alone, so a smaller batch is bitwise a
    prefix of a larger one.  The generator states are derived ``SEED_BLOCK``
    trajectories at a time (module docstring); indices stay below 2**32.
    """
    if n_channels < 1 or step_count < 1:
        raise ValueError("n_channels and step_count must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    run_entropy = _words(seed)
    # with a spawn key, SeedSequence pads the run entropy to the pool size
    run_entropy += [0] * (_POOL_SIZE - len(run_entropy))
    out = np.empty((n_traj, step_count, n_channels))
    scale = np.sqrt(dt)
    rng = np.random.Generator(np.random.PCG64(0))
    for start in range(0, n_traj, SEED_BLOCK):
        _sample_block(out[start : start + SEED_BLOCK], run_entropy, start, rng, scale)
    return out


def coarsen_increments(increments: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate consecutive fine increments into coarse ones (Brownian refinement).

    Used to couple simulations across step sizes: the coarse path at dt*factor
    is the same Brownian motion as the fine path at dt.
    """
    steps = increments.shape[-2]
    if steps % factor:
        raise ValueError(f"step count {steps} not divisible by {factor}")
    shape = increments.shape[:-2] + (steps // factor, factor) + increments.shape[-1:]
    return increments.reshape(shape).sum(axis=-2)
