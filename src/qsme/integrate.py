"""The one time-stepping loop behind every trajectory driver and the Picard solver.

``integrate`` takes a step closure ``step(x, k) -> x`` that advances the state
over step ``k`` and a map ``observe(x, k)`` that turns the state after ``k``
steps into what is stored.  Every ``run_*`` driver is one call to ``drive``;
the drivers differ only in the stepper, the prepared start state and the
frame map they pass it.  ``drive`` replicates the start state over the batch
of increments, steps with increment ``k`` at t = k dt, maps each
checkpoint's state to the Schroedinger frame and hands that frame to a
per-checkpoint ``reduce(frame, k)``.  The default reducer, ``keep_frame``,
stores the frame state itself.  The CLI's reducer writes each due
observable's CSV chunk, keeps only its mean and stderr and returns None, so
``integrate`` stacks nothing and no run holds every checkpoint's states or
every trajectory's values.  For each mean-field Picard
iteration ``observe`` is the Monte Carlo mean of the batch.  ``integrate``
lets go of its start state after step 0, so a replicated (M, ...) start
state is not kept for the whole run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TrajectoryAbort


def step_count(horizon: float, dt: float) -> int:
    """The number of ``dt`` steps in ``horizon``; ValueError unless it is a positive whole number."""
    try:
        steps = float(horizon) / float(dt)
    except OverflowError:  # an integer beyond the float range
        steps = math.nan
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ValueError("horizon must be a positive whole number of dt steps")
    return round(steps)


def replicate(x0: np.ndarray, batch: tuple) -> np.ndarray:
    """A writable copy of ``x0`` for every index of the leading ``batch`` shape."""
    return np.broadcast_to(x0, batch + x0.shape).copy()


def keep_frame(frame, k: int):
    """The default per-checkpoint map of the ``run_*`` drivers: the frame state itself."""
    return frame


def integrate(step, x0: np.ndarray, steps: int, stride: int, observe) -> np.ndarray | None:
    """Run ``steps`` steps from ``x0``; ``observe`` at t = 0 and every ``stride`` steps.

    Returns shape (steps // stride + 1, ...): entry i is ``observe(x, i * stride)``.
    An ``observe`` that returns None at t = 0 keeps what it needs itself:
    nothing is stacked and the result is None.  Once ``step(x0, 0)`` has
    returned, ``integrate`` holds no reference to ``x0``.  A
    ``TrajectoryAbort`` that ``step(x, k)`` raises without a step index is
    located at ``k``, the number of steps ``x`` has taken.
    """
    if steps % stride:
        raise ValueError("step count must be a multiple of checkpoint_stride")
    first = observe(x0, 0)
    out = None
    if first is not None:
        out = np.empty((steps // stride + 1,) + first.shape, dtype=first.dtype)
        out[0] = first
    x, x0, first = x0, None, None  # x is the only reference to the start state
    for k in range(steps):
        try:
            x = step(x, k)
        except TrajectoryAbort as e:
            if e.step is not None:
                raise
            raise TrajectoryAbort(e.reason, step=k, trajectory=e.trajectory) from e
        if (k + 1) % stride == 0:
            if out is None:
                observe(x, k + 1)
            else:
                out[(k + 1) // stride] = observe(x, k + 1)
    return out


def drive(stepper, x0: np.ndarray, frame, p, increments, checkpoint_stride: int, reduce) -> np.ndarray | None:
    """Drive ``stepper(x, p, increments[..., k, :], k dt)`` from ``x0`` over every step of ``increments``.

    ``increments`` has shape (..., steps, n) and ``x0`` is replicated over its
    leading batch shape.  At t = 0 and every ``checkpoint_stride`` steps the
    state is mapped by ``frame(x, t)`` and ``reduce(frame, k)`` is stored:
    shape (steps // checkpoint_stride + 1, ...), or None for a ``reduce``
    that returns None.
    """
    increments = np.asarray(increments, dtype=float)
    return integrate(
        lambda x, k: stepper(x, p, increments[..., k, :], k * p.dt),
        replicate(x0, increments.shape[:-2]),
        increments.shape[-2],
        checkpoint_stride,
        lambda x, k: reduce(frame(x, k * p.dt), k),
    )
