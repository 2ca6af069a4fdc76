"""Shared exception types."""

from __future__ import annotations

import numpy as np


class TrajectoryAbort(RuntimeError):
    """A trajectory hit a state the theory excludes but discretization can reach.

    Raised when a norm or trace process would be driven to a nonpositive
    value, or an ensemble denominator vanishes.  Carries the step index and,
    when known, the trajectory index so callers can report where the path
    died instead of silently continuing.
    """

    def __init__(self, reason: str, step: int | None = None, trajectory: int | None = None):
        self.reason = reason
        self.step = step
        self.trajectory = trajectory
        msg = reason if step is None else f"{reason} (step {step})"
        super().__init__(msg)

    @classmethod
    def unless(cls, ok: np.ndarray, reason: str, step: int | None = None) -> None:
        """Raise for the first trajectory (flat index of ``ok``) where ``ok`` is False."""
        bad = np.flatnonzero(~np.asarray(ok))
        if bad.size:
            raise cls(reason, step=step, trajectory=int(bad[0]) if np.ndim(ok) else None)


class TraceDeviation(TrajectoryAbort, ValueError):
    """A density handed to the normalized stepper whose trace is not 1 (or is NaN).

    A ``ValueError`` to a direct caller that passes such a state; inside a
    run it is the abort of a diverging trajectory, which ``integrate``
    locates at the step it was raised in.
    """
