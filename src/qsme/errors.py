"""Shared exception types."""

from __future__ import annotations


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
