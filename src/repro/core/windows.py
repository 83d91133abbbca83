"""Training-window policies (Section 5.2.2, Figure 9).

The paper compares four ways of choosing the training set at each
retraining: *dynamic-whole* (all history so far), *dynamic-6 mo* and
*dynamic-3 mo* (sliding windows), and *static* (the initial window,
never retrained).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Weeks per "month" in the paper's 3-/6-month windows (≈ 30 days).
WEEKS_PER_MONTH = 30.0 / 7.0


@dataclass(frozen=True, slots=True)
class TrainingPolicy:
    """Maps the current week to a ``[start_week, end_week)`` training span.

    ``kind``:
      * ``"growing"`` — train on everything seen so far (dynamic-whole);
      * ``"sliding"`` — train on the most recent ``length_weeks`` weeks;
      * ``"static"``  — always the initial ``length_weeks`` weeks, cut at
        the current week like every other span (and no retraining should
        be triggered by the framework).
    """

    kind: str
    length_weeks: int = 26

    def __post_init__(self) -> None:
        if self.kind not in ("growing", "sliding", "static"):
            raise ValueError(
                f"kind must be growing/sliding/static, got {self.kind!r}"
            )
        if self.length_weeks <= 0:
            raise ValueError(
                f"length_weeks must be positive, got {self.length_weeks}"
            )

    @property
    def retrains(self) -> bool:
        return self.kind != "static"

    def window(self, current_week: int) -> tuple[int, int]:
        """Training span (in weeks, half-open) when retraining at
        ``current_week``."""
        if current_week < 0:
            raise ValueError(f"current_week must be >= 0, got {current_week}")
        if self.kind == "growing":
            return (0, current_week)
        if self.kind == "sliding":
            return (max(0, current_week - self.length_weeks), current_week)
        # Static: the initial weeks, but never past the retraining week.
        return (0, min(self.length_weeks, current_week))


def dynamic_whole() -> TrainingPolicy:
    """Train on all historical data (dynamic-whole)."""
    return TrainingPolicy(kind="growing")


def dynamic_months(months: int = 6) -> TrainingPolicy:
    """Sliding window of the most recent ``months`` (dynamic-N mo)."""
    if months <= 0:
        raise ValueError(f"months must be positive, got {months}")
    return TrainingPolicy(kind="sliding", length_weeks=round(months * WEEKS_PER_MONTH))


def static_initial(months: int = 6) -> TrainingPolicy:
    """Fixed initial window, never retrained (static)."""
    if months <= 0:
        raise ValueError(f"months must be positive, got {months}")
    return TrainingPolicy(kind="static", length_weeks=round(months * WEEKS_PER_MONTH))
