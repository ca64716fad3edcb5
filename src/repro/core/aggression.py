"""Mirror-gate aggression levels (paper Algorithm 2 and Section IV-C).

The aggression level controls how eagerly the intermediate layer replaces a
gate by its mirror:

* **0** — never accept a mirror;
* **1** — accept only if it strictly lowers the cost;
* **2** — accept if it lowers *or maintains* the cost;
* **3** — always accept.

No single level wins on every circuit (paper Fig. 10), so the default
MIRAGE configuration distributes the independent routing trials across
levels as 5% / 45% / 45% / 5%.
"""

from __future__ import annotations

import enum
import numbers
from typing import Mapping, Sequence

from repro.exceptions import InvalidModeError


class Aggression(enum.IntEnum):
    """Named aggression levels."""

    NEVER = 0
    IMPROVE = 1
    NEUTRAL = 2
    ALWAYS = 3


#: Paper Section IV-C trial distribution across aggression levels.
DEFAULT_AGGRESSION_DISTRIBUTION: Mapping[int, float] = {
    Aggression.NEVER: 0.05,
    Aggression.IMPROVE: 0.45,
    Aggression.NEUTRAL: 0.45,
    Aggression.ALWAYS: 0.05,
}


def accept_mirror(
    cost_current: float,
    cost_trial: float,
    aggression: int | Aggression,
    *,
    tolerance: float = 1e-9,
) -> bool:
    """Mirror-gate acceptance function (paper Algorithm 2).

    Args:
        cost_current: combined cost of keeping the original gate.
        cost_trial: combined cost of substituting the mirror gate.
        aggression: level 0-3.
        tolerance: numerical slack for the "maintains the cost" comparison.

    Returns:
        ``True`` if the mirror gate should be accepted.
    """
    level = int(aggression)
    if level == Aggression.NEVER:
        return False
    if level == Aggression.IMPROVE:
        return cost_trial < cost_current - tolerance
    if level == Aggression.NEUTRAL:
        return cost_trial <= cost_current + tolerance
    if level == Aggression.ALWAYS:
        return True
    raise ValueError(f"invalid aggression level {aggression!r}")


def aggression_schedule(
    num_trials: int,
    distribution: Mapping[int, float] | None = None,
) -> list[Aggression]:
    """Assign an aggression level to each of ``num_trials`` routing trials.

    The schedule follows the requested distribution as closely as integer
    counts allow (largest-remainder apportionment) and orders trials from
    the most used level to the least.
    """
    if num_trials < 1:
        raise ValueError("need at least one trial")
    weights = dict(
        DEFAULT_AGGRESSION_DISTRIBUTION if distribution is None else distribution
    )
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("aggression distribution must have positive weight")

    # Largest-remainder apportionment.
    exact = {level: num_trials * weight / total for level, weight in weights.items()}
    counts = {level: int(exact[level]) for level in weights}
    assigned = sum(counts.values())
    remainders = sorted(
        weights, key=lambda level: exact[level] - counts[level], reverse=True
    )
    for level in remainders:
        if assigned >= num_trials:
            break
        counts[level] += 1
        assigned += 1

    schedule: list[Aggression] = []
    for level in sorted(counts, key=counts.get, reverse=True):
        schedule.extend([Aggression(level)] * counts[level])
    return schedule[:num_trials]


def fixed_schedule(num_trials: int, level: int | Aggression) -> list[Aggression]:
    """A schedule that uses the same aggression level for every trial."""
    return [Aggression(int(level))] * num_trials


def _level(value: object) -> Aggression:
    """One aggression level: an integer 0-3 (``bool`` is refused)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or not 0 <= value <= 3
    ):
        raise InvalidModeError(
            f"invalid aggression level {value!r} — accepted levels: 0, 1, 2, 3"
        )
    return Aggression(int(value))


def schedule_from_spec(
    num_trials: int, spec: int | str | Sequence[int] | None
) -> list[Aggression]:
    """Build a schedule from a user-facing specification.

    ``None`` or ``"mixed"`` gives the paper's 5/45/45/5 distribution, an
    integer gives a fixed level, and an explicit sequence is passed through
    (padded by cycling if shorter than ``num_trials``).

    Raises:
        InvalidModeError: if ``spec`` is none of these, is empty, or
            names a level outside 0-3.
    """
    if spec is None or (isinstance(spec, str) and spec.lower() == "mixed"):
        return aggression_schedule(num_trials)
    if isinstance(spec, str):
        raise InvalidModeError(
            f"unknown aggression spec {spec!r} — accepted: 'mixed', a level "
            f"0-3 or a sequence of levels"
        )
    if isinstance(spec, numbers.Integral):
        return fixed_schedule(num_trials, _level(spec))
    try:
        levels = [_level(level) for level in spec]
    except TypeError:
        raise InvalidModeError(
            f"aggression must be 'mixed', a level 0-3 or a sequence of "
            f"levels, not {type(spec).__name__}"
        ) from None
    if not levels:
        raise InvalidModeError("empty aggression schedule")
    return [levels[i % len(levels)] for i in range(num_trials)]
