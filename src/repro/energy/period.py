"""Charging-period arithmetic: ``T_d``, ``T_r``, ``T``, ``rho`` (Sec. II-B, Fig. 2).

Physical definitions (note: the paper's running text contains a typo
swapping the two; we use the physically consistent version, which also
matches the paper's example ``T_d = 15 min``, ``T_r = 45 min``,
``rho = 3``, ``T = 60 min``):

- discharge time  ``T_d = B / mu_d``  (time for an active node to drain),
- recharge time   ``T_r = B / mu_r``  (time for a passive node to fill),
- charging period ``T = T_r + T_d``,
- ratio           ``rho = T_r / T_d``.

Slot normalization (the paper's convention):

- ``rho >= 1``: one slot = ``T_d``; a period holds ``rho + 1`` slots; a
  sensor can be ACTIVE for at most **one** slot out of any ``T``
  consecutive slots (activating drains it fully; the next ``rho`` slots
  it recharges).
- ``rho <= 1``: one slot = ``T_r``; a period holds ``1 + 1/rho`` slots;
  a sensor can be ACTIVE for ``1/rho`` slots and must be PASSIVE for at
  least **one** slot per period.

For exposition the paper assumes ``rho`` (resp. ``1/rho``) is an
integer; :func:`normalize_ratio` enforces/rounds this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def normalize_ratio(rho: float, tolerance: float = 1e-9) -> float:
    """Validate the paper's integrality assumption on ``rho``.

    For ``rho >= 1`` the value must be a (near-)integer; for ``rho < 1``
    its reciprocal must be.  Values within ``tolerance`` of an integer
    are snapped; anything else raises ``ValueError`` (the paper assumes
    integrality "without affecting the generality of the results" --
    callers with awkward ratios should round T_d/T_r themselves).
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not math.isfinite(rho) or not math.isfinite(1.0 / rho):
        raise ValueError(f"rho and 1/rho must be finite, got rho={rho}")
    if rho >= 1:
        nearest = round(rho)
        if abs(rho - nearest) > tolerance:
            raise ValueError(
                f"rho >= 1 must be an integer (paper Sec. II-B), got {rho}"
            )
        return float(nearest)
    inverse = 1.0 / rho
    nearest = round(inverse)
    if abs(inverse - nearest) > tolerance:
        raise ValueError(
            f"1/rho must be an integer for rho < 1 (paper Sec. II-B), got rho={rho}"
        )
    return 1.0 / nearest


@dataclass(frozen=True)
class ChargingPeriod:
    """All slot-level consequences of a (T_d, T_r) pair.

    Construct directly from times, or from physical rates via
    :meth:`from_rates`, or from a ratio via :meth:`from_ratio`.
    """

    discharge_time: float  # T_d, in wall-clock minutes
    recharge_time: float  # T_r, in wall-clock minutes

    def __post_init__(self) -> None:
        if self.discharge_time <= 0:
            raise ValueError(
                f"discharge time must be positive, got {self.discharge_time}"
            )
        if self.recharge_time <= 0:
            raise ValueError(
                f"recharge time must be positive, got {self.recharge_time}"
            )
        # Trip the integrality check early so invalid periods cannot be built.
        normalize_ratio(self.recharge_time / self.discharge_time)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rates(
        cls, capacity: float, discharge_rate: float, recharge_rate: float
    ) -> "ChargingPeriod":
        """From battery capacity ``B`` and speeds ``mu_d``, ``mu_r``."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if discharge_rate <= 0 or recharge_rate <= 0:
            raise ValueError("rates must be positive")
        return cls(
            discharge_time=capacity / discharge_rate,
            recharge_time=capacity / recharge_rate,
        )

    @classmethod
    def from_ratio(cls, rho: float, discharge_time: float = 1.0) -> "ChargingPeriod":
        """From ``rho`` with a chosen ``T_d`` (defaults to 1 normalized unit)."""
        rho = normalize_ratio(rho)
        return cls(discharge_time=discharge_time, recharge_time=rho * discharge_time)

    @classmethod
    def paper_sunny(cls) -> "ChargingPeriod":
        """The measured sunny-weather pattern: T_d = 15 min, T_r = 45 min.

        (Sec. VI-A: "the recharge time is around 45 minutes and the
        discharge time is 15 minutes when weather is sunny".)
        """
        return cls(discharge_time=15.0, recharge_time=45.0)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def total_time(self) -> float:
        """``T = T_r + T_d`` in wall-clock units."""
        return self.discharge_time + self.recharge_time

    @property
    def rho(self) -> float:
        """``rho = T_r / T_d`` (snapped to the integrality assumption)."""
        return normalize_ratio(self.recharge_time / self.discharge_time)

    @property
    def slot_length(self) -> float:
        """Normalized slot length: ``T_d`` if rho >= 1, else ``T_r``."""
        return self.discharge_time if self.rho >= 1 else self.recharge_time

    @property
    def slots_per_period(self) -> int:
        """``T`` in slots: ``rho + 1`` if rho >= 1, else ``1 + 1/rho``."""
        rho = self.rho
        if rho >= 1:
            return int(round(rho)) + 1
        return 1 + int(round(1.0 / rho))

    @property
    def active_slots_per_period(self) -> int:
        """Max ACTIVE slots per period: 1 if rho >= 1, else ``1/rho``."""
        rho = self.rho
        if rho >= 1:
            return 1
        return int(round(1.0 / rho))

    @property
    def passive_slots_per_period(self) -> int:
        """Min PASSIVE slots per period: ``rho`` if rho >= 1, else 1."""
        rho = self.rho
        if rho >= 1:
            return int(round(rho))
        return 1

    def slots_for_working_time(self, working_time: float) -> int:
        """Convert a wall-clock working time ``L`` into whole slots.

        The paper assumes ``L`` is a multiple of ``T``; mismatches raise
        so that silently truncated experiments cannot happen.
        """
        slots = working_time / self.slot_length
        nearest = round(slots)
        if abs(slots - nearest) > 1e-6:
            raise ValueError(
                f"working time {working_time} is not a whole number of "
                f"slots (slot = {self.slot_length})"
            )
        if nearest % self.slots_per_period != 0:
            raise ValueError(
                f"working time {working_time} spans {nearest} slots which is "
                f"not a multiple of the period ({self.slots_per_period} slots); "
                "the paper requires L = alpha * T"
            )
        return int(nearest)

    def periods_for_working_time(self, working_time: float) -> int:
        """``alpha`` in ``L = alpha T``."""
        return self.slots_for_working_time(working_time) // self.slots_per_period

    def __str__(self) -> str:
        return (
            f"ChargingPeriod(T_d={self.discharge_time}, T_r={self.recharge_time}, "
            f"rho={self.rho:g}, T={self.slots_per_period} slots)"
        )
