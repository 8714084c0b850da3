"""Struct-of-arrays view over a group of scheduling problems.

An :class:`InstanceBatch` holds N instances that share a slot count
``T`` and a utility family, padded to a common sensor count ``n_max``.
The batched kernels (:mod:`repro.batched.kernels`) hang their per-family
payload arrays off this structure; the batch itself owns only the
generic shape data (masks, real sensor counts) plus a per-instance
*spec* -- a plain-python snapshot of the utility's defining data, deep
enough to rebuild an equivalent :class:`SchedulingProblem` from scratch
(:meth:`InstanceBatch.rebuild_problem`, exercised by the round-trip
property tests).

Eligibility is decided per instance by :func:`batchable` (supported
family, rho >= 1) and per group by :meth:`InstanceBatch.build` (same
``T``, same family).  Anything else falls back to the serial path --
batching is an optimization, never an eligibility test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import SchedulingProblem
from repro.utility.area import AreaCoverageUtility
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.logsum import LogSumUtility
from repro.utility.target_system import TargetSystem

#: Family tags, matching the incremental evaluators' ``family`` strings.
#: The detection families have no kernel: the serial key-ordered
#: greedy (:mod:`repro.core.greedy`) beats one per instance.
FAMILIES = (
    "logsum",
    "coverage",
    "area",
    "target-system",
)


class BatchError(ValueError):
    """A problem list cannot form one batch (mixed shape or ineligible)."""


def family_of(problem: SchedulingProblem) -> Optional[str]:
    """The batch-kernel family of the problem's utility, or ``None``.

    :class:`CoverageCountUtility` is a :class:`WeightedCoverageUtility`
    and lands on "coverage".
    """
    fn = problem.utility
    if isinstance(fn, LogSumUtility):
        return "logsum"
    if isinstance(fn, WeightedCoverageUtility):
        return "coverage"
    if isinstance(fn, AreaCoverageUtility):
        return "area"
    if isinstance(fn, TargetSystem):
        if _target_system_batchable(fn):
            return "target-system"
    return None


def _target_system_batchable(fn: TargetSystem) -> bool:
    """Mirror of ``TargetSystemEvaluator._build_fast_kernel``'s gate:
    every child a plain detection utility whose probability table covers
    its target's sensors."""
    children = [fn.target_utility(i) for i in range(fn.num_targets)]
    if not all(
        isinstance(c, DetectionUtility)
        and not isinstance(c, HomogeneousDetectionUtility)
        for c in children
    ):
        return False
    for tid, child in enumerate(children):
        probs = child._probabilities
        for v in fn.coverage_set(tid):
            if v not in probs:
                return False
    return True


def batchable(problem: SchedulingProblem) -> Tuple[bool, str]:
    """Can this instance ride a batch?  Returns ``(ok, reason)``.

    ``reason`` names the disqualifier (``"rho"``, ``"family"``) and is
    the label the executor's ``repro_batched_fallback_total`` counter
    carries; it is ``"ok"`` for eligible instances.
    """
    if not problem.is_sparse_regime:
        return False, "rho"
    if family_of(problem) is None:
        return False, "family"
    return True, "ok"


def _utility_spec(family: str, fn) -> Dict[str, object]:
    """Plain-python snapshot of the utility's defining data."""
    if family == "logsum":
        return {"weights": dict(fn._weights)}
    if family == "coverage":
        return {
            "covers": {v: frozenset(c) for v, c in fn._covers.items()},
            "element_weights": dict(fn._weights),
        }
    if family == "area":
        return {"subregions": tuple(fn._subregions)}
    if family == "target-system":
        return {
            "coverage_sets": tuple(fn._coverage),
            "probabilities": tuple(
                dict(fn.target_utility(i)._probabilities)
                for i in range(fn.num_targets)
            ),
        }
    raise BatchError(f"unknown family {family!r}")


def _rebuild_utility(family: str, spec: Dict[str, object]):
    if family == "logsum":
        return LogSumUtility(spec["weights"])
    if family == "coverage":
        return WeightedCoverageUtility(
            spec["covers"], element_weights=spec["element_weights"]
        )
    if family == "area":
        return AreaCoverageUtility(spec["subregions"])
    if family == "target-system":
        return TargetSystem(
            spec["coverage_sets"],
            [DetectionUtility(p) for p in spec["probabilities"]],
        )
    raise BatchError(f"unknown family {family!r}")


class InstanceBatch:
    """N same-family, same-``T`` instances padded to a common ``n_max``.

    Attributes
    ----------
    problems:
        The member instances, in submission order.
    family:
        Shared utility family (one of :data:`FAMILIES`).
    slots_per_period:
        Shared ``T``.
    n_max:
        Largest member sensor count (padding width).  0 for a batch of
        all-empty instances.
    n_real:
        ``(N,)`` int array of true sensor counts.
    sensor_mask:
        ``(N, n_max)`` bool; True where the sensor id is real for that
        instance, False over padding.
    """

    def __init__(self, problems: Sequence[SchedulingProblem]):
        problems = tuple(problems)
        if not problems:
            raise BatchError("cannot batch zero problems")
        families = []
        for index, problem in enumerate(problems):
            ok, reason = batchable(problem)
            if not ok:
                raise BatchError(
                    f"problem {index} is not batchable (reason: {reason})"
                )
            families.append(family_of(problem))
        if len(set(families)) != 1:
            raise BatchError(
                f"mixed utility families in one batch: {sorted(set(families))}"
            )
        slot_counts = {p.slots_per_period for p in problems}
        if len(slot_counts) != 1:
            raise BatchError(
                f"mixed slots_per_period in one batch: {sorted(slot_counts)}"
            )
        self.problems: Tuple[SchedulingProblem, ...] = problems
        self.family: str = families[0]
        self.slots_per_period: int = problems[0].slots_per_period
        self.n_real = np.array(
            [p.num_sensors for p in problems], dtype=np.intp
        )
        self.n_max: int = int(self.n_real.max()) if len(problems) else 0
        self.sensor_mask = (
            np.arange(self.n_max, dtype=np.intp)[None, :]
            < self.n_real[:, None]
        )
        self._specs: List[Dict[str, object]] = [
            _utility_spec(self.family, p.utility) for p in problems
        ]

    # ------------------------------------------------------------------

    @classmethod
    def build(cls, problems: Sequence[SchedulingProblem]) -> "InstanceBatch":
        return cls(problems)

    def __len__(self) -> int:
        return len(self.problems)

    @property
    def size(self) -> int:
        return len(self.problems)

    def spec(self, index: int) -> Dict[str, object]:
        """The captured utility snapshot of member ``index``."""
        return self._specs[index]

    def rebuild_problem(self, index: int) -> SchedulingProblem:
        """Reconstruct member ``index`` from the captured spec.

        The utility is built *fresh* from the snapshot (not the original
        object), so the round-trip property tests genuinely exercise the
        extraction: the rebuilt problem must agree with the original on
        shape, regime and utility values.
        """
        original = self.problems[index]
        return SchedulingProblem(
            num_sensors=original.num_sensors,
            period=original.period,
            utility=_rebuild_utility(self.family, self._specs[index]),
            num_periods=original.num_periods,
        )
