"""Property tests for :class:`repro.batched.batch.InstanceBatch`.

The batch structure makes three promises the kernels build on: the
padding geometry is exact (mask rows count the real sensors and nothing
else), the captured utility specs are deep enough to rebuild each
member from scratch (the round-trip tests solve both and compare
bytes), and ineligible or mixed-shape inputs are rejected with the
reason labels the executor's fallback counter carries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batched.batch import (
    BatchError,
    InstanceBatch,
    batchable,
    family_of,
)
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.utility.detection import HomogeneousDetectionUtility
from repro.utility.target_system import TargetSystem

from tests.batched.test_differential_batched import result_bytes
from tests.conftest import (
    BATCH_FAMILIES,
    SERIAL_FAMILIES,
    random_batch_problems,
    random_problem,
)


def build(family, sizes, seed=3, rho=2.0):
    return InstanceBatch.build(
        random_batch_problems(seed=seed, family=family, sizes=sizes, rho=rho)
    )


class TestPaddingInvariants:
    @pytest.mark.parametrize("family", BATCH_FAMILIES)
    def test_mask_counts_exactly_the_real_sensors(self, family):
        sizes = (3, 1, 6, 2)
        batch = build(family, sizes)
        assert batch.n_max == max(sizes)
        assert batch.n_real.tolist() == list(sizes)
        assert batch.sensor_mask.shape == (len(sizes), max(sizes))
        assert batch.sensor_mask.sum(axis=1).tolist() == list(sizes)

    def test_mask_is_a_prefix_per_row(self):
        batch = build("logsum", (2, 5, 0))
        for i, n in enumerate((2, 5, 0)):
            row = batch.sensor_mask[i]
            assert row[:n].all()
            assert not row[n:].any()

    def test_uniform_batch_has_no_padding(self):
        batch = build("logsum", (4, 4, 4))
        assert bool(batch.sensor_mask.all())

    def test_all_empty_batch_has_zero_width(self):
        batch = build("weighted-coverage", (0, 0))
        assert batch.n_max == 0
        assert batch.sensor_mask.shape == (2, 0)

    def test_size_and_len_agree(self):
        batch = build("logsum", (1, 2, 3))
        assert len(batch) == batch.size == 3

    def test_mask_dtype_is_bool(self):
        batch = build("logsum", (1, 3))
        assert batch.sensor_mask.dtype == np.bool_


class TestRoundTrip:
    @pytest.mark.parametrize("family", BATCH_FAMILIES)
    def test_rebuilt_problem_solves_identically(self, family):
        """Problem -> batch -> rebuilt problem is solve-equivalent.

        The rebuilt utility comes from the captured spec, not the
        original object, so byte-equal solves prove the spec captured
        everything the solver can observe.
        """
        sizes = (4, 2, 5)
        batch = build(family, sizes, seed=11, rho=3.0)
        for i in range(batch.size):
            rebuilt = batch.rebuild_problem(i)
            original = batch.problems[i]
            assert rebuilt.utility is not original.utility
            assert rebuilt.num_sensors == original.num_sensors
            assert rebuilt.slots_per_period == original.slots_per_period
            assert rebuilt.num_periods == original.num_periods
            assert result_bytes(solve(rebuilt, method="greedy")) == (
                result_bytes(solve(original, method="greedy"))
            )

    @pytest.mark.parametrize("family", BATCH_FAMILIES)
    def test_rebuilt_utility_agrees_on_random_subsets(self, family):
        batch = build(family, (5,), seed=13, rho=2.0)
        original = batch.problems[0].utility
        rebuilt = batch.rebuild_problem(0).utility
        rng = np.random.default_rng(99)
        for _ in range(20):
            subset = frozenset(
                int(v) for v in np.flatnonzero(rng.random(5) < 0.5)
            )
            assert rebuilt.value(subset) == original.value(subset)


class TestEligibility:
    def test_dense_regime_rejected_with_rho_reason(self):
        problem = random_problem(seed=5, rho=0.5, family="logsum")
        ok, reason = batchable(problem)
        assert (ok, reason) == (False, "rho")

    def test_eligible_problem_reports_ok(self):
        problem = random_problem(seed=5, rho=2.0, family="logsum")
        assert batchable(problem) == (True, "ok")

    @pytest.mark.parametrize("family", SERIAL_FAMILIES)
    def test_detection_families_have_no_kernel(self, family):
        problem = random_problem(seed=5, rho=2.0, family=family)
        assert family_of(problem) is None
        assert batchable(problem) == (False, "family")

    def test_unsupported_family_rejected(self):
        # A target system with homogeneous children defeats the fast
        # per-target probability gather, mirroring the serial
        # evaluator's own fast-kernel gate.
        system = TargetSystem(
            [frozenset({0, 1})],
            [HomogeneousDetectionUtility(range(2), p=0.4)],
        )
        problem = SchedulingProblem(
            num_sensors=2,
            period=ChargingPeriod.from_ratio(2.0),
            utility=system,
        )
        assert family_of(problem) is None
        assert batchable(problem) == (False, "family")

    def test_plain_target_system_is_supported(self):
        problem = random_problem(seed=6, rho=2.0, family="target-system")
        assert family_of(problem) == "target-system"
        assert batchable(problem) == (True, "ok")


class TestBuildRejections:
    def test_zero_problems(self):
        with pytest.raises(BatchError, match="zero problems"):
            InstanceBatch.build([])

    def test_mixed_families(self):
        mixed = random_batch_problems(
            seed=7, family="weighted-coverage", sizes=(3,), rho=2.0
        ) + random_batch_problems(
            seed=7, family="logsum", sizes=(3,), rho=2.0
        )
        with pytest.raises(BatchError, match="mixed utility families"):
            InstanceBatch.build(mixed)

    def test_mixed_slot_counts(self):
        mixed = random_batch_problems(
            seed=8, family="logsum", sizes=(3,), rho=3.0
        ) + random_batch_problems(
            seed=8, family="logsum", sizes=(3,), rho=2.0
        )
        assert mixed[0].slots_per_period != mixed[1].slots_per_period
        with pytest.raises(BatchError, match="mixed slots_per_period"):
            InstanceBatch.build(mixed)

    def test_ineligible_member_named_by_position(self):
        good = random_batch_problems(
            seed=9, family="logsum", sizes=(3,), rho=2.0
        )
        bad = random_problem(seed=9, rho=0.5, family="logsum")
        with pytest.raises(BatchError, match=r"problem 1 .*rho"):
            InstanceBatch.build(good + [bad])
