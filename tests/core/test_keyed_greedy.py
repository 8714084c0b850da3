"""The key-ordered greedy must equal the naive greedy, bit for bit.

On the two detection families ``greedy_schedule(lazy=True)`` takes a
key-ordered scan instead of the CELF heap (see the
:mod:`repro.core.greedy` module docstring).  Its claim is exactness,
not closeness: the same placements in the same order, and every
:class:`GreedyStep` gain and running total bit-equal to the literal
Algorithm 1 scan of ``lazy=False``.  The cases below aim at the places
an ordering argument could slip: classes with several members, gains
saturated to ``0.0``, ``p`` at 0 and 1, sensors outside the ground set
or missing from the probability table, and a generated sweep.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import greedy as greedy_module
from repro.core.greedy import GreedyTrace, greedy_schedule
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.target_system import PerSlotUtility

from tests.conftest import UTILITY_FAMILIES, random_problem


def make_problem(utility, n: int, rho: float = 3.0) -> SchedulingProblem:
    return SchedulingProblem(
        num_sensors=n, period=ChargingPeriod.from_ratio(rho), utility=utility
    )


def steps_of(problem: SchedulingProblem, lazy: bool) -> tuple:
    trace = GreedyTrace()
    schedule = greedy_schedule(problem, lazy=lazy, trace=trace)
    # float.hex() makes the comparison bitwise (it tells -0.0 from 0.0).
    steps = [
        (s.order, s.sensor, s.slot, s.gain.hex(), s.total_after.hex())
        for s in trace.steps
    ]
    return steps, list(schedule.assignment.items())


def assert_keyed_equals_naive(problem: SchedulingProblem) -> None:
    keyed = steps_of(problem, lazy=True)
    naive = steps_of(problem, lazy=False)
    assert keyed == naive


@pytest.fixture
def spy(monkeypatch):
    """Record which implementation each ``greedy_schedule`` call ran."""
    calls = []
    for name in ("_run_keyed", "_run_lazy"):
        original = getattr(greedy_module, name)

        def wrapped(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(greedy_module, name, wrapped)
    return calls


class TestDetection:
    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_probabilities_form_classes(self, seed):
        rng = np.random.default_rng(seed)
        palette = rng.uniform(0.05, 0.95, size=4)
        n = 40
        probabilities = {
            v: float(palette[rng.integers(len(palette))]) for v in range(n)
        }
        assert len(set(probabilities.values())) < n
        assert_keyed_equals_naive(
            make_problem(DetectionUtility(probabilities), n)
        )

    def test_distinct_probabilities(self):
        rng = np.random.default_rng(7)
        n = 60
        probabilities = {v: float(rng.uniform(0.2, 0.7)) for v in range(n)}
        assert_keyed_equals_naive(
            make_problem(DetectionUtility(probabilities), n, rho=4.0)
        )

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_extreme_probabilities(self, p):
        n = 12
        assert_keyed_equals_naive(
            make_problem(DetectionUtility({v: p for v in range(n)}), n)
        )

    def test_mixed_zero_one_and_interior(self):
        n = 20
        probabilities = {v: (0.0, 1.0, 0.4, 0.4, 0.9)[v % 5] for v in range(n)}
        assert_keyed_equals_naive(
            make_problem(DetectionUtility(probabilities), n, rho=2.0)
        )

    def test_sensors_missing_from_the_table(self):
        n = 18
        rng = np.random.default_rng(3)
        probabilities = {
            v: float(rng.uniform(0.1, 0.9)) for v in range(n) if v % 3
        }
        probabilities[n + 5] = 0.8  # outside the instance entirely
        assert_keyed_equals_naive(
            make_problem(DetectionUtility(probabilities), n)
        )

    def test_saturating_gains(self):
        # Many p = 1 sensors zero every slot's miss product early, so
        # most placements tie at a gain of exactly 0.0.
        n = 30
        probabilities = {v: 1.0 if v % 2 else 0.7 for v in range(n)}
        assert_keyed_equals_naive(
            make_problem(DetectionUtility(probabilities), n, rho=2.0)
        )


class TestHomogeneousDetection:
    def test_paper_setting(self):
        n = 100
        assert_keyed_equals_naive(
            make_problem(HomogeneousDetectionUtility(range(n), p=0.4), n)
        )

    def test_saturated_gains_at_n_500(self):
        # (1 - 0.9)^k underflows the gain to 0.0 long before n = 500.
        n = 500
        problem = make_problem(HomogeneousDetectionUtility(range(n), p=0.9), n)
        trace = GreedyTrace()
        greedy_schedule(problem, trace=trace)
        assert trace.gains()[-1] == 0.0
        assert_keyed_equals_naive(problem)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_extreme_probabilities(self, p):
        n = 12
        assert_keyed_equals_naive(
            make_problem(HomogeneousDetectionUtility(range(n), p=p), n)
        )

    def test_sensors_outside_the_ground_set(self):
        n = 25
        ground = [v for v in range(n) if v % 4 != 1] + [n + 2]
        assert_keyed_equals_naive(
            make_problem(HomogeneousDetectionUtility(ground, p=0.5), n)
        )

    def test_empty_ground_set(self):
        n = 9
        assert_keyed_equals_naive(
            make_problem(HomogeneousDetectionUtility([], p=0.5), n)
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    rho=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    palette=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 0.5]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=6,
    ),
    picks=st.lists(st.integers(min_value=-1, max_value=5), max_size=40),
)
def test_generated_detection_sweep(n, rho, palette, picks):
    """``-1`` picks leave a sensor out of the table; others index the
    palette, so small palettes force multi-member classes."""
    probabilities = {}
    for v in range(n):
        pick = picks[v] if v < len(picks) else v
        if pick >= 0:
            probabilities[v] = palette[pick % len(palette)]
    assert_keyed_equals_naive(
        make_problem(DetectionUtility(probabilities), n, rho)
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    rho=st.sampled_from([1.0, 2.0, 3.0, 5.0]),
    p=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 0.4, 0.9]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    outside=st.sets(st.integers(min_value=0, max_value=39), max_size=10),
)
def test_generated_homogeneous_sweep(n, rho, p, outside):
    ground = [v for v in range(n) if v not in outside]
    assert_keyed_equals_naive(
        make_problem(HomogeneousDetectionUtility(ground, p=p), n, rho)
    )


class TestDispatch:
    @pytest.mark.parametrize(
        "family", ["homogeneous-detection", "detection"]
    )
    def test_detection_families_take_the_keyed_path(self, spy, family):
        greedy_schedule(random_problem(seed=1, rho=2.0, family=family))
        assert spy == ["_run_keyed"]

    @pytest.mark.parametrize(
        "family",
        [
            f
            for f in UTILITY_FAMILIES
            if f not in ("homogeneous-detection", "detection")
        ],
    )
    def test_other_families_keep_celf(self, spy, family):
        greedy_schedule(random_problem(seed=1, rho=2.0, family=family))
        assert spy == ["_run_lazy"]

    def test_slot_utilities_override_keeps_celf(self, spy):
        n = 6
        fn = HomogeneousDetectionUtility(range(n), p=0.4)
        problem = make_problem(fn, n, rho=2.0)
        override = PerSlotUtility.uniform(fn, problem.slots_per_period)
        greedy_schedule(problem, slot_utilities=override)
        assert spy == ["_run_lazy"]

    def test_subclass_keeps_celf(self, spy):
        class Scaled(DetectionUtility):
            pass

        greedy_schedule(make_problem(Scaled({0: 0.5, 1: 0.5}), 2))
        assert spy == ["_run_lazy"]

    def test_naive_stays_naive(self, spy):
        greedy_schedule(
            random_problem(seed=1, rho=2.0, family="detection"), lazy=False
        )
        assert spy == []
