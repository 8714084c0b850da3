"""The ``fleet-city`` workload: a 10^5-sensor city fleet, in process.

Set-up builds :func:`repro.sim.cityscale.city_scenario` (coverage sets
through the spatial index), the :class:`~repro.sim.network.SensorNetwork`
and a :class:`~repro.sim.engine.SimulationEngine` on the default
(vectorized) path.  The timed phase then steps the scenario's
round-robin schedule one slot at a time.

Each slot is one ``advance(1)``; every :data:`CHUNK` slots a fresh
``run(1)`` restarts the accumulation (the network state carries on), so
stored slot records stay bounded however many slots a run reaches.
Sampled slots are kept for the output check.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext
from typing import Any, List, Tuple

import numpy as np

from common import SETUP_REPEATS, Outcome, beyond_p95, median, percentile

SENSORS = 100_000
#: Weather/demand districts per side (about 1,000 sensors per district).
#: The generator's default 4 x 4 grid let one seed's weather mix move
#: the number of nodes awake per slot by +-10%; 10 x 10 keeps it within
#: a few percent, so slot cost follows the program, not the seed.
DISTRICTS = 10
#: Slots per accumulation; bounds the slot records held in memory.
CHUNK = 50
#: Slots per chunk kept for the output check.
SAMPLES_PER_CHUNK = 2

Sample = Tuple[int, frozenset, float]


def set_up(seed: int, sensors: int, recorder=None):
    """Scenario, network and engine; spans when ``recorder`` is given."""
    from repro.policies.schedule_policy import SchedulePolicy
    from repro.sim.cityscale import city_scenario
    from repro.sim.engine import SimulationEngine
    from repro.sim.network import SensorNetwork

    timed = recorder.span if recorder is not None else _untimed
    with timed("setup.scenario"):
        scenario = city_scenario(sensors, districts=DISTRICTS, seed=seed)
    with timed("setup.network"):
        network = SensorNetwork(
            num_sensors=scenario.num_sensors,
            period=scenario.period,
            utility=scenario.utility,
            node_periods=scenario.node_periods,
        )
        engine = SimulationEngine(network, SchedulePolicy(scenario.round_robin_schedule()))
    return scenario, engine


def _untimed(name: str) -> nullcontext:
    return nullcontext()


def step(engine, seconds: float, rng: np.random.Generator, recorder=None) -> Tuple[List[float], List[Sample]]:
    """Step slots for ``seconds``; returns per-slot wall times and the
    sampled ``(slot, active set, utility)`` records."""
    walls: List[float] = []
    samples: List[Sample] = []
    result = None

    def keep(records) -> None:
        picks = rng.choice(len(records), size=min(SAMPLES_PER_CHUNK, len(records)), replace=False)
        for i in sorted(picks):
            record = records[int(i)]
            samples.append((record.slot, record.active_set, record.utility))

    timed = recorder.span if recorder is not None else _untimed
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        fresh = len(walls) % CHUNK == 0
        if fresh and result is not None:
            keep(result.accumulator.records)
        start = time.perf_counter()
        with timed("sim.slot"):
            result = engine.run(1) if fresh else engine.advance(1)
        walls.append(time.perf_counter() - start)
    if result is not None:
        keep(result.accumulator.records)
    return walls, samples


def check_slots(samples: List[Sample], utility: Any, slots_per_period: int) -> List[str]:
    """Recompute each sampled slot's utility from its active set through
    the utility's public ``value``; every active sensor must have been
    commanded in that slot by the round-robin schedule."""
    failures = []
    for slot, active, value in samples:
        if any(v % slots_per_period != slot % slots_per_period for v in active):
            failures.append(f"slot {slot}: active sensors outside the slot's round-robin share")
            continue
        recomputed = utility.value(active)
        if recomputed != value:
            failures.append(f"slot {slot}: utility {value!r} != recomputed {recomputed!r}")
    return failures


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _account(outcome: Outcome, scenario, walls: List[float], samples: List[Sample]) -> None:
    failures = check_slots(samples, scenario.utility, scenario.period.slots_per_period)
    outcome.attempted += len(walls)
    outcome.failed += len(failures)
    for message in failures:
        outcome.fail_check(message)


def run(seed: int, seconds: float, trace: bool, sensors: int = SENSORS) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng([seed, 7])
    if trace:
        return _run_traced(seed, seconds, sensors, rng, outcome)
    setups = []
    scenario = engine = None
    for _ in range(SETUP_REPEATS):
        scenario = engine = None
        gc.collect()
        start = time.perf_counter()
        scenario, engine = set_up(seed, sensors)
        setups.append(time.perf_counter() - start)
    walls, samples = step(engine, seconds, rng)
    _account(outcome, scenario, walls, samples)
    latencies = [w * 1000.0 for w in walls]
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("p50_ms", percentile(latencies, 50), "ms", "slot_p50_ms")
    outcome.metric("p95_ms", percentile(latencies, 95), "ms", "slot_p95_ms")
    outcome.metric("ops_per_s", len(walls) / sum(walls), "1/s", "slots_per_s")
    outcome.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    outcome.metric("ok_fraction", 1.0 - outcome.failed / max(1, outcome.attempted), "ratio",
                   "1 - failed_fraction")
    outcome.notes.append(
        f"{len(walls)} slots of {sensors} sensors, {beyond_p95(len(walls))} beyond p95; "
        f"{len(samples)} slots checked; setups {['%.3f' % s for s in setups]} s; "
        f"failed_fraction {outcome.failed / max(1, outcome.attempted):.6g}"
    )
    return outcome


def install(recorder) -> None:
    """Spans around the per-slot layers and the coverage step of set-up."""
    import repro.sim.cityscale as cityscale
    from repro.policies.schedule_policy import SchedulePolicy
    from repro.sim.metrics import UtilityAccumulator
    from repro.sim.soa import NodeArrays

    recorder.wrap(SchedulePolicy, "decide", "sim.policy")
    recorder.wrap(NodeArrays, "step_all", "sim.energy")
    recorder.wrap(NodeArrays, "active_frozenset", "sim.energy")
    recorder.wrap(UtilityAccumulator, "record", "sim.utility")
    recorder.wrap(cityscale, "coverage_sets", "setup.coverage_sets")


def _run_traced(seed: int, seconds: float, sensors: int, rng: np.random.Generator,
                outcome: Outcome) -> Outcome:
    """Traced set-up, then half the time untraced and half traced on
    the same engine; per-layer numbers come from the traced spans."""
    import layers
    from spans import Recorder

    recorder = Recorder()
    install(recorder)
    start = time.perf_counter()
    scenario, engine = set_up(seed, sensors, recorder)
    setup_wall = time.perf_counter() - start
    recorder.uninstall()
    plain_walls, plain_samples = step(engine, seconds / 2.0, rng)
    install(recorder)
    traced_walls, traced_samples = step(engine, seconds / 2.0, rng, recorder)
    recorder.uninstall()
    _account(outcome, scenario, plain_walls + traced_walls, plain_samples + traced_samples)
    layers.sim_table(outcome, recorder.spans, traced_walls, [setup_wall])
    plain = sum(plain_walls) / len(plain_walls)
    traced = sum(traced_walls) / len(traced_walls)
    layers.finish(outcome, traced / plain - 1.0)
    return outcome
