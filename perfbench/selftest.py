"""Fast self-test of the benchmark's own checks.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires
its output checks (and the traced accounting check) to pass.  Then it
corrupts one solve reply, one session schedule and one slot utility and
requires the checks to catch each.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import common

TINY_SECONDS = 1.5
TINY_SCALE = 0.1
TINY_FLEET = 2_000


def _expect(condition: bool, message: str, failures: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def _corrupt_solve(op) -> bool:
    """Nudge the reported total utility by one part in 10^9."""
    reply = json.loads(op.reply)
    reply["result"]["total_utility"] *= 1.0 + 1e-9
    op.reply = json.dumps(reply).encode()
    return True


def _corrupt_session(op) -> bool:
    """Place a failed sensor in the schedule; False if none is failed."""
    reply = json.loads(op.reply)
    failed = reply["session"]["failed"]
    if not failed:
        return False
    reply["result"]["schedule"]["assignment"][str(failed[0])] = 0
    op.reply = json.dumps(reply).encode()
    return True


def main() -> int:
    common.require_source()
    import fleet
    import serve_load

    failures: list = []
    scratch = common.scratch_dir()
    try:
        for name in serve_load.WORKLOADS:
            for trace in (False, True):
                outcome = serve_load.run(name, 3, TINY_SECONDS, scratch, trace, scale=TINY_SCALE)
                _expect(
                    not outcome.check_failures and outcome.attempted > 0 and not outcome.failed,
                    f"{name} (trace={int(trace)}): {outcome.attempted} ops pass their checks "
                    f"{outcome.check_failures[:3]}",
                    failures,
                )

        rng = np.random.default_rng(5)
        for name, corrupt, label in (
            ("serve-small", _corrupt_solve, "a solve reply"),
            ("serve-sessions", _corrupt_session, "a session schedule"),
        ):
            workload = serve_load.WORKLOADS[name]
            server, specs, _ = serve_load._set_up(workload, scratch, 9, 4, TINY_SCALE)
            try:
                ops, _, _ = serve_load._phase(workload, server, 4, TINY_SCALE, specs, TINY_SECONDS)
            finally:
                server.stop()
            answered = [op for op in ops if op.status == 200]
            _expect(not workload.check(answered, rng), f"{name}: intact replies pass", failures)
            target = next((op for op in reversed(answered) if corrupt(op)), None)
            _expect(
                target is not None and bool(workload.check([target], rng)),
                f"{name}: corrupting {label} is caught",
                failures,
            )
    finally:
        common.remove_scratch(scratch)

    for trace in (False, True):
        outcome = fleet.run(3, TINY_SECONDS, trace, sensors=TINY_FLEET)
        _expect(
            not outcome.check_failures and outcome.attempted > 0,
            f"fleet-city (trace={int(trace)}): {outcome.attempted} slots pass their checks "
            f"{outcome.check_failures[:3]}",
            failures,
        )
    scenario, engine = fleet.set_up(3, TINY_FLEET)
    _, samples = fleet.step(engine, 0.5, np.random.default_rng(1))
    T = scenario.period.slots_per_period
    _expect(not fleet.check_slots(samples, scenario.utility, T), "fleet-city: intact slots pass", failures)
    slot, active, value = samples[-1]
    _expect(
        bool(fleet.check_slots([(slot, active, value + 1e-9)], scenario.utility, T)),
        "fleet-city: corrupting a slot utility is caught",
        failures,
    )
    stray = next(v for v in range(scenario.num_sensors) if v % T != slot % T)
    _expect(
        bool(fleet.check_slots([(slot, active | {stray}, value)], scenario.utility, T)),
        "fleet-city: a sensor active outside its round-robin slot is caught",
        failures,
    )
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
