"""Per-layer metrics of a traced run, and the accounting check.

Every traced run reports every name in :data:`PER_LAYER`; a layer the
workload does not exercise reads 0.  Times are self times per operation
(a request, or a simulated slot), so on each workload the rows of its
operation plus ``serve.unaccounted_ms`` (or ``sim.other_ms``) add up to
the client-observed wall time.  :func:`check_accounts` verifies that
sum against the wall time measured by the load generator, within
:data:`ACCOUNTING_TOLERANCE`.
"""

from __future__ import annotations

from typing import Dict, List

from common import Outcome
from spans import Span, layer_table

#: name -> unit, in report order.
PER_LAYER: Dict[str, str] = {
    "serve.http_ms": "ms",
    "serve.parse_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.fastpath_ratio": "ratio",
    "serve.unaccounted_ms": "ms",
    "runtime.cache.lookup_ms": "ms",
    "runtime.cache.hit_ratio": "ratio",
    "runtime.cache.put_ms": "ms",
    "runtime.executor.solve_many_ms": "ms",
    "runtime.executor.batched_share": "ratio",
    "batched.solve_batch_ms": "ms",
    "core.solve_ms": "ms",
    "core.gain_evals_per_solve": "count",
    "sessions.apply_ms": "ms",
    "sessions.checkout_wait_ms": "ms",
    "sessions.warm_ratio": "ratio",
    "sim.policy_ms": "ms",
    "sim.energy_ms": "ms",
    "sim.utility_ms": "ms",
    "sim.other_ms": "ms",
    "setup.scenario_s": "s",
    "setup.coverage_sets_s": "s",
    "setup.network_s": "s",
    "trace.accounting_error": "ratio",
    "trace.overhead_fraction": "ratio",
}

#: Largest |sum of rows - measured wall| / measured wall accepted.
ACCOUNTING_TOLERANCE = 0.02

#: Span name -> the row holding its self time (serve and runtime).
SERVE_ROWS = {
    "serve.http": "serve.http_ms",
    "serve.parse": "serve.parse_ms",
    "serve.encode": "serve.encode_ms",
    "serve.queue_wait": "serve.queue_wait_ms",
    "runtime.cache.lookup": "runtime.cache.lookup_ms",
    "runtime.cache.put": "runtime.cache.put_ms",
    "runtime.executor.solve_many": "runtime.executor.solve_many_ms",
    "batched.solve_batch": "batched.solve_batch_ms",
    "core.solve": "core.solve_ms",
    "sessions.apply": "sessions.apply_ms",
    "sessions.checkout_wait": "sessions.checkout_wait_ms",
}

SIM_ROWS = {
    "sim.slot": "sim.other_ms",
    "sim.policy": "sim.policy_ms",
    "sim.energy": "sim.energy_ms",
    "sim.utility": "sim.utility_ms",
}

SETUP_ROWS = {
    "setup.scenario": "setup.scenario_s",
    "setup.coverage_sets": "setup.coverage_sets_s",
    "setup.network": "setup.network_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _distinct(spans: List[Span]) -> List[Span]:
    seen = {}
    for span in spans:
        seen[span[0]] = span
    return list(seen.values())


def check_accounts(outcome: Outcome, what: str, rows: List[str], wall: float, count: int) -> None:
    """Compare the sum of ``rows`` with the measured mean wall time per
    op (same unit); record the error and fail the check beyond the
    tolerance."""
    total = sum(outcome.metrics[row][0] for row in rows)
    error = abs(total - wall) / wall if wall else 0.0
    previous = outcome.metrics.get("trace.accounting_error", (0.0,))[0]
    outcome.metric("trace.accounting_error", max(previous, error), "ratio")
    outcome.notes.append(
        f"accounting {what}: rows sum {total:.6g} vs measured {wall:.6g} per op "
        f"over {count} ops (error {error:.2%}, tolerance {ACCOUNTING_TOLERANCE:.0%})"
    )
    if error > ACCOUNTING_TOLERANCE:
        outcome.fail_check(f"accounting {what}: error {error:.2%} over tolerance")


def serve_table(outcome: Outcome, spans: List[Span], ops, start: float, end: float) -> None:
    """Per-request rows for the ops of one traced HTTP phase."""
    roots = [s for s in spans if s[1] == "serve.http" and start <= s[3] and s[4] <= end]
    count = len(roots)
    if count != len(ops):
        outcome.fail_check(f"{count} server request spans for {len(ops)} client requests")
    totals, counted = layer_table(spans, [s[0] for s in roots])
    for name, row in SERVE_ROWS.items():
        outcome.metric(row, _ratio(totals.get(name, 0.0), count) * 1000.0, "ms")
    client_wall = sum(op.end - op.start for op in ops)
    server_wall = sum(s[4] - s[3] for s in roots)
    outcome.metric("serve.unaccounted_ms", _ratio(client_wall - server_wall, count) * 1000.0, "ms")

    batches = _distinct(counted.get("runtime.executor.solve_many", []))
    submits = _distinct(counted.get("serve.queue_wait", []))
    riders = {m for batch in batches for m in batch[5]["members"]}
    outcome.metric("serve.batch_size", _ratio(sum(b[5]["size"] for b in batches), len(batches)), "count")
    outcome.metric(
        "serve.fastpath_ratio",
        _ratio(sum(1 for s in submits if s[0] not in riders), len(submits)),
        "ratio",
    )
    lookups = _distinct(counted.get("runtime.cache.lookup", []))
    hits = sum(1 for s in lookups if s[5]["hit"])
    # A peek that misses is followed by the batch's own get; count it
    # once, as the cache's own statistics do.
    misses = sum(1 for s in lookups if not s[5]["hit"] and not s[5]["peek"])
    outcome.metric("runtime.cache.hit_ratio", _ratio(hits, hits + misses), "ratio")
    batched = _distinct(counted.get("batched.solve_batch", []))
    solves = _distinct(counted.get("core.solve", []))
    batched_problems = sum(s[5]["problems"] for s in batched)
    unique = batched_problems + len(solves)
    outcome.metric("runtime.executor.batched_share", _ratio(batched_problems, unique), "ratio")
    outcome.metric(
        "core.gain_evals_per_solve",
        _ratio(sum(s[5]["evals"] for s in batched + solves), unique),
        "count",
    )
    applies = _distinct(counted.get("sessions.apply", []))
    outcome.metric(
        "sessions.warm_ratio",
        _ratio(sum(1 for s in applies if s[5]["resolve"] == "warm"), len(applies)),
        "ratio",
    )
    check_accounts(
        outcome,
        "request",
        list(SERVE_ROWS.values()) + ["serve.unaccounted_ms"],
        _ratio(client_wall, count) * 1000.0,
        count,
    )


def sim_table(outcome: Outcome, spans: List[Span], slot_walls: List[float],
              setup_walls: List[float]) -> None:
    """Per-slot rows for the traced slots, and per-set-up rows."""
    slots = [s for s in spans if s[1] == "sim.slot"]
    totals, _ = layer_table(spans, [s[0] for s in slots])
    for name, row in SIM_ROWS.items():
        outcome.metric(row, _ratio(totals.get(name, 0.0), len(slots)) * 1000.0, "ms")
    check_accounts(
        outcome, "slot", list(SIM_ROWS.values()), _ratio(sum(slot_walls), len(slot_walls)) * 1000.0,
        len(slot_walls),
    )
    roots = [s for s in spans if s[1] in ("setup.scenario", "setup.network")]
    totals, _ = layer_table(spans, [s[0] for s in roots])
    for name, row in SETUP_ROWS.items():
        outcome.metric(row, _ratio(totals.get(name, 0.0), len(setup_walls)), "s")
    check_accounts(
        outcome, "set-up", list(SETUP_ROWS.values()), _ratio(sum(setup_walls), len(setup_walls)),
        len(setup_walls),
    )


def finish(outcome: Outcome, overhead: float) -> None:
    """Add the overhead and zero-fill the layers this workload skips."""
    outcome.metric("trace.overhead_fraction", overhead, "ratio")
    for name, unit in PER_LAYER.items():
        if name not in outcome.metrics:
            outcome.metric(name, 0.0, unit)
    outcome.metrics = {name: outcome.metrics[name] for name in PER_LAYER}
