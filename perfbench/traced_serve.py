"""Run ``repro serve`` with spans around each serving layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_serve.py SPANS_OUT serve --port 0

Every wrapper is installed before the CLI builds ``SolveService``, at
the name its caller looks up.  The CLI then runs unchanged, with its
shipped defaults; when it returns (SIGTERM drains the service) the
spans are written to ``SPANS_OUT`` as JSON lines.
"""

from __future__ import annotations

import sys

from spans import Recorder

#: Greedy variants whose marginal evaluations a solve performs
#: (session repairs count under other variants).
SOLVE_VARIANTS = ("lazy", "naive", "batched", "passive-lazy", "passive-naive")


def install(recorder: Recorder) -> None:
    import repro.runtime.executor as executor
    import repro.serve.batcher as batcher
    from repro.obs.registry import get_registry
    from repro.runtime.cache import ScheduleCache
    from repro.serve import schemas
    from repro.serve.handlers import ServiceRequestHandler
    from repro.sessions.session import Session
    from repro.sessions.store import SessionStore

    def gain_evals() -> float:
        registry = get_registry()
        return sum(
            registry.counter(
                "repro_greedy_marginal_evals_total", variant=variant
            ).value
            for variant in SOLVE_VARIANTS
        )

    def note_evals(extra, result, args, before):
        extra["evals"] = gain_evals() - before

    def note_batch(extra, result, args, before):
        note_evals(extra, result, args, before)
        extra["problems"] = len(args[0])

    def note_get(extra, result, args, before):
        extra["hit"], extra["peek"] = result is not None, False

    def note_peek(extra, result, args, before):
        extra["hit"], extra["peek"] = result is not None, True

    def note_resolve(extra, result, args, before):
        extra["resolve"] = result.resolve

    for method in ("do_GET", "do_POST"):
        recorder.wrap(ServiceRequestHandler, method, "serve.http")
    for name in ("parse_solve_request", "parse_session_delta"):
        recorder.wrap(schemas, name, "serve.parse")
    for name in (
        "solve_response",
        "session_delta_response",
        "session_schedule_response",
        "encode",
    ):
        recorder.wrap(schemas, name, "serve.encode")
    recorder.link_batch(batcher.SolveBatcher, batcher)
    recorder.wrap(ScheduleCache, "get", "runtime.cache.lookup", note_get)
    recorder.wrap(ScheduleCache, "peek", "runtime.cache.lookup", note_peek)
    recorder.wrap(ScheduleCache, "put", "runtime.cache.put")
    recorder.wrap(
        executor, "solve_batch", "batched.solve_batch", note_batch, gain_evals
    )
    recorder.wrap(executor, "solve", "core.solve", note_evals, gain_evals)
    recorder.wrap(Session, "apply", "sessions.apply", note_resolve)
    recorder.wrap_context(SessionStore, "checkout", "sessions.checkout_wait")


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    from repro.cli import main as cli_main

    recorder = Recorder()
    install(recorder)
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
