"""The HTTP workloads: a ``repro serve`` process under closed-loop load.

The service runs as its own process with the CLI's shipped defaults
(linger, cache, jobs, every ``REPRO_*`` toggle as the environment sets
it).  Only the cache directory is pointed into the run's scratch space,
fresh for each server, so a run starts cold and writes nowhere else.

The load comes from this one process: one thread and one keep-alive
connection per lane, two lanes (the box has two cores).  A lane sends
its next request only after the previous reply arrived -- the callers of
this service, planners and fleet controllers, wait for their plan
before asking again.  Request bodies come from the workload seed alone.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import ROOT, SETUP_REPEATS, SRC, Outcome, beyond_p95, median, percentile

LANES = 2
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0

# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve --port 0`` process (optionally span-traced)."""

    def __init__(self, scratch: Path, index: int, spans_out: Optional[Path] = None):
        self.log_path = scratch / f"server-{index}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_CACHE_DIR"] = str(scratch / f"cache-{index}")
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"), str(spans_out)]
        command += ["serve", "--port", "0"]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            marker = text.find("serving on http://")
            if marker >= 0 and "\n" in text[marker:]:
                address = text[marker:].split("\n", 1)[0].split("http://", 1)[1]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                status, _ = Client(self.host, self.port).call("GET", "/healthz")
                if status == 200:
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not become ready; log:\n{self.log_path.read_text()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn: Optional[http.client.HTTPConnection] = None

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 when the transport failed."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return 0, repr(error).encode()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# ----------------------------------------------------------------------
# Request generation
# ----------------------------------------------------------------------


def coverage_doc(rng: np.random.Generator, n: int) -> Dict[str, Any]:
    """A deployment-derived weighted-coverage utility document: ``n``
    sensors and ``n // 5`` weighted targets, uniform over a square sized
    so a target lies within sensing range of about five sensors."""
    from repro.coverage.deployment import uniform_deployment
    from repro.coverage.geometry import Rectangle
    from repro.coverage.matrix import coverage_sets
    from repro.coverage.sensing import DiskSensingModel
    from repro.io.serialization import utility_to_dict
    from repro.utility.coverage_count import WeightedCoverageUtility

    targets = max(1, n // 5)
    side = float(np.sqrt(n * np.pi / 5.0))
    deployment = uniform_deployment(
        n, num_targets=targets, region=Rectangle.square(side), rng=rng
    )
    covers: Dict[int, List[int]] = {v: [] for v in range(n)}
    for target, sensors in enumerate(coverage_sets(deployment, DiskSensingModel(radius=1.0))):
        for v in sensors:
            covers[v].append(target)
    weights = {t: float(rng.uniform(0.5, 2.0)) for t in range(targets)}
    return utility_to_dict(WeightedCoverageUtility(covers, element_weights=weights))


def small_body(rng: np.random.Generator) -> Dict[str, Any]:
    """``serve-small``: n = 8-32 over four utility families."""
    n = int(rng.integers(8, 33))
    family = int(rng.integers(4))
    if family == 0:
        utility: Dict[str, Any] = {"p": float(rng.uniform(0.2, 0.7))}
    elif family == 1:
        utility = {
            "kind": "detection",
            "probabilities": {str(v): float(rng.uniform(0.2, 0.7)) for v in range(n)},
        }
    elif family == 2:
        utility = {
            "kind": "logsum",
            "weights": {str(v): float(rng.uniform(0.5, 2.0)) for v in range(n)},
        }
    else:
        elements = max(3, n)
        utility = {
            "kind": "weighted-coverage",
            "covers": {
                str(v): sorted(
                    int(e) for e in rng.choice(elements, size=int(rng.integers(1, 4)), replace=False)
                )
                for v in range(n)
            },
            "element_weights": {str(e): float(rng.uniform(0.5, 2.0)) for e in range(elements)},
        }
    rho = int(rng.integers(2, 5))
    return {"problem": {"num_sensors": n, "rho": rho, "utility": utility}, "method": "greedy"}


#: One block of ``solve-paper`` requests as (family, n range).  Each
#: lane sends shuffled copies of the block, so every run meets the same
#: mix: half homogeneous detection over n = 200-500, the rest split
#: between heterogeneous detection and deployment-derived weighted
#: coverage over n = 150-500, each family's range cut into strata.
PAPER_BLOCK = (
    ("homogeneous", 200, 275),
    ("homogeneous", 275, 350),
    ("homogeneous", 350, 425),
    ("homogeneous", 425, 501),
    ("detection", 150, 325),
    ("detection", 325, 501),
    ("coverage", 150, 325),
    ("coverage", 325, 501),
)

#: Positions per block at which the two lanes send the same family:
#: 3 of 8 is what independent shuffles give on average.  The batcher
#: can only batch same-family requests, and two closed-loop lanes
#: stay in step (each batch takes one request from each), so the block
#: orders decide which requests share a batch.  The orders are a fixed
#: plan, the same for every seed: every run meets the same pairs and
#: the seed picks the instances.  With seeded orders the share of fast
#: (batched) and slow pairs moved from run to run, and the median
#: latency, which falls between the two, moved by a quarter.
PAPER_MATCHES = 3
#: Seeds the pairing plan (not the workload seed).
PLAN_SEED = 2011


def paper_body(rng: np.random.Generator, family: str, low: int, high: int,
               scale: float = 1.0) -> Dict[str, Any]:
    """``solve-paper``: the paper's Sec. VI setting, rho = 3 (T = 4);
    homogeneous detection draws p in [0.3, 0.5].  ``scale`` shrinks n
    for the self-test."""
    n = max(4, int(int(rng.integers(low, high)) * scale))
    if family == "homogeneous":
        utility: Dict[str, Any] = {"p": float(rng.uniform(0.3, 0.5))}
    elif family == "detection":
        utility = {
            "kind": "detection",
            "probabilities": {str(v): float(rng.uniform(0.2, 0.6)) for v in range(n)},
        }
    else:
        utility = coverage_doc(rng, n)
    return {"problem": {"num_sensors": n, "rho": 3, "utility": utility}, "method": "greedy"}


def paired_blocks(lane: int, block: Tuple[Tuple[Any, ...], ...], matches: int,
                  build: Callable[..., Dict[str, Any]]) -> Callable:
    """A body maker walking shuffled copies of ``block``, calling
    ``build(rng, *shape)`` per shape.  Block ``b``'s two orders are drawn
    from ``b`` alone and agree in family at exactly ``matches``
    positions."""
    queue: List[Tuple[Any, ...]] = []
    count = [0]

    def orders(index: int) -> Tuple[List[int], List[int]]:
        rng = np.random.default_rng([PLAN_SEED, index])
        first = [int(i) for i in rng.permutation(len(block))]
        while True:
            second = [int(i) for i in rng.permutation(len(block))]
            same = sum(block[a][0] == block[b][0] for a, b in zip(first, second))
            if same == matches:
                return first, second

    def make(rng: np.random.Generator) -> Dict[str, Any]:
        if not queue:
            order = orders(count[0])[lane]
            count[0] += 1
            queue.extend(block[i] for i in reversed(order))
        return build(rng, *queue.pop())

    return make


# ----------------------------------------------------------------------
# Lanes: closed-loop request streams
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One request as sent and answered."""

    path: str
    body: Optional[bytes]
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    reply: bytes = b""
    context: Any = None  # what the check needs to know


#: New request bodies a solve lane builds per second of the timed phase
#: before the phase starts (above the rate served today: about 12 new
#: bodies a second per lane on serve-small, 5 on solve-paper).
#: Building a body can take milliseconds; done in the timed phase it
#: would delay one lane's send, so the two lanes would drift out of step
#: and batch differently from run to run.
PREFILL_PER_SECOND = 15


class SolveLane:
    """``POST /v1/solve`` bodies; ``repeat_share`` of them resend an
    instance this lane sent earlier.  The first ``prefill`` new bodies
    are built up front; the lane builds more on the fly if it runs out."""

    def __init__(self, rng: np.random.Generator, make: Callable, repeat_share: float, prefill: int):
        self.rng, self.make, self.repeat_share = rng, make, repeat_share
        self.fresh = deque(self._build() for _ in range(prefill))
        self.sent: List[bytes] = []

    def _build(self) -> bytes:
        return json.dumps(self.make(self.rng)).encode()

    def next_op(self) -> Op:
        if self.sent and self.rng.random() < self.repeat_share:
            body = self.sent[int(self.rng.integers(len(self.sent)))]
        else:
            body = self.fresh.popleft() if self.fresh else self._build()
            self.sent.append(body)
        return Op("/v1/solve", body)

    def done(self, op: Op) -> None:
        pass


@dataclass
class SessionSpec:
    """A warm session one lane holds: its problem and tracked state."""

    problem: Dict[str, Any]
    session_id: str = ""
    failed: set = field(default_factory=set)
    weights: Optional[Dict[str, float]] = None  # weighted coverage only
    versions: List[Dict[str, float]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.problem["num_sensors"]


#: Session writes between two ``GET .../schedule`` reads.
WRITES_PER_READ = 3
#: Upper bound on simultaneously failed sensors in a session.
MAX_FAILED = 30


class SessionLane:
    """Deltas against one warm session, a schedule read every few writes.

    Writes fail a live sensor, recover a failed one, or (weighted
    coverage) change a target's weight.  The lane tracks the state it
    expects the session to be in; a write that the server refuses
    leaves the tracked state unchanged (the session rolls back too).
    """

    def __init__(self, rng: np.random.Generator, spec: SessionSpec):
        self.rng, self.spec = rng, spec
        self.sent = 0
        self.pending: Optional[Tuple[str, Any]] = None

    def next_op(self) -> Op:
        spec = self.spec
        base = f"/v1/session/{spec.session_id}"
        self.sent += 1
        if self.sent % (WRITES_PER_READ + 1) == 0:
            self.pending = ("read", None)
            return Op(base + "/schedule", None, context=self._context())
        choices = []
        if len(spec.failed) < MAX_FAILED:
            choices.append("fail")
        if spec.failed:
            choices.append("recover")
        if spec.weights is not None:
            choices.append("weight")
        kind = choices[int(self.rng.integers(len(choices)))]
        if kind == "fail":
            live = sorted(set(range(spec.n)) - spec.failed)
            sensor = live[int(self.rng.integers(len(live)))]
            delta: Dict[str, Any] = {"kind": "sensor-failed", "sensor": sensor}
            self.pending = ("fail", sensor)
        elif kind == "recover":
            failed = sorted(spec.failed)
            sensor = failed[int(self.rng.integers(len(failed)))]
            delta = {"kind": "sensor-recovered", "sensor": sensor}
            self.pending = ("recover", sensor)
        else:
            elements = sorted(spec.weights, key=int)
            element = elements[int(self.rng.integers(len(elements)))]
            value = float(self.rng.uniform(0.5, 2.0))
            delta = {"kind": "target-weight-change", "element": int(element), "value": value}
            self.pending = ("weight", (element, value))
        return Op(base + "/delta", json.dumps({"delta": delta}).encode())

    def done(self, op: Op) -> None:
        spec = self.spec
        kind, arg = self.pending
        if kind == "read":
            return
        if op.status == 200:
            if kind == "fail":
                spec.failed.add(arg)
            elif kind == "recover":
                spec.failed.discard(arg)
            else:
                spec.weights = dict(spec.weights)
                spec.weights[arg[0]] = arg[1]
        op.context = self._context()

    def _context(self) -> Tuple[SessionSpec, frozenset, int]:
        spec = self.spec
        if spec.weights is not None and (not spec.versions or spec.versions[-1] is not spec.weights):
            spec.versions.append(spec.weights)
        return (spec, frozenset(spec.failed), len(spec.versions) - 1)


def run_lanes(client_of: Callable[[int], Client], lanes: List[Any], seconds: float) -> Tuple[List[Op], float, float]:
    """Drive every lane closed-loop for ``seconds``; returns the ops
    (in completion order per lane) and the phase start and end."""
    ops: List[List[Op]] = [[] for _ in lanes]
    start = time.perf_counter()
    deadline = start + seconds

    def drive(index: int) -> None:
        client, lane = client_of(index), lanes[index]
        while time.perf_counter() < deadline:
            op = lane.next_op()
            op.start = time.perf_counter()
            op.status, op.reply = client.call("GET" if op.body is None else "POST", op.path, op.body)
            op.end = time.perf_counter()
            lane.done(op)
            ops[index].append(op)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(lanes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return [op for lane_ops in ops for op in lane_ops], start, end


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def check_solves(ops: List[Op]) -> List[str]:
    """Each ``result`` must equal, byte for byte as canonical JSON, a
    direct ``repro.core.solver.solve`` of the same instance."""
    from repro.core.solver import solve
    from repro.runtime.fingerprint import canonical_json
    from repro.serve import schemas

    expected: Dict[bytes, str] = {}
    failures = []
    for op in ops:
        if op.status != 200:
            continue
        if op.body not in expected:
            request = json.loads(op.body)
            problem = schemas.problem_from_wire(request["problem"])
            direct = solve(problem, method=request.get("method", "greedy"))
            expected[op.body] = canonical_json(schemas.result_to_wire(direct))
        try:
            served = canonical_json(json.loads(op.reply)["result"])
        except (ValueError, KeyError) as error:
            failures.append(f"solve reply unreadable: {error!r}")
            continue
        if served != expected[op.body]:
            failures.append(f"solve result differs from a direct solve ({len(op.body)}-byte request)")
    return failures


def check_sessions(ops: List[Op]) -> List[str]:
    """Failed sensors are absent from every returned schedule, and the
    reported period utility equals the utility recomputed from it."""
    from repro.io.serialization import utility_from_dict
    from repro.serve.schemas import problem_from_wire
    from repro.sessions.session import period_utility_of

    utilities: Dict[Tuple[int, int], Any] = {}
    failures = []
    for op in ops:
        if op.status != 200:
            continue
        spec, failed, version = op.context
        key = (id(spec), version)
        if key not in utilities:
            if spec.weights is None:
                utilities[key] = problem_from_wire(spec.problem).utility
            else:
                doc = dict(spec.problem["utility"])
                doc["element_weights"] = spec.versions[version]
                utilities[key] = utility_from_dict(doc)
        try:
            reply = json.loads(op.reply)
            result = reply["result"]
            schedule = result["schedule"]
            assignment = {int(v): int(t) for v, t in schedule["assignment"].items()}
            reported = result["period_utility"]
            reported_failed = set(reply["session"]["failed"])
        except (ValueError, KeyError, TypeError) as error:
            failures.append(f"session reply unreadable: {error!r}")
            continue
        if failed & set(assignment) or reported_failed != failed:
            failures.append(f"session schedule lists failed sensors {sorted(failed & set(assignment))}")
            continue
        if set(assignment) != set(range(spec.n)) - failed:
            failures.append("session schedule does not place every live sensor")
            continue
        recomputed = period_utility_of(assignment, utilities[key], int(schedule["slots_per_period"]))
        if recomputed != reported:
            failures.append(f"session period utility {reported!r} != recomputed {recomputed!r}")
    return failures


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Workload:
    """How one HTTP workload builds its lanes and checks its replies."""

    #: (seed, scale, session specs, seconds) -> one lane per connection.
    lanes: Callable[[int, float, List[SessionSpec], float], List[Any]]
    check: Callable[[List[Op], np.random.Generator], List[str]]
    aliases: Dict[str, str]
    #: (seed, scale) -> the sessions set-up opens, one per lane.
    sessions: Optional[Callable[[int, float], List[SessionSpec]]] = None


def _lane_rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


#: Replies of ``solve-paper`` re-solved directly after the timed phase.
PAPER_CHECK_SAMPLE = 8


def _check_sample(ops: List[Op], rng: np.random.Generator) -> List[str]:
    answered = [op for op in ops if op.status == 200]
    if len(answered) > PAPER_CHECK_SAMPLE:
        picks = sorted(rng.choice(len(answered), size=PAPER_CHECK_SAMPLE, replace=False))
        answered = [answered[int(i)] for i in picks]
    return check_solves(answered)


def _session_specs(seed: int, scale: float) -> List[SessionSpec]:
    """Two sessions, n = 300 and rho = 3: homogeneous detection
    p = 0.4, and deployment-derived weighted coverage."""
    rng = np.random.default_rng([seed, 99])
    n = max(8, int(300 * scale))
    homogeneous = SessionSpec({"num_sensors": n, "rho": 3, "utility": {"p": 0.4}})
    doc = coverage_doc(rng, n)
    weighted = SessionSpec(
        {"num_sensors": n, "rho": 3, "utility": doc},
        weights={str(k): float(v) for k, v in doc["element_weights"].items()},
    )
    return [homogeneous, weighted]


def _prefill(seconds: float) -> int:
    return int(math.ceil(seconds * PREFILL_PER_SECOND))


def _small_lanes(seed: int, scale: float, specs: List[SessionSpec], seconds: float) -> List[SolveLane]:
    return [
        SolveLane(_lane_rng(seed, lane), small_body, 0.25, _prefill(seconds)) for lane in range(LANES)
    ]


def _session_lanes(seed: int, scale: float, specs: List[SessionSpec], seconds: float) -> List[SessionLane]:
    return [SessionLane(_lane_rng(seed, lane), spec) for lane, spec in enumerate(specs)]


def _paper_lanes(seed: int, scale: float, specs: List[SessionSpec], seconds: float) -> List[SolveLane]:
    def build(rng: np.random.Generator, *shape: Any) -> Dict[str, Any]:
        return paper_body(rng, *shape, scale=scale)

    return [
        SolveLane(
            _lane_rng(seed, lane),
            paired_blocks(lane, PAPER_BLOCK, PAPER_MATCHES, build),
            0.0,
            _prefill(seconds),
        )
        for lane in range(LANES)
    ]


SOLVE_ALIASES = {"p50_ms": "solve_p50_ms", "p95_ms": "solve_p95_ms", "ops_per_s": "solve_rps"}

WORKLOADS: Dict[str, Workload] = {
    "serve-small": Workload(_small_lanes, lambda ops, rng: check_solves(ops), SOLVE_ALIASES),
    "serve-sessions": Workload(
        _session_lanes,
        lambda ops, rng: check_sessions(ops),
        {"p50_ms": "delta_p50_ms", "p95_ms": "delta_p95_ms", "ops_per_s": "session_ops_per_s"},
        sessions=_session_specs,
    ),
    "solve-paper": Workload(_paper_lanes, _check_sample, SOLVE_ALIASES),
}


def _set_up(workload: Workload, scratch: Path, index: int, seed: int, scale: float,
            spans_out: Optional[Path] = None) -> Tuple[Server, List[SessionSpec], float]:
    """Start a server, wait until it answers, open the sessions; the
    elapsed time leaves out building the session problems."""
    specs = workload.sessions(seed, scale) if workload.sessions else []
    start = time.perf_counter()
    server = Server(scratch, index, spans_out)
    server.wait_ready()
    client = Client(server.host, server.port)
    for spec in specs:
        status, reply = client.call(
            "POST", "/v1/session", json.dumps({"problem": spec.problem, "method": "greedy"}).encode()
        )
        if status != 200:
            server.stop()
            raise RuntimeError(f"session create failed: {status} {reply[:200]!r}")
        spec.session_id = json.loads(reply)["session"]["id"]
    client.close()
    return server, specs, time.perf_counter() - start


def _phase(workload: Workload, server: Server, seed: int, scale: float,
           specs: List[SessionSpec], seconds: float) -> Tuple[List[Op], float, float]:
    lanes = workload.lanes(seed, scale, specs, seconds)
    clients = [Client(server.host, server.port) for _ in range(LANES)]
    try:
        return run_lanes(lambda i: clients[i], lanes, seconds)
    finally:
        for client in clients:
            client.close()


def _account(outcome: Outcome, workload: Workload, ops: List[Op], seed: int) -> None:
    failures = workload.check(ops, np.random.default_rng([seed, 7]))
    refused = [op for op in ops if op.status != 200]
    outcome.attempted += len(ops)
    outcome.failed += len(refused) + len(failures)
    for message in failures:
        outcome.fail_check(message)
    for op in refused[:5]:
        outcome.notes.append(f"{op.path} -> {op.status}: {op.reply[:160]!r}")


def run(name: str, seed: int, seconds: float, scratch: Path, trace: bool, scale: float = 1.0) -> Outcome:
    workload = WORKLOADS[name]
    outcome = Outcome()
    if trace:
        return _run_traced(workload, seed, seconds, scratch, scale, outcome)
    setups = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, specs, elapsed = _set_up(workload, scratch, index, seed, scale)
        setups.append(elapsed)
    try:
        ops, start, end = _phase(workload, server, seed, scale, specs, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    _account(outcome, workload, ops, seed)
    latencies = [(op.end - op.start) * 1000.0 for op in ops]
    aliases = workload.aliases
    outcome.metric("setup_s", median(setups), "s")
    outcome.metric("p50_ms", percentile(latencies, 50), "ms", aliases["p50_ms"])
    outcome.metric("p95_ms", percentile(latencies, 95), "ms", aliases["p95_ms"])
    outcome.metric("ops_per_s", len(ops) / (end - start), "1/s", aliases["ops_per_s"])
    outcome.metric("peak_rss_mb", rss, "MB")
    outcome.metric("ok_fraction", 1.0 - outcome.failed / max(1, outcome.attempted), "ratio",
                   "1 - failed_fraction")
    outcome.notes.append(
        f"{len(ops)} ops, {beyond_p95(len(ops))} beyond p95; setups {['%.3f' % s for s in setups]} s; "
        f"failed_fraction {outcome.failed / max(1, outcome.attempted):.6g}"
    )
    return outcome


def _run_traced(workload: Workload, seed: int, seconds: float, scratch: Path,
                scale: float, outcome: Outcome) -> Outcome:
    """Half the time untraced, half traced, same requests; per-layer
    numbers come from the traced half."""
    import layers
    import spans as spans_mod

    half = seconds / 2.0
    server, specs, _ = _set_up(workload, scratch, 0, seed, scale)
    try:
        plain_ops, _, _ = _phase(workload, server, seed, scale, specs, half)
    finally:
        server.stop()
    spans_path = scratch / "spans.jsonl"
    server, specs, _ = _set_up(workload, scratch, 1, seed, scale, spans_out=spans_path)
    try:
        traced_ops, start, end = _phase(workload, server, seed, scale, specs, half)
    finally:
        server.stop()
    _account(outcome, workload, plain_ops + traced_ops, seed)
    recorded = spans_mod.load(str(spans_path))
    layers.serve_table(outcome, recorded, traced_ops, start, end)
    plain = sum(op.end - op.start for op in plain_ops) / max(1, len(plain_ops))
    traced = sum(op.end - op.start for op in traced_ops) / max(1, len(traced_ops))
    layers.finish(outcome, traced / plain - 1.0)
    return outcome
