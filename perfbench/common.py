"""Shared pieces: paths, statistics, the run record and its output."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for cache directories, server logs and span files;
#: created per run inside the checkout and removed when the run ends.
TMP = ROOT / ".perfbench_tmp"

#: How many times a run sets up before it keeps the last set-up.
SETUP_REPEATS = 3


def require_source() -> None:
    """Exit 2 (no result printed) when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir() -> Path:
    path = TMP / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP.rmdir()  # only when no other run is using it
    except OSError:
        pass


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def beyond_p95(count: int) -> int:
    """Samples strictly above the nearest-rank p95 of ``count`` samples."""
    return count - max(1, math.ceil(0.95 * count))


def toggles() -> Dict[str, Dict[str, Any]]:
    """The raw and effective ``REPRO_*`` toggles (read, never set)."""
    from repro.batched import batched_enabled
    from repro.coverage.spatial import spatial_mode
    from repro.utility.incremental import incremental_enabled

    return {
        "REPRO_BATCHED": {
            "env": os.environ.get("REPRO_BATCHED"),
            "effective": batched_enabled(),
        },
        "REPRO_SPATIAL": {
            "env": os.environ.get("REPRO_SPATIAL"),
            "effective": spatial_mode(),
        },
        "REPRO_INCREMENTAL": {
            "env": os.environ.get("REPRO_INCREMENTAL"),
            "effective": incremental_enabled(),
        },
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "toggles": toggles(),
    }


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    check_failures: List[str] = field(default_factory=list)
    #: name -> (value, unit, per-workload name or None)
    metrics: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, alias: Optional[str] = None) -> None:
        self.metrics[name] = (float(value), unit, alias)

    def fail_check(self, message: str) -> None:
        self.check_failures.append(message)


def emit(outcome: Outcome, config: Dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result (last)."""
    print("# config " + json.dumps(config, sort_keys=True))
    for note in outcome.notes:
        print("# " + note)
    for message in outcome.check_failures[:20]:
        print("# CHECK FAILED: " + message)
    width = max((len(name) for name in outcome.metrics), default=10)
    for name, (value, unit, alias) in outcome.metrics.items():
        label = f"  ({alias})" if alias else ""
        print(f"{name:<{width}}  {value:>14.6g} {unit}{label}")
    result = {
        "correct": not outcome.check_failures,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _alias) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
