"""Array-native batched solving: many instances, one vectorized pass.

The serve batcher coalesces *duplicate* requests onto one solve, but
distinct instances -- the dominant shape of high-traffic serving --
were still solved one at a time.  This package adds the cross-instance
fast path:

- :class:`~repro.batched.batch.InstanceBatch` -- a struct-of-arrays
  view over a group of problems (padded sensor x slot arrays plus
  per-family payload arrays), built once per batch;
- :mod:`~repro.batched.kernels` -- one vectorized marginal-gain kernel
  per batched family (logsum, weighted coverage, area, target-system)
  that evaluates whole gain columns for every instance of the batch in
  one numpy pass.  The detection families have no kernel: their serial
  key-ordered greedy (:mod:`repro.core.greedy`) is faster per instance,
  so the executor routes them serially;
- :func:`~repro.batched.greedy.batched_greedy` -- a lockstep driver
  advancing all instances one placement per round, with per-instance
  termination masks;
- :func:`~repro.batched.greedy.solve_batch` -- the executor-facing
  entry point, returning :class:`~repro.core.solver.SolveResult`
  objects **bit-for-bit identical** to a serial ``solve(...)`` loop.

Bit-exactness is the contract, not an aspiration: the batched path
replicates the serial evaluators' accumulation discipline (identical
frozenset construction sequences, cached scalars recomputed by the
family's own methods, sequential reduction order via the masked-cumsum
identity ``x + 0.0 == x``), and it deliberately avoids numpy's
transcendental ufuncs -- ``np.log1p`` is not bit-equal to the ``math``
module's libm call on every platform, so the logsum kernel evaluates
``math.log1p`` per candidate.

Set ``REPRO_BATCHED=0`` to disable the batched routing everywhere (the
serial path is the escape hatch, exactly as ``REPRO_INCREMENTAL=0`` is
for the incremental evaluators).
"""

from __future__ import annotations

import os

from repro.batched.batch import InstanceBatch, batchable
from repro.batched.greedy import batched_greedy, solve_batch


def batched_enabled() -> bool:
    """Whether batched routing is active (``REPRO_BATCHED``).

    Defaults to on; ``0`` / ``false`` / ``off`` select the serial
    escape hatch.  Read per ``solve_many`` call, so the toggle applies
    without restarting the service.
    """
    raw = os.environ.get("REPRO_BATCHED", "1").strip().lower()
    return raw not in ("0", "false", "off")


__all__ = [
    "InstanceBatch",
    "batchable",
    "batched_enabled",
    "batched_greedy",
    "solve_batch",
]
