"""Local push algorithms: the deterministic halves of every two-stage
PPR method in the paper.

- :func:`forward_push` — Algorithm 2 (threshold ``d_u · r_max``);
- :func:`balanced_forward_push` — §5.2's variant with the uniform
  threshold ``r_max``, required by the forest samplers' fixed sample
  count;
- :func:`power_push` — SPEEDPPR-style whole-vector push (power
  iteration on the residual) used by the SPEED* family;
- :func:`backward_push` — Algorithm 4 (single target);
- :func:`randomized_backward_push` — the RBACK baseline [43].

All deterministic pushes run as synchronous frontier sweeps over the
:mod:`repro.push.kernels` scatter, which batches the whole frontier
into segment ops.  The test suite checks it against a node-at-a-time
oracle (``tests/push_oracle.py``) to ≤1e-12 and on all work counters.
"""

from repro.push.forward import (
    PushResult,
    forward_push,
    balanced_forward_push,
)
from repro.push.power_push import power_push
from repro.push.backward import backward_push, randomized_backward_push

__all__ = [
    "PushResult",
    "forward_push",
    "balanced_forward_push",
    "power_push",
    "backward_push",
    "randomized_backward_push",
]
