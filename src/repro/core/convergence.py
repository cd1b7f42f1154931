"""The paper's stopping rule for Lloyd iteration.

Iteration stops when the improvement in mean square error between
consecutive iterations drops to at most ``1e-9``:
``MSE(n-1) - MSE(n) <= 1e-9``.  The serial run, every partial and the
merge share this one rule; because a pathological seed set can cycle, the
driver also caps the iteration count.
"""

from __future__ import annotations

import math

__all__ = ["PAPER_MSE_DELTA", "mse_converged"]

#: The paper's convergence threshold (Section 2 / experiments Section 5.2).
PAPER_MSE_DELTA = 1e-9


def mse_converged(prev_mse: float, cur_mse: float) -> bool:
    """Return ``True`` when ``0 <= prev_mse - cur_mse <= PAPER_MSE_DELTA``.

    An infinite ``prev_mse`` (the first iteration) never converges.  A
    *negative* delta (MSE rose, possible after an empty-cluster repair)
    does not either: the repair trades a temporary MSE bump for a better
    final model, so iteration continues.
    """
    if math.isinf(prev_mse):
        return False
    return 0.0 <= prev_mse - cur_mse <= PAPER_MSE_DELTA
