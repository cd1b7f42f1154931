"""Unit tests for repro.core.convergence."""

from __future__ import annotations

import math

from repro.core.convergence import PAPER_MSE_DELTA, mse_converged


class TestMseDeltaCriterion:
    """The paper's rule, ``0 <= MSE(n-1) - MSE(n) <= 1e-9``."""

    def test_paper_threshold_is_1e_minus_9(self):
        assert PAPER_MSE_DELTA == 1e-9
        assert mse_converged(1.0, 1.0 - 1e-9)
        assert not mse_converged(1.0, 1.0 - 2e-9)

    def test_never_converges_from_infinite_prev(self):
        assert not mse_converged(math.inf, 100.0)

    def test_converges_on_tiny_improvement(self):
        assert mse_converged(1.0, 1.0 - 1e-10)

    def test_converges_on_zero_improvement(self):
        assert mse_converged(1.0, 1.0)

    def test_keeps_going_on_large_improvement(self):
        assert not mse_converged(2.0, 1.0)

    def test_mse_increase_does_not_converge(self):
        # An empty-cluster repair can bump MSE up; that must not stop.
        assert not mse_converged(1.0, 1.5)
