import numpy as np
import pytest

from plasmonstack.geometry import LayerStack


def random_stack(rng, max_layers=12, xi_low=0.02, xi_high=20.0, min_gap=1e-4):
    """Random strictly-decreasing stack; resamples until gaps are nondegenerate."""
    while True:
        N = int(rng.integers(1, max_layers + 1))
        xi = np.sort(rng.uniform(xi_low, xi_high, size=N))[::-1]
        if N == 1 or np.diff(xi).max() <= -min_gap:
            return LayerStack(R=1.0, xi=tuple(xi))


def geometric_random_stack(rng, N):
    """N-layer stack with xi_{k+1} = ratio * xi_k, drawn from the ranges of
    perfbench's mode-scan workload."""
    xi_outer, ratio = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.6, 0.95))
    return LayerStack(R=float(rng.uniform(0.5, 2.0)), xi=tuple(xi_outer * ratio**k for k in range(N)))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
