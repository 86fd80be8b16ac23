"""Golden survivor counts: fixed-seed literals that every engine change must reproduce.

The counts were recorded from the engine that simulates every path over the
whole monitoring grid.  They pin the per-path stream layout, the running
sum and the first-crossing scoring (ties survive) bit for bit, so any change
that alters a single draw or a single rounding shows up here.  Each case runs
at one and at four threads.
"""

from dataclasses import replace

import numpy as np
import pytest

from levypassage.estimate import survival_counts
from levypassage.levymodel import (Boundary, stable_model,
                                   standard_symmetric_model)
from levypassage.simulate import TimeGrid

UNIT = standard_symmetric_model(0.7)


def _cases():
    return {
        # the acceptance model and boundaries over the full survival grid
        "survival-grid": (
            UNIT,
            [Boundary("constant"), Boundary("decreasing", 1.3),
             Boundary("increasing", 1.3)],
            np.geomspace(2.0 ** 4, 2.0 ** 14, 8), 300,
            TimeGrid.survival(2.0 ** 14), 11,
            [[22, 12, 7, 5, 4, 3, 2, 2],
             [18, 9, 4, 2, 1, 0, 0, 0],
             [37, 22, 16, 10, 7, 5, 4, 3]]),
        # Sparre Andersen setting: integer monitoring, level 0
        "integer-grid-level-0": (
            UNIT, [Boundary("constant", level=0.0)],
            np.geomspace(1.0, 1024.0, 11), 400, TimeGrid.integers(1024.0), 12,
            [[206, 152, 115, 81, 60, 37, 25, 17, 14, 11, 7]]),
        # 161 increments (not a multiple of 4), skewed law
        "ragged-geometric-skewed": (
            stable_model(0.7, -0.6, 1.5),
            [Boundary("constant"), Boundary("decreasing", 0.5, 2.0)],
            np.array([0.25, 1.0, 4.0, 16.0, 64.0]), 300,
            TimeGrid.geometric(64.0, per_octave=10), 13,
            [[293, 270, 239, 207, 176],
             [293, 274, 239, 206, 175]]),
        # a boundary below 0 is crossed by every path at t = 0
        "below-zero": (
            UNIT, [Boundary("constant", level=-0.5), Boundary("constant")],
            np.array([0.0, 1.0, 8.0, 64.0]), 200, TimeGrid.survival(64.0), 14,
            [[0, 0, 0, 0],
             [200, 80, 32, 8]]),
        # perturbed mode: compound-Poisson jumps at their epochs
        "perturbed": (
            replace(UNIT, stable=None),
            [Boundary("constant"), Boundary("decreasing", 1.0)],
            np.array([2.0, 4.0, 8.0, 16.0]), 40, TimeGrid.survival(16.0), 15,
            [[10, 7, 5, 5],
             [10, 7, 5, 4]]),
    }


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("name", list(_cases()))
def test_golden_survival_counts(name, threads):
    model, boundaries, T_grid, n_paths, grid, seed, want = _cases()[name]
    got = survival_counts(model, boundaries, T_grid, n_paths, grid, seed,
                          threads=threads)
    assert got.tolist() == want
