"""Every mode × backend × curve against the paper's definitions.

The parity suites check the execution paths against each other; this
matrix checks each of them against definition-level oracles on small
universes (d = 1–3, side 1 and 2, non-power-of-two sides where the
curve allows them):

* ``dmax``, ``nn_mean`` and ``lambdas`` must be ``==`` the brute-force
  oracles of ``tests/conftest.py``, which evaluate ``curve.index`` one
  cell or one NN pair at a time;
* ``davg`` must be ``==`` a dense NumPy reference built here from
  ``index(all_coords)`` and must agree with the brute-force oracle to
  rounding (the oracle sums its floats in another order).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import Universe
from repro.engine import chunked
from repro.engine.context import MetricContext
from repro.engine.sweep import CurveSpec
from tests.conftest import (
    brute_force_davg,
    brute_force_dmax,
    brute_force_lambdas,
    brute_force_nn_mean,
)

SPECS = (
    "z",
    "gray",
    "hilbert",
    "snake",
    "simple",
    "random:seed=3",
    "reversed:inner=hilbert",
)
UNIVERSES = (
    (1, 1), (1, 2), (1, 5), (1, 8),
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 8),
    (3, 1), (3, 2), (3, 3), (3, 4),
)
#: name -> (MetricContext keyword arguments, dense block size or None).
#: "dense-blocks7" shrinks the dense reduction's block so that small
#: universes also take the multi-slab walk over the dense grid.
MODES = {
    "dense": ({}, None),
    "dense-blocks7": ({}, 7),
    "chunked-1": ({"chunk_cells": 1}, None),
    "chunked-12": ({"chunk_cells": 12}, None),
    "chunked-40": ({"chunk_cells": 40}, None),
    "threaded": ({"threads": 2}, None),
    "threaded-chunked-12": ({"threads": 2, "chunk_cells": 12}, None),
}
BACKENDS = ("numpy", "native")


def _make(spec: str, d: int, side: int):
    return CurveSpec.parse(spec).make(Universe(d=d, side=side))


def _cells():
    """``(spec, d, side)`` for every curve that exists on the universe."""
    out = []
    for d, side in UNIVERSES:
        for spec in SPECS:
            try:
                _make(spec, d, side)
            except (ValueError, TypeError):
                continue  # e.g. Z / Hilbert need a power-of-two side
            out.append((spec, d, side))
    return out


def dense_numpy_davg(curve) -> float:
    """``D^avg`` from ``index(all_coords)`` with plain NumPy.

    Per-cell sums and neighbor counts come from ``np.diff`` along each
    axis; the mean of ``sums / counts`` is the definition's average of
    per-cell averages (0 on the one-cell-wide universe).
    """
    universe = curve.universe
    if universe.side < 2:
        return 0.0
    d = universe.d
    grid = curve.index(universe.all_coords()).reshape(
        universe.shape, order="F"
    )
    sums = np.zeros(universe.shape, dtype=np.int64)
    counts = np.zeros(universe.shape, dtype=np.int64)
    for axis in range(d):
        dist = np.abs(np.diff(grid, axis=axis))
        lo = tuple(slice(0, -1) if i == axis else slice(None) for i in range(d))
        hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(d))
        sums[lo] += dist
        sums[hi] += dist
        counts[lo] += 1
        counts[hi] += 1
    return float((sums / counts).mean())


@functools.lru_cache(maxsize=None)
def _oracles(spec: str, d: int, side: int) -> dict:
    curve = _make(spec, d, side)
    return {
        "davg_brute": brute_force_davg(curve),
        "davg_dense": dense_numpy_davg(curve),
        "dmax": brute_force_dmax(curve),
        "nn_mean": brute_force_nn_mean(curve),
        "lambdas": brute_force_lambdas(curve),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize(
    "spec,d,side", _cells(), ids=lambda v: str(v)
)
def test_metrics_equal_definitions(spec, d, side, mode, backend, monkeypatch):
    kwargs, dense_block = MODES[mode]
    if dense_block is not None:
        monkeypatch.setattr(chunked, "DENSE_BLOCK_CELLS", dense_block)
    ctx = MetricContext(_make(spec, d, side), backend=backend, **kwargs)
    try:
        got = {
            "davg": ctx.davg(),
            "dmax": ctx.dmax(),
            "nn_mean": ctx.nn_mean(),
            "lambdas": [int(v) for v in ctx.lambda_sums()],
        }
    finally:
        if ctx.threaded:
            ctx.scheduler.close()
    want = _oracles(spec, d, side)
    assert got["dmax"] == want["dmax"]
    assert got["nn_mean"] == want["nn_mean"]
    assert got["lambdas"] == want["lambdas"]
    assert got["davg"] == want["davg_dense"]
    assert got["davg"] == pytest.approx(want["davg_brute"], rel=1e-12)


def test_matrix_covers_the_edges():
    """The matrix includes side 1, side 2 and non-power-of-two sides."""
    cells = _cells()
    sides = {side for _, _, side in cells}
    assert {1, 2} <= sides and {3, 5} & sides
    assert {d for _, d, _ in cells} == {1, 2, 3}
    assert {spec for spec, _, _ in cells} == set(SPECS)


def test_dense_blocks_walk_several_slabs():
    """The small dense block really splits the grid into several slabs."""
    grid = np.arange(64, dtype=np.int64).reshape(8, 8)
    views = list(chunked.dense_slab_views(grid))
    assert len(views) == 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunked, "DENSE_BLOCK_CELLS", 7)
        views = list(chunked.dense_slab_views(grid))
    assert [(lo, hi) for lo, hi, _ in views] == [(i, i + 1) for i in range(8)]
    assert all(np.shares_memory(view, grid) for _, _, view in views)
    assert np.array_equal(np.concatenate([v for _, _, v in views]), grid)
