"""P7 — native compiled kernels + vectorized batch encode.

PR 7 adds :mod:`repro.engine.native`: a small C library for the hot
block paths (NN pair fold, neighbor counts, window maxima, batch
curve encode/decode), built on demand with the system compiler and
selected with ``backend="native"``/``"auto"``.  Values are bit-for-bit
identical across backends — the C kernels only produce int64 partials;
float math stays in Python on both paths.

Three experiments, two of them on a side=1024 Hilbert cell:

* **batch encode** — ``curve.keys_of`` over 2^20 random points,
  throughput-normalized against the historical per-cell
  ``curve.index`` loop (the pattern the resort/nbody/rangequery hot
  loops used).  Asserted >= 2x; measured two to three orders of
  magnitude.
* **NN block reduction** — the one-pass chunked NN metric set
  (``davg``/``dmax``/``lambdas``/``nn_mean``), numpy vs native
  backend.  Asserted >= 1.3x when the native kernels are available.
* **box encode** — ``curve.key_slab(0, side)``, the native box codec
  that writes a whole key grid from its bounds, against the
  pure-NumPy reference ``curve.index(all_coords)`` on Hilbert 512².
  Parity with ``index()`` is asserted for Z, Gray, Hilbert and snake;
  the Hilbert speedup is asserted >= 3x when the kernels are available.
  The Hilbert box codec's row walk is also held to <= 0.2x the time
  of the native point codec over the same cells (which runs every
  Skilling level for every cell), a bound a per-cell box loop fails.

On hosts without a C compiler the numbers are still recorded (the
``native`` rows fall back to numpy and say so in the JSON); only the
speedup assertions are skipped — parity is enforced unconditionally.
"""

import time

import numpy as np

from repro import Universe
from repro.curves.gray import GrayCurve
from repro.curves.hilbert import HilbertCurve
from repro.curves.snake import SnakeCurve
from repro.curves.zcurve import ZCurve
from repro.engine import native
from repro.engine.context import MetricContext

from _bench_utils import run_once

UNIVERSE = Universe.power_of_two(d=2, k=10)
CHUNK_CELLS = 65536
N_POINTS = 1 << 20
#: Per-cell loop sample: enough for a stable rate, small enough that
#: the deliberately-slow baseline stays under a second.
LOOP_POINTS = 2000
MIN_ENCODE_SPEEDUP = 2.0
MIN_REDUCTION_SPEEDUP = 1.3
BOX_UNIVERSE = Universe.power_of_two(d=2, k=9)
MIN_BOX_SPEEDUP = 3.0
#: Hilbert row walk / native point codec, both over the 512² box.  A
#: specialised per-cell box loop (the codec before the row walk)
#: measured 29-40 ns/cell against the point codec's 85-130, a ratio of
#: 0.30-0.32 (2-vCPU Xeon); the walk must take <= 0.65x that loop, so
#: the bound is 0.65 * 0.30 ~= 0.2.  The walk measured 0.05-0.12.
MAX_WALK_TO_POINT = 0.2

NATIVE_AVAILABLE = native.available()


def _nn_cell(backend: str):
    """The chunked one-pass NN metric set; returns (values, seconds)."""
    ctx = MetricContext(
        HilbertCurve(UNIVERSE), chunk_cells=CHUNK_CELLS, backend=backend
    )
    start = time.perf_counter()
    values = (
        ctx.davg(),
        ctx.dmax(),
        tuple(ctx.lambda_sums().tolist()),
        ctx.nn_mean(),
    )
    return values, time.perf_counter() - start


def test_p7_batch_encode_throughput(benchmark, results_writer):
    """Acceptance: keys_of >= 2x the per-cell index loop (throughput)."""
    curve = HilbertCurve(UNIVERSE)
    rng = np.random.default_rng(0)
    points = rng.integers(
        0, UNIVERSE.side, size=(N_POINTS, UNIVERSE.d), dtype=np.int64
    )

    start = time.perf_counter()
    loop_keys = np.array(
        [int(curve.index(p)) for p in points[:LOOP_POINTS]], dtype=np.int64
    )
    t_loop = time.perf_counter() - start
    loop_rate = LOOP_POINTS / t_loop

    def timed_keys_of(backend):
        start = time.perf_counter()
        keys = curve.keys_of(points, backend=backend)
        return keys, time.perf_counter() - start

    numpy_keys, t_numpy = timed_keys_of("numpy")
    native_keys, t_native = run_once(benchmark, timed_keys_of, "native")

    parity = bool(
        (numpy_keys[:LOOP_POINTS] == loop_keys).all()
        and (native_keys == numpy_keys).all()
    )
    batch_rate = N_POINTS / min(t_numpy, t_native)
    speedup_vs_loop = batch_rate / loop_rate
    benchmark.extra_info["batch_encode"] = {
        "universe": str(UNIVERSE),
        "points": N_POINTS,
        "native_available": NATIVE_AVAILABLE,
        "per_cell_loop_pts_per_s": round(loop_rate),
        "keys_of_numpy_pts_per_s": round(N_POINTS / t_numpy),
        "keys_of_native_pts_per_s": round(N_POINTS / t_native),
        "speedup_vs_loop": round(speedup_vs_loop, 1),
        "native_vs_numpy": round(t_numpy / t_native, 2),
        "bit_for_bit_parity": parity,
    }
    results_writer(
        "p7_batch_encode",
        f"P7 — batch encode on {UNIVERSE}, hilbert, {N_POINTS} points "
        f"(native kernels available: {NATIVE_AVAILABLE})\n\n"
        f"per-cell index loop : {loop_rate:12,.0f} pts/s\n"
        f"keys_of (numpy)     : {N_POINTS / t_numpy:12,.0f} pts/s\n"
        f"keys_of (native)    : {N_POINTS / t_native:12,.0f} pts/s\n"
        f"batch vs loop: {speedup_vs_loop:.0f}x   "
        f"native vs numpy batch: {t_numpy / t_native:.2f}x   "
        f"parity: {parity}\n",
    )
    print(
        f"\nbatch encode {speedup_vs_loop:.0f}x vs per-cell loop; "
        f"native vs numpy {t_numpy / t_native:.2f}x; parity={parity}"
    )
    assert parity
    assert speedup_vs_loop >= MIN_ENCODE_SPEEDUP, (
        f"batch encode speedup {speedup_vs_loop:.1f}x below "
        f"{MIN_ENCODE_SPEEDUP}x"
    )


def test_p7_native_nn_reduction(benchmark, results_writer):
    """Acceptance: native NN reduction >= 1.3x numpy when available."""
    numpy_values, t_numpy = _nn_cell("numpy")
    native_values, t_native = run_once(benchmark, _nn_cell, "native")

    parity = native_values == numpy_values
    speedup = t_numpy / t_native
    benchmark.extra_info["nn_reduction"] = {
        "universe": str(UNIVERSE),
        "chunk_cells": CHUNK_CELLS,
        "native_available": NATIVE_AVAILABLE,
        "native_fell_back_to_numpy": not NATIVE_AVAILABLE,
        "t_numpy_s": round(t_numpy, 3),
        "t_native_s": round(t_native, 3),
        "speedup": round(speedup, 2),
        "bit_for_bit_parity": parity,
    }
    results_writer(
        "p7_native_nn_reduction",
        f"P7 — chunked NN reduction on {UNIVERSE}, hilbert "
        f"(chunk_cells={CHUNK_CELLS}; native kernels available: "
        f"{NATIVE_AVAILABLE}; values bit-for-bit equal: {parity})\n\n"
        f"numpy backend  wall: {t_numpy:7.3f} s\n"
        f"native backend wall: {t_native:7.3f} s   "
        f"speedup: {speedup:5.2f}x"
        f"{'' if NATIVE_AVAILABLE else '   (not asserted: no compiler)'}\n",
    )
    print(
        f"\nNN reduction numpy {t_numpy:.3f}s vs native {t_native:.3f}s "
        f"({speedup:.2f}x); native_available={NATIVE_AVAILABLE}; "
        f"parity={parity}"
    )
    assert parity, (
        f"backend values diverged: {native_values} vs {numpy_values}"
    )
    if NATIVE_AVAILABLE:
        assert speedup >= MIN_REDUCTION_SPEEDUP, (
            f"native speedup {speedup:.2f}x below {MIN_REDUCTION_SPEEDUP}x"
        )


def _best_of(fn, repeats: int = 3):
    """``(result, best seconds)`` over ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_p7_box_encode(benchmark, results_writer):
    """Acceptance: native key_slab(0, side) >= 3x index(all_coords)."""
    cells = BOX_UNIVERSE.all_coords()
    side = BOX_UNIVERSE.side
    rows = []
    parity = True
    for cls in (HilbertCurve, ZCurve, GrayCurve, SnakeCurve):
        curve = cls(BOX_UNIVERSE)
        reference, t_index = _best_of(
            lambda: curve.index(cells).reshape(BOX_UNIVERSE.shape, order="F")
        )
        if cls is HilbertCurve:  # the case pytest-benchmark records
            run_once(benchmark, curve.key_slab, 0, side, "native")
        grid, t_box = _best_of(
            lambda: curve.key_slab(0, side, "native"), repeats=5
        )
        same = bool(np.array_equal(grid, reference))
        parity = parity and same
        rows.append((curve.name, t_index, t_box, same))
    speedup = {name: t_index / t_box for name, t_index, t_box, _ in rows}
    walk_ratio = _walk_to_point_ratio(rows[0][2])
    benchmark.extra_info["box_encode"] = {
        "universe": str(BOX_UNIVERSE),
        "native_available": NATIVE_AVAILABLE,
        "index_ms": {name: round(t * 1e3, 2) for name, t, _, _ in rows},
        "key_slab_ms": {name: round(t * 1e3, 2) for name, _, t, _ in rows},
        "key_slab_ns_per_cell": {
            name: round(t / BOX_UNIVERSE.n * 1e9, 2) for name, _, t, _ in rows
        },
        "speedup": {name: round(v, 1) for name, v in speedup.items()},
        "hilbert_walk_to_point_codec": (
            None if walk_ratio is None else round(walk_ratio, 3)
        ),
        "bit_for_bit_parity": parity,
    }
    table = "".join(
        f"{name:8s} index {t_index * 1e3:8.2f} ms   key_slab "
        f"{t_box * 1e3:7.2f} ms ({t_box / BOX_UNIVERSE.n * 1e9:5.2f} "
        f"ns/cell)   {t_index / t_box:6.1f}x   parity {same}\n"
        for name, t_index, t_box, same in rows
    )
    results_writer(
        "p7_box_encode",
        f"P7 — whole-grid encode on {BOX_UNIVERSE}: index(all_coords) vs "
        f"key_slab(0, side) (native kernels available: {NATIVE_AVAILABLE})"
        f"\n\n{table}"
        + (
            ""
            if walk_ratio is None
            else f"\nhilbert row walk / point codec: {walk_ratio:.3f}\n"
        ),
    )
    print(f"\nbox encode hilbert {speedup['hilbert']:.1f}x; parity={parity}")
    assert parity
    if NATIVE_AVAILABLE:
        assert speedup["hilbert"] >= MIN_BOX_SPEEDUP, (
            f"box encode speedup {speedup['hilbert']:.1f}x below "
            f"{MIN_BOX_SPEEDUP}x"
        )
        assert walk_ratio <= MAX_WALK_TO_POINT, (
            f"hilbert row walk takes {walk_ratio:.2f}x the point "
            f"codec, above {MAX_WALK_TO_POINT}x"
        )


def _walk_to_point_ratio(t_box: float):
    """Hilbert box time over the point codec's, or ``None`` (no kernels).

    The point codec encodes the box's cells in C order; its keys must
    equal ``index()`` too.
    """
    curve = HilbertCurve(BOX_UNIVERSE)
    codec = native.encoder_for(curve)
    if codec is None:
        return None
    side, d = BOX_UNIVERSE.side, BOX_UNIVERSE.d
    mesh = np.meshgrid(*[np.arange(side, dtype=np.int64)] * d, indexing="ij")
    cells = np.ascontiguousarray(np.stack(mesh, axis=-1).reshape(-1, d))
    keys, t_point = _best_of(lambda: codec.encode(cells), repeats=5)
    assert np.array_equal(keys, curve.index(cells))
    return t_box / t_point
