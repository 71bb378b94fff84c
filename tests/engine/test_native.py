"""The native compiled-kernel backend: parity, fallback, batch API.

The backend contract is *bit-for-bit identity*: every metric value and
every key computed through the C kernels must equal the pure-NumPy
reference exactly (``==``, never ``approx``).  These tests exercise

* encode/decode parity for **every** registry curve (including
  non-power-of-two sides, degenerate ``side=1`` grids and transform
  wrappers) against the independent :meth:`index`/:meth:`coords`
  implementations;
* ``key_slab`` parity (native box codec, table slice and NumPy
  fallback) against ``index`` for every curve, d, side and slab shape,
  plus its input checks;
* the metric parity matrix {dense, chunked, threaded} x
  {numpy, native};
* backend resolution, ``REPRO_NATIVE=0``, and the warn-once fallback
  when ``backend="native"`` cannot be honored.

Native-only assertions skip cleanly on hosts without a C compiler —
the degradation path itself is tested unconditionally.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.curves.registry import available_curves, curves_for_universe
from repro.engine import native
from repro.engine.context import MetricContext
from repro.engine.sweep import CurveSpec, Sweep
from repro.grid.universe import Universe

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native backend unavailable: {native.unavailable_reason()}",
)


@pytest.fixture
def fresh_native(monkeypatch):
    """Reset the module's memoized load/warn state around a test."""
    native.reset_for_tests()
    yield monkeypatch
    native.reset_for_tests()


# ----------------------------------------------------------------------
# Backend resolution and graceful degradation
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_numpy_always_resolves_to_numpy(self):
        assert native.resolve_backend("numpy") == "numpy"

    def test_none_means_auto(self):
        assert native.resolve_backend(None) in ("numpy", "native")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            native.resolve_backend("fortran")

    @requires_native
    def test_auto_prefers_native_when_available(self):
        assert native.resolve_backend("auto") == "native"
        assert native.resolve_backend("native") == "native"

    def test_repro_native_0_disables(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE", "0")
        assert not native.available()
        assert "REPRO_NATIVE=0" in native.unavailable_reason()
        assert native.resolve_backend("auto") == "numpy"

    def test_missing_compiler_warns_once_not_per_cell(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        assert not native.available()
        with pytest.warns(RuntimeWarning, match="repro doctor"):
            assert native.resolve_backend("native") == "numpy"
        # Every later resolution — e.g. one per sweep cell — is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                assert native.resolve_backend("native") == "numpy"

    def test_auto_never_warns_when_unavailable(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.resolve_backend("auto") == "numpy"

    def test_context_degrades_to_numpy(self, fresh_native, u2_8):
        """A backend='native' context on a compilerless host computes
        (NumPy) values instead of failing."""
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        curve = CurveSpec.parse("hilbert").make(u2_8)
        with pytest.warns(RuntimeWarning, match="falling back"):
            ctx = MetricContext(curve, backend="native")
        assert ctx.backend == "numpy"
        assert ctx.kernels is None
        reference = MetricContext(curve, backend="numpy")
        assert ctx.davg() == reference.davg()

    def test_build_info_is_reportable(self):
        info = native.build_info()
        assert set(info) >= {
            "available",
            "disabled",
            "compiler",
            "cache_dir",
            "so_path",
            "build_log",
            "reason",
        }
        assert isinstance(info["available"], bool)


# ----------------------------------------------------------------------
# Batch encode/decode parity: every registry curve, awkward geometries
# ----------------------------------------------------------------------
PARITY_UNIVERSES = [
    Universe(d=2, side=8),
    Universe(d=3, side=4),
    Universe(d=2, side=7),  # non-power-of-two
    Universe(d=3, side=5),  # non-power-of-two, odd
    Universe(d=2, side=1),  # degenerate single cell
    Universe(d=1, side=16),
]


class TestBatchCodecParity:
    @pytest.mark.parametrize(
        "universe", PARITY_UNIVERSES, ids=lambda u: f"{u.d}x{u.side}"
    )
    def test_every_registry_curve_round_trips(self, universe):
        """keys_of/coords_of equal index/coords for every curve that
        instantiates on the universe — native codec or NumPy fallback,
        the caller cannot tell."""
        cells = universe.all_coords()
        for name, curve in curves_for_universe(universe).items():
            for backend in ("numpy", "native", "auto"):
                keys = curve.keys_of(cells, backend=backend)
                assert keys.dtype == np.int64, (name, backend)
                np.testing.assert_array_equal(
                    keys, curve.index(cells), err_msg=f"{name}/{backend}"
                )
                coords = curve.coords_of(keys, backend=backend)
                np.testing.assert_array_equal(
                    coords, cells, err_msg=f"{name}/{backend}"
                )

    @pytest.mark.parametrize(
        "universe", PARITY_UNIVERSES, ids=lambda u: f"{u.d}x{u.side}"
    )
    def test_key_grid_parity(self, universe):
        """The batch encoder and the key grid both reproduce the
        pure-NumPy ``index`` reference grid."""
        cells = universe.all_coords()
        for name, curve in curves_for_universe(universe).items():
            reference = curve.index(cells).reshape(universe.shape, order="F")
            grid = curve.keys_of(cells, backend="native").reshape(
                universe.shape, order="F"
            )
            np.testing.assert_array_equal(grid, reference, err_msg=name)
            np.testing.assert_array_equal(
                curve.key_grid(), reference, err_msg=name
            )

    def test_transform_curve_routes_through_inner(self, u2_8):
        """A transform wrapper (no native codec of its own) batch-encodes
        via its inner curve's codec and stays exact."""
        curve = CurveSpec.parse("reversed:inner=hilbert").make(u2_8)
        cells = u2_8.all_coords()
        np.testing.assert_array_equal(
            curve.keys_of(cells, backend="native"), curve.index(cells)
        )
        np.testing.assert_array_equal(
            curve.coords_of(curve.index(cells), backend="native"), cells
        )

    @requires_native
    def test_native_codec_actually_engages(self, u2_8):
        """Guard against silently falling back everywhere: the four
        analytic families do get a codec on a pow-2 grid."""
        for spec in ("z", "gray", "hilbert", "snake"):
            curve = CurveSpec.parse(spec).make(u2_8)
            assert native.encoder_for(curve) is not None, spec

    @requires_native
    def test_degenerate_and_unsupported_get_no_codec(self):
        u_one = Universe(d=2, side=1)
        for name, curve in curves_for_universe(u_one).items():
            assert native.encoder_for(curve) is None, name


# ----------------------------------------------------------------------
# Slab encode parity: every curve x d x side x slab x backend
# ----------------------------------------------------------------------
SLAB_UNIVERSES = [
    Universe(d=d, side=side) for d in range(1, 6) for side in (1, 2, 3, 5, 8)
]


def _slab_curves(universe: Universe) -> dict:
    """Every registered curve on ``universe``, hidden wrappers included,
    plus wrappers around an any-side inner curve."""
    names = available_curves(include_hidden=True)
    curves = curves_for_universe(universe, names=names)
    for spec in ("reversed:inner=snake", "reversed:inner=random",
                 "reflected:inner=simple", "axisperm:inner=snake"):
        if spec.startswith("axisperm") and universe.d != 2:
            continue
        curves[spec] = CurveSpec.parse(spec).make(universe)
    return curves


def _slab_bounds(side: int) -> list:
    """Full, partial (first, middle, last planes) and empty slabs."""
    bounds = {(0, side), (0, 0), (side, side), (0, 1), (side - 1, side),
              (side // 2, side), (1, side - 1), (side // 2, side // 2)}
    return sorted((lo, hi) for lo, hi in bounds if 0 <= lo <= hi <= side)


class TestKeySlabParity:
    @pytest.mark.parametrize(
        "universe", SLAB_UNIVERSES, ids=lambda u: f"{u.d}x{u.side}"
    )
    def test_every_curve_slab_equals_index(self, universe):
        """``key_slab`` (native box codec, table slice or NumPy
        fallback) equals the pure-NumPy ``index`` over all cells."""
        cells = universe.all_coords()
        tail = (universe.side,) * (universe.d - 1)
        for name, curve in _slab_curves(universe).items():
            reference = curve.index(cells).reshape(universe.shape, order="F")
            for backend in ("numpy", "native"):
                for lo, hi in _slab_bounds(universe.side):
                    slab = curve.key_slab(lo, hi, backend=backend)
                    msg = f"{name}/{backend}/[{lo}:{hi}]"
                    assert slab.dtype == np.int64, msg
                    assert slab.shape == (hi - lo,) + tail, msg
                    assert slab.flags.c_contiguous, msg
                    np.testing.assert_array_equal(
                        slab, reference[lo:hi], err_msg=msg
                    )

    def test_permutation_curve_slab_is_a_table_copy(self, u2_8):
        curve = CurveSpec.parse("random:seed=5").make(u2_8)
        slab = curve.key_slab(2, 5)
        np.testing.assert_array_equal(slab, curve.key_grid()[2:5])
        assert not np.shares_memory(slab, curve.key_grid())
        slab[...] = -1  # the caller owns the copy
        assert curve.key_grid().min() == 0

    def test_permutation_curve_slab_skips_coordinates(
        self, u2_8, monkeypatch
    ):
        curve = CurveSpec.parse("random:seed=5").make(u2_8)

        def no_lookup(*args, **kwargs):
            raise AssertionError("table slabs must not encode coordinates")

        monkeypatch.setattr(curve, "keys_of", no_lookup)
        monkeypatch.setattr(curve, "_index_impl", no_lookup)
        assert curve.key_slab(0, 8).shape == u2_8.shape

    @pytest.mark.parametrize("inner", ["hilbert", "random:seed=2", "snake"])
    def test_reversed_curve_slab_equals_index(self, u2_8, inner):
        curve = CurveSpec.parse(f"reversed:inner={inner}").make(u2_8)
        reference = curve.index(u2_8.all_coords()).reshape(
            u2_8.shape, order="F"
        )
        for backend in ("numpy", "native"):
            np.testing.assert_array_equal(
                curve.key_slab(3, 7, backend=backend), reference[3:7]
            )

    @requires_native
    def test_box_codec_engages_without_coordinates(self, u2_8, monkeypatch):
        """The native path writes keys from the slab bounds alone: it
        never calls the point encoder or the coordinate validator."""
        curve = CurveSpec.parse("hilbert").make(u2_8)
        expected = curve.index(u2_8.all_coords()).reshape(
            u2_8.shape, order="F"
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("box encode must not build coordinates")

        monkeypatch.setattr(curve, "keys_of", forbidden)
        monkeypatch.setattr(Universe, "validate_coords", forbidden)
        np.testing.assert_array_equal(
            curve.key_slab(0, 8, backend="native"), expected
        )


class TestKeySlabInputs:
    @pytest.mark.parametrize("lo, hi", [(0.0, 4), (0, "4"), (None, 4),
                                        (True, 4), (0, np.float64(4))])
    def test_non_int_bounds_raise(self, u2_8, lo, hi):
        curve = CurveSpec.parse("hilbert").make(u2_8)
        with pytest.raises(ValueError, match="must be an int"):
            curve.key_slab(lo, hi)

    @pytest.mark.parametrize("lo, hi", [(-1, 4), (0, 9), (5, 4), (9, 9)])
    def test_out_of_range_bounds_raise(self, u2_8, lo, hi):
        for spec in ("hilbert", "random", "reversed:inner=z"):
            curve = CurveSpec.parse(spec).make(u2_8)
            for backend in ("numpy", "native"):
                with pytest.raises(ValueError, match="0 <= lo <= hi"):
                    curve.key_slab(lo, hi, backend=backend)

    def test_numpy_integer_bounds_accepted(self, u2_8):
        curve = CurveSpec.parse("z").make(u2_8)
        np.testing.assert_array_equal(
            curve.key_slab(np.int64(1), np.int32(3)), curve.key_slab(1, 3)
        )

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_empty_slab_shape(self, backend):
        universe = Universe(d=3, side=4)
        for spec in ("hilbert", "snake", "random", "reversed:inner=gray"):
            curve = CurveSpec.parse(spec).make(universe)
            slab = curve.key_slab(2, 2, backend=backend)
            assert slab.shape == (0, 4, 4), spec
            assert slab.dtype == np.int64, spec

    @pytest.mark.parametrize("backend", ["numpy", "native"])
    def test_one_dimensional_universe(self, backend):
        universe = Universe(d=1, side=16)
        for spec in ("hilbert", "z", "gray", "snake", "simple"):
            curve = CurveSpec.parse(spec).make(universe)
            reference = curve.index(universe.all_coords())
            np.testing.assert_array_equal(
                curve.key_slab(3, 11, backend=backend), reference[3:11]
            )

    def test_single_cell_side_takes_numpy_fallback(self):
        universe = Universe(d=3, side=1)
        for spec in ("hilbert", "z", "gray", "snake"):
            curve = CurveSpec.parse(spec).make(universe)
            assert native.encoder_for(curve) is None, spec
            slab = curve.key_slab(0, 1, backend="native")
            assert slab.shape == (1, 1, 1) and slab[0, 0, 0] == 0, spec

    def test_wide_keys_take_numpy_fallback(self):
        """``k * d > 62`` has no native codec: the NumPy path handles
        the slab and raises its own key-width error."""
        universe = Universe(d=9, side=128)  # k * d = 63
        for spec in ("z", "gray", "hilbert"):
            curve = CurveSpec.parse(spec).make(universe)
            assert native.encoder_for(curve) is None, spec
            with pytest.raises(ValueError, match="exceeds int64"):
                curve.index(np.empty((0, 9), dtype=np.int64))
            with pytest.raises(ValueError, match="exceeds int64"):
                curve.key_slab(0, 0, backend="native")


# ----------------------------------------------------------------------
# Metric parity matrix: {dense, chunked, threaded} x {numpy, native}
# ----------------------------------------------------------------------
MATRIX_SPECS = ("hilbert", "z", "snake")
MATRIX_UNIVERSES = [Universe(d=2, side=8), Universe(d=3, side=4)]


def _metric_values(ctx: MetricContext) -> dict:
    return {
        "davg": ctx.davg(),
        "dmax": ctx.dmax(),
        "lambdas": ctx.lambda_sums().tolist(),
        "nn_mean": ctx.nn_mean(),
        "dilation3_man": ctx.window_dilation(3, metric="manhattan"),
        "dilation3_euc": ctx.window_dilation(3, metric="euclidean"),
    }


@requires_native
class TestMetricParityMatrix:
    @pytest.mark.parametrize(
        "universe", MATRIX_UNIVERSES, ids=lambda u: f"{u.d}x{u.side}"
    )
    @pytest.mark.parametrize("spec", MATRIX_SPECS)
    @pytest.mark.parametrize(
        "mode",
        ["dense", "chunked", "threaded"],
    )
    def test_native_equals_numpy_exactly(self, universe, spec, mode):
        kwargs = {}
        if mode == "chunked":
            kwargs["chunk_cells"] = 17  # awkward block size on purpose
        elif mode == "threaded":
            kwargs["chunk_cells"] = 17
            kwargs["threads"] = 3
        curve = CurveSpec.parse(spec).make(universe)
        got = _metric_values(
            MetricContext(curve, backend="native", **kwargs)
        )
        want = _metric_values(
            MetricContext(curve, backend="numpy", **kwargs)
        )
        # Exact equality, floats included: the C kernels only produce
        # int64 partials; float math stays in Python on both paths.
        assert got == want

    def test_dense_native_matches_dense_numpy_per_cell_grids(self, u2_8):
        curve = CurveSpec.parse("hilbert").make(u2_8)
        nat = MetricContext(curve, backend="native")
        ref = MetricContext(curve, backend="numpy")
        np.testing.assert_array_equal(
            nat.per_cell_stretch_sums()[0], ref.per_cell_stretch_sums()[0]
        )
        np.testing.assert_array_equal(
            nat.per_cell_max_stretch(), ref.per_cell_max_stretch()
        )
        np.testing.assert_array_equal(
            nat.neighbor_counts(), ref.neighbor_counts()
        )


# ----------------------------------------------------------------------
# Sweep integration: backend knob, per-cell backend accounting
# ----------------------------------------------------------------------
class TestSweepBackend:
    def test_invalid_backend_fails_at_plan_time(self):
        with pytest.raises(ValueError, match="backend"):
            Sweep(dims=[2], sides=[4], backend="cuda").run()

    def test_backend_parity_across_sweeps(self):
        base = dict(
            dims=[2],
            sides=[8],
            curves=["z", "hilbert", "reversed:inner=hilbert"],
            metrics=["davg", "dmax", "nn_mean", "lambdas"],
            reports=False,
        )
        numpy_run = Sweep(backend="numpy", **base).run()
        native_run = Sweep(backend="native", **base).run()
        for a, b in zip(numpy_run.records, native_run.records):
            assert a.spec == b.spec
            assert a.values == b.values  # exact, floats included

    def test_stats_record_serving_backend(self):
        result = Sweep(
            dims=[2], sides=[8], curves=["z"], metrics=["davg"],
            reports=False, backend="numpy",
        ).run()
        assert result.cache_stats.backends == {"numpy": 1}

    @requires_native
    def test_stats_record_native_cells(self):
        result = Sweep(
            dims=[2], sides=[8], curves=["z", "hilbert"],
            metrics=["davg"], reports=False, backend="native",
        ).run()
        assert result.cache_stats.backends == {"native": 2}


# ----------------------------------------------------------------------
# Build pipeline hygiene
# ----------------------------------------------------------------------
@requires_native
class TestBuildPipeline:
    def test_so_and_build_log_exist(self):
        info = native.build_info()
        assert os.path.exists(info["so_path"])
        assert os.path.exists(info["build_log"])

    def test_cache_dir_override(self, fresh_native, tmp_path):
        fresh_native.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        assert native.available()
        assert str(native.build_info()["so_path"]).startswith(str(tmp_path))


# ----------------------------------------------------------------------
# Warn-once state: observable, resettable, test-isolated
# ----------------------------------------------------------------------
class TestWarnOnceIsolation:
    def test_warned_once_tracks_the_warning(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        assert native.warned_once() is False
        with pytest.warns(RuntimeWarning, match="falling back"):
            native.resolve_backend("native")
        assert native.warned_once() is True

    def test_reset_warned_rearms_without_forgetting_load(self, fresh_native):
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        with pytest.warns(RuntimeWarning):
            native.resolve_backend("native")
        native.reset_warned()
        assert native.warned_once() is False
        # The warning fires again; the memoized load attempt does not
        # re-probe (reset_warned is narrower than reset_for_tests).
        with pytest.warns(RuntimeWarning, match="falling back"):
            native.resolve_backend("native")

    def test_suite_order_cannot_spend_the_warning(self, fresh_native):
        """The autouse conftest fixture restores warn-once state, so a
        test that triggers the warning cannot mask it for later tests.
        Simulate two 'tests' back to back."""
        fresh_native.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        with pytest.warns(RuntimeWarning):
            native.resolve_backend("native")
        native.reset_warned()  # what the autouse fixture does on teardown
        with pytest.warns(RuntimeWarning):
            native.resolve_backend("native")
