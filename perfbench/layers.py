"""Which program functions the traced run wraps, and the per-layer metrics.

Every ``*_ms`` metric is milliseconds per measured op of the traced
half of the run (an op is one ``Sweep.run`` on the batch workloads and
one HTTP request of any kind on ``serve-mixed``).  It is self time —
the span's duration minus its traced children — except for:

* the container spans ``sweep.run_ms``, ``service.*_ms`` and
  ``app.dispatch_ms``, which are whole durations;
* ``store.put_ms`` and ``dynamic.bulk_load_ms``, which total the
  set-up, where those layers do their work;
* ``batching.queue_wait_ms``, the mean wait per queued cell;
* ``trace.overhead_ms``, the traced minus the untraced median op time.

``pairwise_sum_stream`` pulls its blocks from generators, so its self
time includes producing them, apart from the traced calls inside.
Counts are totals over the traced ops.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from spans import Recorder

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("curves.encode_ms", "ms", "lower"),
    ("curves.cells_encoded", "count", "lower"),
    ("context.key_grid_ms", "ms", "lower"),
    ("context.metric_ms", "ms", "lower"),
    ("context.computes", "count", "lower"),
    ("context.derived", "count", "higher"),
    ("context.shared", "count", "higher"),
    ("context.mmap", "count", "higher"),
    ("context.hit_rate", "ratio", "higher"),
    ("context.evictions", "count", "lower"),
    ("context.cache_bytes", "bytes", "lower"),
    ("native.fold_ms", "ms", "lower"),
    ("native.fold_calls", "count", "lower"),
    ("native.codec_ms", "ms", "lower"),
    ("chunked.reduction_ms", "ms", "lower"),
    ("chunked.sum_stream_ms", "ms", "lower"),
    ("threads.reduction_ms", "ms", "lower"),
    ("pool.get_ms", "ms", "lower"),
    ("pool.contexts", "count", "lower"),
    ("shm.publish_ms", "ms", "lower"),
    ("shm.bytes", "bytes", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.put_ms", "ms", "lower"),
    ("store.hits", "count", "higher"),
    ("store.rejected", "count", "lower"),
    ("store.io_errors", "count", "lower"),
    ("sweep.run_ms", "ms", "lower"),
    ("sweep.unattributed_ms", "ms", "lower"),
    ("dynamic.apply_ms", "ms", "lower"),
    ("dynamic.moves", "count", "higher"),
    ("dynamic.bulk_load_ms", "ms", "lower"),
    ("schemas.parse_ms", "ms", "lower"),
    ("schemas.serialise_ms", "ms", "lower"),
    ("batching.queue_wait_ms", "ms", "lower"),
    ("batching.batches", "count", "lower"),
    ("batching.tasks_per_batch", "count", "higher"),
    ("singleflight.dedup_share", "ratio", "higher"),
    ("service.run_batch_ms", "ms", "lower"),
    ("service.handle_sweep_ms", "ms", "lower"),
    ("service.handle_dynamic_ms", "ms", "lower"),
    ("service.step_wait_ms", "ms", "lower"),
    ("app.dispatch_ms", "ms", "lower"),
    ("app.unattributed_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
)

CURVE_SPANS = ("curves/keys_of", "curves/key_grid", "curves/index")
METRIC_SPANS = (
    "context/davg", "context/dmax", "context/nn_mean", "context/lower_bound",
)


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions; call once, before set-up work.

    The serve stack binds some methods when it starts (the batcher
    keeps ``SweepService.run_batch``), so wrapping must precede
    ``BackgroundServer`` construction.
    """
    from repro.curves.base import SpaceFillingCurve
    from repro.engine import chunked, threads
    from repro.engine.context import MetricContext
    from repro.engine.dynamic import DynamicUniverse
    from repro.engine.native import NativeKernels, _Codec
    from repro.engine.pool import ContextPool
    from repro.engine.shm import SharedGridStore
    from repro.engine.store import GridStore
    from repro.engine.sweep import Sweep
    from repro.serve.app import HttpServer
    from repro.serve.batching import MicroBatcher
    from repro.serve.schemas import (
        DynamicStepRequest,
        DynamicStepResponse,
        SweepRequest,
        SweepResponse,
    )
    from repro.serve.service import SweepService

    # curves: count each batch of cells once, at the outermost encode.
    def count_cells(curve, points, *args, **kwargs):
        span = rec.current()
        while span is not None:
            if span.name in ("curves/index", "curves/keys_of"):
                return
            span = span.parent
        arr = np.asarray(points)
        rec.count("cells_encoded", arr.size // curve.universe.d)

    def curve_classes(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from curve_classes(sub)

    for cls in set(curve_classes(SpaceFillingCurve)):
        for attr in ("keys_of", "index", "key_grid"):
            if attr in cls.__dict__:
                note = count_cells if attr != "key_grid" else None
                rec.patch_method(cls, attr, f"curves/{attr}", note)

    for attr in ("key_grid", "davg", "dmax", "nn_mean", "lower_bound"):
        rec.patch_method(MetricContext, attr, f"context/{attr}")
    rec.patch_method(NativeKernels, "nn_block_pairs", "native/nn_block_pairs")
    rec.patch_method(_Codec, "encode", "native/encode")
    rec.patch_function(chunked, "nn_block_reduction", "chunked/nn_block_reduction")
    rec.patch_function(chunked, "pairwise_sum_stream", "chunked/pairwise_sum_stream")
    rec.patch_function(
        threads, "threaded_nn_reduction", "threads/threaded_nn_reduction"
    )
    rec.patch_method(ContextPool, "get", "pool/get")
    rec.patch_method(
        SharedGridStore, "put", "shm/put",
        lambda store, key, kind, array: rec.count(
            "shm_bytes", np.asarray(array).nbytes
        ),
    )
    rec.patch_method(GridStore, "get", "store/get")
    rec.patch_method(GridStore, "put", "store/put")
    rec.patch_method(Sweep, "run", "sweep/run")
    rec.patch_method(
        DynamicUniverse, "apply", "dynamic/apply",
        lambda dyn, moves, *a, **k: rec.count("moves", len(moves)),
    )
    rec.patch_method(DynamicUniverse, "bulk_load", "dynamic/bulk_load")
    rec.patch_method(SweepRequest, "from_dict", "schemas/parse")
    rec.patch_method(DynamicStepRequest, "from_dict", "schemas/parse")
    rec.patch_method(SweepResponse, "to_dict", "schemas/serialise")
    rec.patch_method(DynamicStepResponse, "to_dict", "schemas/serialise")

    # batching: queue wait runs from enqueue to the run_batch carrying it.
    enqueued: Dict[object, int] = {}

    def note_enqueue(batcher, key, task):
        enqueued[task] = time.perf_counter_ns()

    def note_batch(service, tasks):
        now = time.perf_counter_ns()
        rec.count("batched_tasks", len(tasks))
        for task in tasks:
            start = enqueued.pop(task, None)
            if start is not None:
                rec.count("queue_wait_ns", now - start)
                rec.count("queued_tasks")

    rec.patch_method(MicroBatcher, "enqueue", "batching/enqueue", note_enqueue)
    rec.patch_method(SweepService, "run_batch", "service/run_batch", note_batch)
    rec.patch_method(SweepService, "handle_sweep", "service/handle_sweep")
    rec.patch_method(SweepService, "handle_dynamic", "service/handle_dynamic")
    rec.patch_method(HttpServer, "dispatch", "app/dispatch")

    # Pool state is read where the engine reads the pool's stats: when
    # a sweep is done with the pool, or when the server answers /stats.
    stats_property = ContextPool.__dict__["stats"]

    def pool_stats(pool):
        if rec.active:
            rec.pool_readings.append((rec.phase, pool.cache_bytes, len(pool)))
        return stats_property.fget(pool)

    ContextPool.stats = property(pool_stats, doc=stats_property.__doc__)

    original_init = GridStore.__init__

    def store_init(store, *args, **kwargs):
        original_init(store, *args, **kwargs)
        if rec.active:
            rec.grid_stores.append((rec.phase, store))

    GridStore.__init__ = store_init


def pool_state(rec: Recorder, phase: str = "op") -> Tuple[int, int]:
    """``(cache_bytes, contexts)`` summed over the pool readings of ``phase``."""
    readings = [r for r in rec.pool_readings if r[0] == phase]
    return sum(r[1] for r in readings), sum(r[2] for r in readings)


def store_counters(rec: Recorder) -> Dict[str, int]:
    """``GridStore.stats()`` summed over the stores created in ops."""
    total: Dict[str, int] = {}
    for tag, store in rec.grid_stores:
        if tag != "op":
            continue
        for key, value in store.stats().items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(rec: Recorder, ops: int, given: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from the spans plus ``given``.

    ``given`` carries what the spans cannot: cache and store counters,
    the dedup share, pool state, client-side times.
    """
    per_op = 1.0 / max(ops, 1)
    queued = rec.counter("queued_tasks")
    batches = rec.calls("service/run_batch")
    values = {
        "curves.encode_ms": rec.self_ms(CURVE_SPANS) * per_op,
        "curves.cells_encoded": rec.counter("cells_encoded"),
        "context.key_grid_ms": rec.self_ms("context/key_grid") * per_op,
        "context.metric_ms": rec.self_ms(METRIC_SPANS) * per_op,
        "native.fold_ms": rec.self_ms("native/nn_block_pairs") * per_op,
        "native.fold_calls": rec.calls("native/nn_block_pairs"),
        "native.codec_ms": rec.self_ms("native/encode") * per_op,
        "chunked.reduction_ms": rec.self_ms("chunked/nn_block_reduction") * per_op,
        "chunked.sum_stream_ms": rec.self_ms("chunked/pairwise_sum_stream") * per_op,
        "threads.reduction_ms": rec.self_ms("threads/threaded_nn_reduction") * per_op,
        "pool.get_ms": rec.self_ms("pool/get") * per_op,
        "shm.publish_ms": rec.self_ms("shm/put") * per_op,
        "shm.bytes": rec.counter("shm_bytes"),
        "store.get_ms": rec.self_ms("store/get") * per_op,
        "store.put_ms": rec.self_ms("store/put", phase="setup"),
        "sweep.run_ms": rec.total_ms("sweep/run") * per_op,
        "sweep.unattributed_ms": rec.self_ms("sweep/run") * per_op,
        "dynamic.apply_ms": rec.self_ms("dynamic/apply") * per_op,
        "dynamic.moves": rec.counter("moves"),
        "dynamic.bulk_load_ms": rec.self_ms("dynamic/bulk_load", phase="setup"),
        "schemas.parse_ms": rec.self_ms("schemas/parse") * per_op,
        "schemas.serialise_ms": rec.self_ms("schemas/serialise") * per_op,
        "batching.queue_wait_ms": (
            rec.counter("queue_wait_ns") / 1e6 / queued if queued else 0.0
        ),
        "batching.batches": batches,
        "batching.tasks_per_batch": (
            rec.counter("batched_tasks") / batches if batches else 0.0
        ),
        "service.run_batch_ms": rec.total_ms("service/run_batch") * per_op,
        "service.handle_sweep_ms": rec.total_ms("service/handle_sweep") * per_op,
        "service.handle_dynamic_ms": rec.total_ms("service/handle_dynamic") * per_op,
        "service.step_wait_ms": (
            rec.total_ms("service/handle_dynamic") - rec.total_ms("dynamic/apply")
        ) * per_op,
        "app.dispatch_ms": rec.total_ms("app/dispatch") * per_op,
        "trace.spans": len(rec.select("op")),
    }
    values.update(given)
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: values[name] for name, _, _ in PER_LAYER}
