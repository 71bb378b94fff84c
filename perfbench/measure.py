"""One run of one benchmark workload, in a process of its own.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src``, private directories for the native build cache
and temporary files, and the native kernels already built.  It prints
one JSON object, which ``run.py`` turns into the benchmark's result.

``--probe`` only performs the workload's set-up, reports its time and
tears it down; ``run.py`` starts several probes per run so that
``setup_s`` is a median.

The set-up clock starts before NumPy and the program are imported, so
``setup_s`` covers import and native-kernel load plus the workload's
own set-up.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

CURVES = ("hilbert", "z", "gray", "snake", "reversed:inner=hilbert")
METRICS = ("davg", "dmax", "nn_mean")
HOT_SET = "hilbert@2x512;gray@2x512;z@3x64"

#: Requests of one serve-mixed block, per connection: about 60% warm
#: sweeps, 35% dynamic steps and 5% cold sweeps.  Fixed counts per
#: block keep every run's mix, and so its cold-spec count and memory,
#: identical.
BLOCK = ("warm",) * 12 + ("step",) * 7 + ("cold",)
WARM_BODIES = (
    {"universes": [[2, 512]], "curves": ["hilbert", "gray"],
     "metrics": list(METRICS)},
    {"universes": [[3, 64]], "curves": ["z"], "metrics": list(METRICS)},
)
DEDUPED = re.compile(rb'"deduped_cells": \d+')
#: Iterations of the calibration loop, and the loop's time (ms) on the
#: reference host (2 vCPU Intel Xeon, unloaded) that normalised
#: timings are expressed in.
CAL_LOOPS = 200_000
CAL_NOMINAL_MS = 11.0
SESSION_POINTS = 20_000
MOVES_PER_STEP = 64
CONNECTIONS = 2


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def calibrate(reps: int = 1) -> float:
    """Median time (ms) of a fixed pure-Python loop: the host's speed now.

    The host this benchmark was written on switches between speed
    regimes over tens of seconds (the same op took 270 or 410 ms), and
    this loop slows by the same factor, so timings scaled by
    ``CAL_NOMINAL_MS / calibrate()`` stay comparable across regimes.
    """
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def stats_dict(stats) -> dict:
    """Exact counts of one :class:`CacheStats`, JSON-ready."""
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "computes": dict(sorted(stats.computes.items())),
        "derived": dict(sorted(stats.derived.items())),
        "shared": dict(sorted(stats.shared.items())),
        "mmap": dict(sorted(stats.mmap.items())),
        "backends": dict(sorted(stats.backends.items())),
    }


def require_native() -> None:
    """Fail the run when the native kernels do not load.

    Without them the program falls back to NumPy kernels, which would
    be a measurement of a different program.
    """
    from repro.engine import native

    if not native.available():
        raise RuntimeError(
            f"native kernels unavailable: {native.unavailable_reason()}"
        )


class ErrorLog(logging.Handler):
    """Counts asyncio errors such as a task destroyed while pending."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record) -> None:
        self.messages.append(record.getMessage())
        print(f"asyncio error: {record.getMessage()}", file=sys.stderr)


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class BatchWorkload:
    """A workload whose op is one ``Sweep.run`` over a fixed matrix."""

    universes = ()
    #: Measured ops per second of ``--seconds``.
    rate = 1.0
    warmup_ops = 2

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    @property
    def cells(self) -> int:
        return len(self.universes) * len(CURVES)

    def sweep(self, **kwargs):
        from repro.engine import Sweep
        from repro.grid.universe import Universe

        return Sweep(
            universes=[Universe(d=d, side=side) for d, side in self.universes],
            curves=CURVES,
            metrics=METRICS,
            **kwargs,
        )

    def setup(self) -> None:
        require_native()

    def op(self):
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def reference(self) -> dict:
        """Per-cell values computed once, dense, through NumPy."""
        result = self.sweep(backend="numpy", chunk_cells=0, reports=False).run()
        return {(r.spec, r.d, r.side): dict(r.values) for r in result.records}


class ColdSweep(BatchWorkload):
    """Fresh serial sweeps: encoding and the metric kernels dominate."""

    universes = ((2, 256), (2, 512), (3, 32), (3, 64))
    rate = 3.4

    def op(self):
        return self.sweep(max_bytes=1 << 20, threads=None, backend="auto").run()


class StoreParallel(BatchWorkload):
    """Two-process sweeps served warm from a filled ``GridStore``."""

    universes = ((2, 512), (3, 64))
    rate = 4.0

    def setup(self) -> None:
        super().setup()
        self.store_dir = os.path.join(self.work_dir, "store")
        self.sweep(store_dir=self.store_dir).run()

    def op(self):
        return self.sweep(processes=2, store_dir=self.store_dir).run()

    def teardown(self) -> None:
        import shutil

        shutil.rmtree(self.store_dir, ignore_errors=True)

    def store_state(self) -> dict:
        from repro.engine.store import GridStore

        store = GridStore(self.store_dir)
        return {
            "entries": len(store.entries()),
            "nbytes": store.nbytes,
            "quarantined": store.quarantined_count(),
        }


def summarise(result):
    """What the checks need from one ``SweepResult``."""
    return (
        [
            (r.spec, r.d, r.side, dict(r.values),
             None if r.report is None else r.report.lower_bound)
            for r in result.records
        ],
        len(result.skipped),
        stats_dict(result.cache_stats),
    )


def check_batch(w: BatchWorkload, summaries) -> dict:
    """``{op index: problem}`` of records against the NumPy reference."""
    reference = w.reference()
    problems = {}
    for index, summary in enumerate(summaries):
        if summary is None:
            continue
        records, skipped, _ = summary
        found = []
        if skipped or len(records) != w.cells:
            found.append(f"{len(records)} records, {skipped} skipped")
        for spec, d, side, values, lower_bound in records:
            if values != reference.get((spec, d, side)):
                found.append(f"{spec}@{d}x{side}: {values} != reference")
            if lower_bound is None or not values["davg"] >= lower_bound:
                found.append(
                    f"{spec}@{d}x{side}: davg {values['davg']} below the "
                    f"Theorem 1 bound {lower_bound}"
                )
        if found:
            problems[index] = "; ".join(found[:3])
    return problems


def run_batch(w: BatchWorkload, args, rec) -> dict:
    """Warm-up ops, then a fixed number of timed ops, then the checks.

    In a traced run the first half of the ops runs untraced and the
    second half traced; their medians give the tracing overhead.
    """
    w.setup()
    setup_s = time.perf_counter() - _T0
    setup_cal = calibrate(3)
    if rec is not None:
        import layers

        rec.grid_stores.clear()
    n_ops = max(1, math.ceil(args.seconds * w.rate))
    errors = {}
    summaries = []
    # (traced, seconds, op index) of every measured op; cals[i] is the
    # calibration taken just before op i (and one after the last op).
    ops = []
    cals = []
    traced_stats = []
    cache_bytes = contexts = 0
    for i in range(w.warmup_ops + n_ops):
        traced = rec is not None and i >= w.warmup_ops + n_ops - n_ops // 2
        gc.collect()
        cals.append(calibrate())
        if traced:
            rec.phase, rec.active = "op", True
        start = time.perf_counter()
        try:
            summary = summarise(w.op())
        except Exception as exc:
            summary = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            rec.active = False
            state = layers.pool_state(rec)
            cache_bytes = max(cache_bytes, state[0])
            contexts = max(contexts, state[1])
            rec.pool_readings.clear()
            if summary is not None:
                traced_stats.append(summary[2])
        summaries.append(summary)
        if i >= w.warmup_ops:
            ops.append((traced, elapsed, i))
    cals.append(calibrate())
    peak = peak_rss_mib()
    # Worker processes only exist on store-parallel; elsewhere the cells
    # are computed in this process.
    workers = peak
    if isinstance(w, StoreParallel):
        workers = peak_rss_mib(resource.RUSAGE_CHILDREN)
    errors.update(check_batch(w, summaries))
    failures = [
        (f"warm-up op {i}" if i < w.warmup_ops else f"op {i - w.warmup_ops}")
        + f": {msg}"
        for i, msg in sorted(errors.items())
    ]

    op_stats = [s[2] for s in summaries[w.warmup_ops:] if s is not None]
    counts = {"cache_stats_per_op": op_stats[0] if op_stats else {}}
    varying = sorted({key for s in op_stats for key in s if s[key] != op_stats[0][key]})
    if varying:
        counts["cache_stats_varying_across_ops"] = varying
    if isinstance(w, StoreParallel):
        counts["grid_store_on_disk"] = w.store_state()
    w.teardown()

    def scale(i):
        """Normalising factor of op ``i``: from the calibrations around it."""
        return CAL_NOMINAL_MS / float(np.median(cals[max(0, i - 1):i + 3]))

    raw = {False: [], True: []}
    latency = {False: [], True: []}
    for traced, elapsed, i in ops:
        raw[traced].append(elapsed * 1e3)
        latency[traced].append(elapsed * 1e3 * scale(i))
    latencies_ms = latency[False]
    n = len(latencies_ms)
    out = {
        "setup_s": setup_s * CAL_NOMINAL_MS / setup_cal,
        "raw_setup_s": setup_s,
        "attempted": w.warmup_ops + n_ops,
        "failed": len(failures),
        "failures": failures,
        "counts": counts,
        "named": {
            "peak_rss_mib": (peak, "MiB", 1),
            "worker_peak_rss_mib": (workers, "MiB", 1),
            "cells_per_s": (w.cells * n * 1e3 / sum(latencies_ms), "1/s", n),
            "sweep_p50_ms": (percentile(latencies_ms, 50), "ms", n),
            "sweep_p90_ms": (percentile(latencies_ms, 90), "ms", n),
            "requests_per_s": (n * 1e3 / sum(latencies_ms), "1/s", n),
            "host_cal_ms": (float(np.median(cals)), "ms", len(cals)),
            "raw_sweep_p50_ms": (percentile(raw[False], 50), "ms", n),
            "raw_sweep_p90_ms": (percentile(raw[False], 90), "ms", n),
            "raw_cells_per_s": (w.cells * n * 1e3 / sum(raw[False]), "1/s", n),
        },
    }
    if rec is not None:
        totals = {key: 0 for key in ("hits", "misses", "evictions", "computes",
                                     "derived", "shared", "mmap")}
        for stats in traced_stats:
            for key in totals:
                value = stats[key]
                totals[key] += sum(value.values()) if isinstance(value, dict) else value
        lookups = totals["hits"] + totals["misses"]
        store = layers.store_counters(rec)
        traced_ms = latency[True]
        given = {
            "context.computes": totals["computes"],
            "context.derived": totals["derived"],
            "context.shared": totals["shared"],
            "context.mmap": totals["mmap"],
            "context.hit_rate": totals["hits"] / lookups if lookups else 0.0,
            "context.evictions": totals["evictions"],
            "context.cache_bytes": cache_bytes,
            "pool.contexts": contexts,
            "store.hits": store.get("hits", 0),
            "store.rejected": store.get("rejected", 0),
            "store.io_errors": store.get("io_errors", 0),
            "singleflight.dedup_share": 0.0,
            "app.unattributed_ms": 0.0,
            "trace.overhead_ms": (
                percentile(traced_ms, 50) - percentile(latencies_ms, 50)
            ),
        }
        counts["grid_store_stats_traced"] = store
        out["per_layer"] = layers.layer_metrics(rec, len(traced_ms), given)
        out["table"] = rec.self_time_table(
            len(traced_ms),
            wall_ms=float(np.mean(traced_ms)),
            unattributed_ms=out["per_layer"]["sweep.unattributed_ms"],
            root="sweep/run",
        )
    return out


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 client connection (asyncio streams)."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def call(self, method: str, path: str, body: bytes = b""):
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def encode(body: dict) -> bytes:
    return json.dumps(body).encode("utf-8")


def connection_plan(seed: int, conn: int, blocks: int):
    """The create request and ``blocks`` request blocks of one connection.

    Everything comes from ``(seed, conn)``: block order, warm bodies,
    move streams and cold-curve seeds, which are distinct across the
    run so each cold request names a spec the server has never seen.
    """
    rng = np.random.default_rng([seed, conn])
    session = f"conn{conn}"
    create = encode({
        "session": session,
        "create": {"d": 2, "side": 256, "curve": "hilbert",
                   "seed_points": SESSION_POINTS,
                   "seed": int(rng.integers(2**31))},
        "moves": [],
    })
    cold_seed = (seed % 10_000) * 100_000 + conn * 50_000
    plan = []
    for _ in range(blocks):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        block = []
        for kind in kinds:
            if kind == "warm":
                body = WARM_BODIES[int(rng.integers(2))]
                block.append(("warm", "/sweep", encode(body)))
            elif kind == "cold":
                cold_seed += 1
                block.append(("cold", "/sweep", encode({
                    "universes": [[2, 256]],
                    "curves": [f"random:seed={cold_seed}"],
                    "metrics": list(METRICS),
                })))
            else:
                pids = rng.integers(0, SESSION_POINTS, MOVES_PER_STEP)
                coords = rng.integers(0, 256, (MOVES_PER_STEP, 2))
                block.append(("step", "/dynamic/step", encode({
                    "session": session,
                    "moves": [
                        {"op": "move", "id": int(p), "coords": [int(x), int(y)]}
                        for p, (x, y) in zip(pids, coords)
                    ],
                })))
        plan.append(block)
    return session, create, plan


class ServeMixed:
    """A closed loop of two keep-alive connections against the server."""

    #: Measured blocks per connection per second of ``--seconds``.
    rate = 2.7

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.conns = []

    def setup(self, blocks: int = 0):
        from repro.serve import BackgroundServer, ServeConfig, parse_hot_set

        require_native()
        self.server = BackgroundServer(ServeConfig(
            host="127.0.0.1", port=0, hot_set=parse_hot_set(HOT_SET),
            threads="auto",
        ))
        self.plans = [connection_plan(self.seed, c, blocks) for c in range(CONNECTIONS)]

        async def connect_and_create():
            conns = [await Connection.open(self.server.port) for _ in self.plans]
            replies = await asyncio.gather(*(
                conn.call("POST", "/dynamic/step", plan[1])
                for conn, plan in zip(conns, self.plans)
            ))
            return conns, replies

        self.conns, replies = self.loop.run_until_complete(connect_and_create())
        bad = [status for status, _ in replies if status != 200]
        if bad:
            raise RuntimeError(f"session create answered {bad}")

    def run_blocks(self, first: int, last: int):
        """Blocks ``[first, last)`` of every connection, concurrently."""

        async def drive(conn, plan, out):
            for block in plan[first:last]:
                for kind, path, body in block:
                    start = time.perf_counter()
                    status, payload = await conn.call("POST", path, body)
                    elapsed = time.perf_counter() - start
                    out.append((kind, elapsed, status, body, payload))

        results = [[] for _ in self.conns]

        async def both():
            await asyncio.gather(*(
                drive(conn, plan[2], out)
                for conn, plan, out in zip(self.conns, self.plans, results)
            ))

        start = time.perf_counter()
        self.loop.run_until_complete(both())
        return results, time.perf_counter() - start

    def get(self, method: str, path: str, body: bytes = b"", conn: int = 0):
        status, payload = self.loop.run_until_complete(
            self.conns[conn].call(method, path, body)
        )
        return status, json.loads(payload)

    def teardown(self) -> None:
        """Close the client connections before stopping the server."""
        if self.conns:

            async def close_all():
                await asyncio.gather(*(conn.close() for conn in self.conns))

            self.loop.run_until_complete(close_all())
            self.conns = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.loop.close()


def stats_delta(before: dict, after: dict) -> dict:
    """``/stats`` counters and cache totals accrued between snapshots."""

    def flat(stats):
        out = {f"counters.{k}": v for k, v in stats["counters"].items()}
        for key, value in stats["cache"].items():
            if isinstance(value, dict):
                out[f"cache.{key}"] = sum(value.values())
            elif key != "hit_rate":
                out[f"cache.{key}"] = value
        return out

    a, b = flat(before), flat(after)
    return {
        key: b[key] - a.get(key, 0) for key in sorted(b)
        if key != "counters.max_batch"  # a maximum, not a running total
    }


def check_serve(results, warm_first) -> tuple:
    """``(one failure per bad request, cold records to recheck)``."""
    failures = []
    colds = []
    for conn_results in results:
        for kind, _, status, body, payload in conn_results:
            problem = None
            if status != 200:
                problem = f"{kind} answered {status}: {payload[:200]!r}"
            elif kind == "warm":
                # deduped_cells reports whether this request coalesced
                # with the other connection's identical in-flight cells,
                # which timing decides; every other byte must repeat.
                payload = DEDUPED.sub(b'"deduped_cells": _', payload)
                first = warm_first.setdefault(body, payload)
                if payload != first:
                    problem = "warm response differs from the first response"
            elif kind == "cold":
                colds.append((json.loads(body)["curves"][0], json.loads(payload)))
            if problem is not None:
                failures.append(problem)
    return failures, colds


def check_steps(results) -> list:
    """Each session's step numbers count up by one per batch."""
    failures = []
    for conn, conn_results in enumerate(results):
        expected = 0
        for kind, _, status, _, payload in conn_results:
            if kind != "step" or status != 200:
                continue
            expected += 1
            step = json.loads(payload).get("step")
            if step != expected:
                failures.append(f"conn{conn}: step {step}, expected {expected}")
                break
    return failures


def check_colds(colds) -> list:
    """Cold records against an in-process ``Sweep`` of the same specs."""
    from repro.engine import Sweep
    from repro.grid.universe import Universe

    failures = []
    for start in range(0, len(colds), 10):
        chunk = colds[start:start + 10]
        result = Sweep(
            universes=[Universe(d=2, side=256)],
            curves=[spec for spec, _ in chunk],
            metrics=METRICS,
        ).run()
        for (spec, payload), record in zip(chunk, result.records):
            served = payload["records"][0]["values"] if payload.get("records") else None
            if served != dict(record.values):
                failures.append(f"cold {spec}: served {served} != {record.values}")
            elif not record.values["davg"] >= record.report.lower_bound:
                failures.append(f"cold {spec}: davg below the Theorem 1 bound")
    return failures


def run_serve(args, rec) -> dict:
    """Warm-up block, then the measured blocks, then the checks.

    In a traced run the first half of the blocks runs untraced and the
    second half traced; their medians give the tracing overhead.
    """
    w = ServeMixed(args.seed)
    blocks = max(1, math.ceil(args.seconds * w.rate))
    # One warm-up block per connection, then the measured blocks.
    w.setup(blocks + 1)
    setup_s = time.perf_counter() - _T0
    setup_cal = calibrate(3)
    warm_first = {}
    warmup, _ = w.run_blocks(0, 1)
    failures, colds = check_serve(warmup, warm_first)
    phases = [(1, blocks + 1, False)]
    if rec is not None:
        half = 1 + blocks - blocks // 2
        phases = [(1, half, False), (half, blocks + 1, True)]
    measured = {False: ([[] for _ in w.conns], 0.0), True: ([[] for _ in w.conns], 0.0)}
    deltas = {}
    gc.collect()
    cals = [calibrate(3)]
    for first, last, traced in phases:
        _, before = w.get("GET", "/stats")
        if traced:
            rec.phase, rec.active = "op", True
        results, wall = w.run_blocks(first, last)
        if traced:
            rec.active = False
        _, after = w.get("GET", "/stats")
        deltas[traced] = stats_delta(before, after)
        merged = [a + b for a, b in zip(measured[traced][0], results)]
        measured[traced] = (merged, measured[traced][1] + wall)
    peak = peak_rss_mib()
    cals.append(calibrate(3))

    all_results = [a + b for a, b in zip(measured[False][0], measured[True][0])]
    more_failures, more_colds = check_serve(all_results, warm_first)
    failures += more_failures
    colds += more_colds
    failures += check_steps(
        [w_res + m_res for w_res, m_res in zip(warmup, all_results)]
    )
    for conn, (session, _, _) in enumerate(w.plans):
        status, reply = w.get(
            "POST", "/dynamic/step", encode({"session": session, "verify": True}), conn
        )
        if status != 200 or reply.get("parity") is not True:
            failures.append(
                f"{session}: verify step answered {status}, "
                f"parity {reply.get('parity')}"
            )
    if rec is not None:
        # The server reads each pool's stats to answer /stats, which
        # records the pools' end-of-run state.
        rec.phase, rec.active = "end", True
    _, final_stats = w.get("GET", "/stats")
    if rec is not None:
        rec.active = False
    segments = list(final_stats["shm"]["segments"])
    w.teardown()
    failures += check_colds(colds)
    leaked = [name for name in segments if os.path.exists(f"/dev/shm/{name}")]
    if leaked:
        failures.append(f"shared-memory segments left after stop: {leaked}")

    def summary(traced):
        res, wall = measured[traced]
        lat = {"warm": [], "cold": [], "step": []}
        cells = 0
        for conn_results in res:
            for kind, elapsed, status, body, payload in conn_results:
                lat[kind].append(elapsed * 1e3)
                if kind != "step" and status == 200:
                    cells += len(json.loads(payload)["records"])
        return lat, cells, wall

    counts = {
        "stats_delta_measured": deltas[False],
        "stats_final": {
            "counters": final_stats["counters"],
            "cache": {k: v for k, v in final_stats["cache"].items() if k != "hit_rate"},
            "pools": final_stats["pools"],
            "shm_segments": len(segments),
        },
    }
    lat, cells, wall = summary(False)
    sweeps = lat["warm"] + lat["cold"]
    requests = sum(len(v) for v in lat.values())
    out = {
        "setup_s": setup_s * CAL_NOMINAL_MS / setup_cal,
        "raw_setup_s": setup_s,
        "attempted": requests + sum(len(r) for r in warmup),
        "failed": len(failures),
        "failures": failures,
        "counts": counts,
    }
    out["named"] = {
        "peak_rss_mib": (peak, "MiB", 1),
        "worker_peak_rss_mib": (peak, "MiB", 1),
        "cells_per_s": (cells / wall, "1/s", requests),
        "sweep_p50_ms": (percentile(sweeps, 50), "ms", len(sweeps)),
        "sweep_p90_ms": (percentile(sweeps, 90), "ms", len(sweeps)),
        "requests_per_s": (requests / wall, "1/s", requests),
        "warm_p50_ms": (percentile(lat["warm"], 50), "ms", len(lat["warm"])),
        "warm_p99_ms": (percentile(lat["warm"], 99), "ms", len(lat["warm"])),
        "cold_p50_ms": (percentile(lat["cold"], 50), "ms", len(lat["cold"])),
        "cold_p90_ms": (percentile(lat["cold"], 90), "ms", len(lat["cold"])),
        "step_p50_ms": (percentile(lat["step"], 50), "ms", len(lat["step"])),
        "step_p99_ms": (percentile(lat["step"], 99), "ms", len(lat["step"])),
        "moves_per_s": (
            len(lat["step"]) * MOVES_PER_STEP / wall, "1/s", len(lat["step"])
        ),
        "host_cal_ms": (float(np.median(cals)), "ms", len(cals)),
    }
    if rec is not None:
        import layers

        t_lat, _, _ = summary(True)
        traced_all = t_lat["warm"] + t_lat["cold"] + t_lat["step"]
        untraced_all = lat["warm"] + lat["cold"] + lat["step"]
        delta = deltas[True]
        started = delta.get("counters.cells_started", 0)
        deduped = delta.get("counters.deduped_cells", 0)
        lookups = delta.get("cache.hits", 0) + delta.get("cache.misses", 0)
        cache_bytes, contexts = layers.pool_state(rec, "end")
        n = len(traced_all)
        dispatch_ms = rec.total_ms("app/dispatch")
        given = {
            "context.computes": delta.get("cache.computes", 0),
            "context.derived": delta.get("cache.derived", 0),
            "context.shared": delta.get("cache.shared", 0),
            "context.mmap": delta.get("cache.mmap", 0),
            "context.hit_rate": (
                delta.get("cache.hits", 0) / lookups if lookups else 0.0
            ),
            "context.evictions": delta.get("cache.evictions", 0),
            "context.cache_bytes": cache_bytes,
            "pool.contexts": contexts,
            "store.hits": 0,
            "store.rejected": 0,
            "store.io_errors": 0,
            "singleflight.dedup_share": (
                deduped / (started + deduped) if started + deduped else 0.0
            ),
            "app.unattributed_ms": (sum(traced_all) - dispatch_ms) / max(n, 1),
            "trace.overhead_ms": (
                percentile(traced_all, 50) - percentile(untraced_all, 50)
            ),
        }
        counts["stats_delta_traced"] = delta
        out["per_layer"] = layers.layer_metrics(rec, n, given)
        out["table"] = rec.self_time_table(
            n,
            wall_ms=float(np.mean(traced_all)),
            unattributed_ms=given["app.unattributed_ms"],
        )
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
BATCH = {"cold-sweep": ColdSweep, "store-parallel": StoreParallel}
WORKLOADS = (*BATCH, "serve-mixed")


def probe(args) -> dict:
    """Set up, time it, tear down."""
    if args.workload in BATCH:
        w = BATCH[args.workload](args.work_dir)
    else:
        w = ServeMixed(args.seed)
    w.setup()
    setup_s = time.perf_counter() - _T0
    cal = calibrate(3)
    w.teardown()
    return {"setup_s": setup_s * CAL_NOMINAL_MS / cal, "raw_setup_s": setup_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    errors = ErrorLog()
    logging.getLogger("asyncio").addHandler(errors)
    shm_before = shm_segments()
    if args.probe:
        out = probe(args)
    else:
        rec = None
        if args.trace:
            from spans import Recorder

            import layers

            rec = Recorder()
            layers.install(rec)
            rec.active = True
        if args.workload == "serve-mixed":
            out = run_serve(args, rec)
        else:
            out = run_batch(BATCH[args.workload](args.work_dir), args, rec)
        if rec is not None and args.trace_file:
            rec.write_chrome_trace(args.trace_file)
            out["trace_file"] = args.trace_file
            out["dropped_spans"] = rec.dropped
    gc.collect()
    leaked = sorted(shm_segments() - shm_before)
    problems = [f"asyncio: {m}" for m in errors.messages]
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    out.setdefault("failures", []).extend(problems)
    out["failed"] = out.get("failed", 0) + len(problems)
    from multiprocessing import resource_tracker

    # Stop the tracker process shared memory started, and wait for it.
    resource_tracker._resource_tracker._stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
