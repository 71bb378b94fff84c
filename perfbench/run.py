"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (the reasons are in ``BENCHMARK.json``):

* ``cold-sweep`` — fresh serial ``Sweep.run`` calls over a fixed
  20-cell matrix with a 1 MiB cache budget; encoding and the metric
  kernels dominate.
* ``store-parallel`` — ``Sweep(processes=2, store_dir=...)`` over 10
  cells served warm from a ``GridStore`` filled during set-up; process
  orchestration, shared-memory publishing and mmap reads dominate.
* ``serve-mixed`` — a closed loop of two keep-alive connections
  against ``repro serve`` (``BackgroundServer``): warm sweeps of the
  hot set, dynamic steps and cold sweeps of never-seen random curves.

Every run does a fixed number of ops, ``--seconds`` times a per-workload
rate calibrated so that a 30-second run leaves at least ten samples
beyond each reported percentile; a faster program does the same work
sooner instead of more work.  Warm-up ops are discarded, and
``gc.collect()`` runs before each timed op (each timed phase on
``serve-mixed``).  Values are checked outside the timed windows:
batch records with ``==`` against a dense NumPy reference plus the
Theorem 1 bound, warm HTTP responses byte for byte against the first
response, cold responses against an in-process ``Sweep``, and each
dynamic session through a final ``verify`` step.  Any wrong value, leaked
shared-memory segment, leaked temporary file or asyncio error counts as
a failure and makes the command exit with status 1.

The host this was written on (2 vCPU Intel Xeon, shared) switches
between speed regimes over tens of seconds; the same cold-sweep op took
270 ms in one and 410 ms in the other.  So the CPU-bound batch
workloads time a fixed pure-Python calibration loop before every op and
report their timings and rates scaled to a nominal loop time
(``CAL_NOMINAL_MS`` in ``measure.py``); ``setup_s`` is scaled the same
way on every workload.  ``serve-mixed`` timings stay raw wall clock:
most of a warm request is the server's 5 ms batching timer, which does
not scale with host speed.  The unscaled values are printed as
``raw_*`` next to ``host_cal_ms``.

``worker_peak_rss_mib`` is the largest worker process on
``store-parallel``; the other workloads compute their cells in the
measuring process, so there it equals ``peak_rss_mib``.
``failed_share`` (failed / attempted) is printed in the table; the
result line carries it as ``failed`` and ``attempted``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions, times the second half of the ops traced and
reports the per-layer metrics, the tracing overhead (traced minus
untraced median op time), a self-time table with an unattributed row
and a Chrome trace-event file under ``.perfbench-out/``.

The native kernels are compiled into a private cache before the set-up
clock starts, and the run fails if they cannot be built.  ``setup_s``
is the median of several fresh set-ups: the measured run's and those
of short probe processes.  All temporary files live under
``.perfbench-tmp/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-sweep", "store-parallel", "serve-mixed")
#: Extra set-up probes per untraced run; ``setup_s`` is the median of
#: these and the measured run's own set-up.
SETUP_PROBES = 4
#: Each child process must finish within this many seconds.
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench-out"
TMP_DIR = ".perfbench-tmp"

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("worker_peak_rss_mib", "MiB"),
    ("cells_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
)


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build_native() -> dict:
    """Compile the kernels into ``$REPRO_NATIVE_CACHE``; the host fingerprint.

    Raises ``RuntimeError`` when the kernels cannot be built: without
    them the run would measure a different program.
    """
    import numpy

    from repro.engine import native

    native.reset_for_tests()  # load again, from this run's cache
    kernels = native.load_kernels()
    if kernels is None:
        raise RuntimeError(
            f"native kernels unavailable: {native.unavailable_reason()}"
        )
    cc = native.compiler_path()
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, check=False
    ).stdout.splitlines()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": f"{cc}: {version[0] if version else '?'}",
        "native_build": os.path.basename(os.path.dirname(kernels.so_path)),
    }


def run_child(args, env, work_dir, extra=()) -> tuple:
    """Run ``measure.py``; ``(report dict or None, stdout, stderr)``."""
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir, *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or "", f"timed out after {CHILD_TIMEOUT_S}s"
    lines = proc.stdout.strip().splitlines()
    report = None
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    return report, proc.stdout, proc.stderr


def compare_counts(previous: dict, current: dict, prefix: str = "") -> list:
    """Keys whose exact counts differ between two reports."""
    differing = []
    for key in sorted(set(previous) | set(current)):
        a, b = previous.get(key), current.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            differing += compare_counts(a, b, f"{prefix}{key}.")
        elif a != b:
            differing.append(f"{prefix}{key}: {a} -> {b}")
    return differing


def exact_counts(report: dict) -> dict:
    """The counts of a report: everything but its timings."""
    layer = {
        name: m["value"] for name, m in report.get("per_layer", {}).items()
        if m["unit"] != "ms"
    }
    return {"counts": report.get("counts", {}), "per_layer": layer}


def run_workload(args, root: str) -> dict:
    """One workload's result: ``correct``, counts, metrics, report."""
    tmp_root = os.path.join(root, TMP_DIR)
    os.makedirs(tmp_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        return measure(args, root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def measure(args, root: str, run_dir: str) -> dict:
    native_dir = os.path.join(run_dir, "native")
    child_tmp = os.path.join(run_dir, "tmp")
    os.makedirs(child_tmp)
    # Set here so the native build's compiler uses them as well.
    os.environ["TMPDIR"] = child_tmp
    os.environ["REPRO_NATIVE_CACHE"] = native_dir
    fingerprint = build_native()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = []
    if args.trace:
        extra = ["--trace-file", os.path.join(out_dir, f"{stem}.trace.json")]
    work = os.path.join(run_dir, "work")
    os.makedirs(work)
    report, stdout, stderr = run_child(args, env, work, extra)
    sys.stderr.write(stderr)
    if report is None:
        print(stdout, end="")
        raise RuntimeError(f"{args.workload}: the measured run did not finish")
    failures = list(report["failures"])
    failed = report["failed"]
    for marker in ("Task was destroyed but it is pending",
                   "leaked shared_memory"):
        if marker in stderr:
            failures.append(f"stderr reports: {marker}")
            failed += 1

    setups = [report["setup_s"]]
    raw_setups = [report["raw_setup_s"]]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe_work = tempfile.mkdtemp(dir=run_dir)
            probe, _, probe_err = run_child(args, env, probe_work, ["--probe"])
            if probe is None:
                raise RuntimeError(f"set-up probe failed: {probe_err[-2000:]}")
            failures += [f"set-up probe: {f}" for f in probe["failures"]]
            failed += probe["failed"]
            setups.append(probe["setup_s"])
            raw_setups.append(probe["raw_setup_s"])
    leftovers = os.listdir(child_tmp)
    if leftovers:
        failures.append(f"temporary files left behind: {leftovers[:5]}")
        failed += 1

    named = dict(report.get("named", {}))
    named["setup_s"] = (statistics.median(setups), "s", len(setups))
    named["raw_setup_s"] = (statistics.median(raw_setups), "s", len(raw_setups))
    attempted = report["attempted"]
    named["failed_share"] = (failed / attempted, "ratio", attempted)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in named.items()},
        "counts": report["counts"],
    }
    if args.trace:
        from layers import PER_LAYER

        result["per_layer"] = {
            name: {"value": report["per_layer"][name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        result["self_time_table"] = report["table"]
        result["trace_file"] = os.path.relpath(report["trace_file"], root)
        result["dropped_spans"] = report["dropped_spans"]

    path = os.path.join(out_dir, f"{stem}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        result["counts_differing_from_previous_run"] = compare_counts(
            exact_counts(previous), exact_counts(result)
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    result["report_file"] = os.path.relpath(path, root)
    return result


def print_report(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in result["fingerprint"].items()))
    print(f"{'metric':<22} {'value':>14} {'unit':<6} {'samples':>7}")
    for name, m in result["named"].items():
        print(f"{name:<22} {m['value']:>14.4f} {m['unit']:<6} {m['samples']:>7}")
    if "per_layer" in result:
        print(f"{'per-layer metric':<28} {'value':>16} unit")
        for name, m in result["per_layer"].items():
            print(f"{name:<28} {m['value']:>16.4f} {m['unit']}")
        print(result["self_time_table"])
        print(f"trace: {result['trace_file']} "
              f"({result['dropped_spans']} spans dropped)")
    print("counts: " + json.dumps(result["counts"], sort_keys=True))
    differing = result.get("counts_differing_from_previous_run")
    if differing is not None:
        print(f"counts differing from the previous run with this seed: "
              f"{differing if differing else 'none'}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"report: {result['report_file']}")


def metrics_line(result: dict) -> dict:
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": result["named"][name]["value"], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def check_declared(root: str):
    """Why ``BENCHMARK.json`` disagrees with this script, or ``None``."""
    from layers import PER_LAYER

    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)
    pairs = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    if pairs != list(END_TO_END):
        return f"BENCHMARK.json end_to_end {pairs} != {list(END_TO_END)}"
    pairs = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    if pairs != list(PER_LAYER):
        return "BENCHMARK.json per_layer does not match layers.PER_LAYER"
    names = tuple(w["name"] for w in declared["workloads"])
    if names != WORKLOADS:
        return f"BENCHMARK.json workloads {names} != {WORKLOADS}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return fail("run from the root of a checkout: src/repro is missing")
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    mismatch = check_declared(root)
    if mismatch:
        return fail(mismatch)

    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    results = []
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, root)
        except RuntimeError as exc:
            return fail(str(exc), 3)
        print_report(result)
        results.append(result)
    if len(results) == 1:
        line = metrics_line(results[0])
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}/{name}": value
                for r in results
                for name, value in metrics_line(r)["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
