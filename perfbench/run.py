"""hqloc benchmark: one workload per fresh process, timed from outside the package.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads (see ``workloads.py``): ``train``, ``locate``, ``eval_shots`` and
``compare_grid``; ``all`` runs each in its own subprocess. The package is
imported from ``src/`` next to this directory; without it the benchmark exits
with a nonzero status and prints no result.

Operations run in a closed loop until ``--seconds`` have passed and the
workload's minimum is done (``compare_grid``: the grid plus its first cell
again, or one whole grid when traced). Each operation is gated right after it
is timed: a call that raises, a non-finite or wrong result, or a nonzero CLI
exit counts as failed.

The CPU speed of a shared virtual machine drifts by tens of percent over
minutes, so the gated times are scaled by a machine-speed gauge (``gauge.py``)
read next to them, to seconds at the gauge's reference speed. With
``--trace 0`` the JSON metrics are:

* ``setup_s``: script start to the first timed operation, scaled: importing
  ``hqloc`` plus the median of three repeated set-ups (data and CSVs, and for
  ``locate``/``eval_shots`` training, saving and reloading the model);
* ``op_ref_ms_p50``: median scaled time of one operation;
* ``peak_rss_mb``: peak resident memory of this process (``getrusage``).

The lines before the JSON give the same figures unscaled under the names
users know (``setup_wall_s``, ``epochs_per_s``, ``fixes_per_s``,
``fix_ms_p50``/``fix_ms_p99``, ``grid_s``, ``fail_ratio``) and the
environment, including CPU steal over the run.

With ``--trace 1`` every operation runs twice, untraced and then traced
(``tracing.py``), and the JSON metrics are per-layer figures of the traced
copies. Counts and self times are per operation, so they compare across runs
of any length; the untraced copies are the base of ``trace.overhead_ratio``.
The last line of standard output is always the JSON object.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Plain single-threaded numpy: pin BLAS before numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
WORKLOAD_NAMES = ("train", "locate", "eval_shots", "compare_grid")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hqloc benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def read_cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the machine, from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def environment(jiffies_start) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting a repository that encloses the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hqloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }
    end = read_cpu_jiffies()
    if jiffies_start and end:
        steal, total = end[0] - jiffies_start[0], end[1] - jiffies_start[1]
        env["steal_jiffies"] = steal
        env["steal_share"] = steal / total if total else 0.0
    return env


def import_package():
    """Import ``hqloc`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "hqloc" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'hqloc'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hqloc

    if Path(hqloc.__file__).resolve().parent != SRC / "hqloc":
        raise SystemExit(f"error: imported hqloc from {hqloc.__file__}, not {SRC}")


def timed(fn, i):
    """(seconds, result, exception) of one operation; result is None if it raised."""
    start = time.perf_counter()
    try:
        result, error = fn(i), None
    except Exception as exc:  # a failed operation is counted, the run goes on
        result, error = None, exc
    return time.perf_counter() - start, result, error


def passes(workload, i, result) -> bool:
    try:
        return bool(workload.check(i, result))
    except Exception as exc:  # a gate that cannot read the result fails the operation
        traceback.print_exception(exc, file=sys.stderr)
        return False


def measure(workload, seconds, tracer=None, gauge=None):
    """Closed loop: run operations until time is up and the minimum is met.

    Each operation is gated right after it is timed, and a given gauge is
    read between operations. With a tracer each operation runs untraced, then
    traced inside its own request span, and the run ends on a whole pass so
    that per-operation counts repeat. Returns (untraced durations, traced
    durations, failed operations).
    """
    durations, traced, failed, errors = [], [], 0, 0
    deadline = time.perf_counter() + seconds

    def more(i):
        if tracer is None:
            return i < workload.min_ops or time.perf_counter() < deadline
        return i == 0 or i % workload.ops_per_pass or time.perf_counter() < deadline

    def gated(i, elapsed, result, error, record):
        nonlocal failed, errors
        record.append(elapsed)
        if error is not None:
            errors += 1
            if errors == 1:  # one traceback is enough; the rest are counted
                traceback.print_exception(error, file=sys.stderr)
        failed += not passes(workload, i, result)

    i = 0
    while more(i):
        if gauge is not None:
            gauge.read(i, force=i == 0)
        gated(i, *timed(workload.op, i), durations)
        if tracer is not None:
            tracer.install()
            try:
                with tracer.request(f"bench.{workload.name}"):
                    outcome = timed(workload.op, i)
            finally:
                tracer.uninstall()
            gated(i, *outcome, traced)
        i += 1
    if gauge is not None:
        gauge.read(i, force=True)
    if errors:
        print(f"{errors} operations raised", file=sys.stderr)
    return durations, traced, failed


def layer_metrics(tracer, workload, traced, durations) -> dict:
    """Per-layer metrics of the traced operations, all normalised per operation."""
    from tracing import TRACED_NAMES

    ops = len(traced)
    summary = tracer.summary()
    metrics = {}
    for name in TRACED_NAMES:
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
        metrics[f"{name}.calls"] = (row["calls"] / ops, "count")
        metrics[f"{name}.self_s"] = (row["self_s"] / ops, "s")
        metrics[f"{name}.us_per_call"] = (row["total_s"] / row["calls"] * 1e6 if row["calls"] else 0.0, "us")

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    batch = ("qlayer.q_forward_batch", "qlayer.q_gradient_batch")
    row_sweeps = sum(get(n, "sweeps") for n in batch)
    sweep_s = sum(get(n, "total_s") for n in batch)
    epoch_sweeps, epochs = tracer.epoch_sweeps()
    fixes = ops if workload.op_is_fix else get("train_eval.evaluate_rmse", "items")
    encode_rows = get("qlayer.encode_batch", "items")
    per_fix = (lambda v: v / fixes) if fixes else (lambda v: 0.0)
    metrics.update({
        "qlayer.sweeps_per_epoch": (epoch_sweeps / epochs if epochs else 0.0, "count"),
        "qlayer.row_sweeps": (row_sweeps / ops, "count"),
        "qlayer.ns_per_row_sweep": (sweep_s / row_sweeps * 1e9 if row_sweeps else 0.0, "ns"),
        "qlayer.encode_batch.us_per_row": (
            get("qlayer.encode_batch", "total_s") / encode_rows * 1e6 if encode_rows else 0.0, "us"),
        "circuits.feature_state.calls_per_fix": (per_fix(get("circuits.feature_state", "calls")), "count"),
        "statevector.sample_expect_z.shots": (get("statevector.sample_expect_z", "items") / ops, "count"),
        "statevector.sample_expect_z.calls_per_fix": (
            per_fix(get("statevector.sample_expect_z", "calls")), "count"),
        "statevector.sample_expect_z.shots_per_fix": (
            per_fix(get("statevector.sample_expect_z", "items")), "count"),
        "data.clamped_share": (workload.clamped_share(), "ratio"),
        "workload.fixes": (fixes / ops, "count"),
        "workload.epochs": (epochs / ops, "count"),
        "trace.spans_per_op": (len(tracer.spans) / ops, "count"),
        "trace.base_op_s": (sum(durations) / ops, "s"),
        "trace.overhead_ratio": (sum(traced) / sum(durations), "ratio"),
    })
    return metrics


def run_one(args) -> int:
    jiffies = read_cpu_jiffies()
    import_package()
    import_s = time.perf_counter() - _T0
    import numpy as np

    from gauge import REFERENCE_S, Gauge
    from tracing import Tracer
    from workloads import WORKLOADS

    gauge = Gauge()
    gauge_times = [gauge.sample()]

    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            gauge_times.append(gauge.sample())
        setup_wall_s = import_s + statistics.median(setup_times)
        setup_s = setup_wall_s / statistics.median(gauge_times) * REFERENCE_S
        workload.reference()
        tracer = Tracer() if args.trace else None
        durations, traced, failed = measure(workload, args.seconds, tracer,
                                            None if tracer else gauge)
        failed += workload.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(durations) + len(traced) + workload.run_gates

    headline = [("setup_wall_s", setup_wall_s, "s"), *workload.headline(durations),
                ("peak_rss_mb", peak_rss_mb, "MB"), ("fail_ratio", failed / attempted, "ratio")]
    if tracer is None:
        # Operation time over the gauge time read around it, at the reference speed.
        scaled = np.asarray(durations) / np.asarray(gauge.around(len(durations))) * REFERENCE_S
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref_ms_p50": (float(np.median(scaled)) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        headline += [("setup_s", setup_s, "s"), ("op_ref_ms_p50", *metrics["op_ref_ms_p50"])]
    else:
        metrics = layer_metrics(tracer, workload, traced, durations)

    print(f"workload {workload.name}: seed {args.seed}, {len(durations)} x {workload.op_label}, "
          f"trace {args.trace}")
    for name, value, unit in headline:
        print(f"  {name:<18} {value:>14.6g} {unit}")
    print(f"  failed {failed} of {attempted} attempted")
    print("env " + json.dumps(environment(jiffies), sort_keys=True))
    if tracer is not None:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        print(f"tracing overhead: {sum(traced):.4f} s traced vs {sum(durations):.4f} s untraced "
              f"over {len(traced)} paired ops, ratio {sum(traced) / sum(durations):.4f}; "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then a summary table."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            summary.append((name, "exit", proc.returncode))
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        summary.append((name, "correct" if result["correct"] else "INCORRECT",
                        f"{result['failed']}/{result['attempted']} failed"))
    print("summary")
    for row in summary:
        print("  " + "  ".join(str(v) for v in row))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
