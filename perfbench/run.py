"""drs benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload cv-housing --seed 1729 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with one caller in this process: it runs
one ``drs`` operation (``drs.cli.main`` in-process, see workloads.py),
checks its output, and starts the next while that op, at the median op
time, would end less than half an op after ``--seconds``. A traced run
(``--trace 1``) alternates traced and untraced operations, at least three,
and derives per-layer busy time, self time and exact counts from the spans
(see spans.py); the untraced operations give the tracing overhead. Set-up
time is measured in fresh interpreters, which import numpy and drs and load
the inputs, and is the median of several. Op times are reported in units of
a calibration kernel timed around each op (see ``calibration_s``), and in
seconds beside them.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the benchmark exits with code 2. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans are written to
``perfbench/out/`` when a traced run ends.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
_LIBC_NAME = ctypes.util.find_library("c")
_LIBC = ctypes.CDLL(_LIBC_NAME) if _LIBC_NAME and sys.platform.startswith("linux") else None
if _LIBC is not None:
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int

# Metric names and units, and the default run length, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Metrics that are exact counts: every traced op of a run must repeat them.
COUNTED = ("learners.trees", "learners.nodes", "learners.predict_rows", "rng.calls",
           "region.calls", "measures.calls", "selection.calls", "selection.dws_kept_ratio")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's ``src`` first on the path and import drs from it."""
    if not (SRC / "drs" / "__init__.py").is_file():
        fail(f"no drs sources under {SRC}; run from a full checkout")
    if not (ROOT / workloads.TRAIN_CSV).is_file():
        fail(f"missing {workloads.TRAIN_CSV} in the checkout")
    sys.path.insert(0, str(SRC))
    import drs

    if Path(drs.__file__).resolve().parent != (SRC / "drs").resolve():
        fail(f"imported drs from {drs.__file__}, not from {SRC}")


def stamp(workload: str, seed: int) -> dict:
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "drs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_drs_sha256": digest.hexdigest(),
    }


_PROBE = """\
import sys, time
t0 = time.perf_counter()
import json, numpy, drs.cli, workloads
w = workloads.Workload(**json.loads(sys.argv[1]))
workloads.prepare(w, int(sys.argv[2]), sys.argv[3], sys.argv[4])
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, seed: int, workdir: Path) -> float:
    """Import numpy and drs and load the inputs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(asdict(workload)), str(seed),
         str(ROOT), str(workdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        fail(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


def calibration_s() -> float:
    """Seconds this host takes for a fixed kernel of small numpy calls in a
    Python loop: the kind of work drs's tree fitting does, using no drs code.

    On a shared 2-core virtual machine the speed of the host drifted by a
    quarter and more over minutes, and same-seed ops followed it, CPU time
    included. End-to-end times are therefore reported in units of this
    kernel, timed right before and right after each op.
    """
    rng = np.random.default_rng(0)
    X = rng.random((456, 13))
    y = rng.random(456)
    t0 = time.perf_counter()
    for _ in range(400):
        for m in (456, 200, 100, 50, 25, 12):
            order = np.argsort(X[:m], axis=0, kind="stable")
            xs = np.take_along_axis(X[:m], order, axis=0)
            ys = y[:m][order]
            csum, csq = np.cumsum(ys, axis=0), np.cumsum(ys * ys, axis=0)
            sse = csq[:-1] - csum[:-1] ** 2 / np.arange(1, m)[:, None]
            np.where(xs[:-1] < xs[1:], sse, np.inf).min()
    return time.perf_counter() - t0


def _release_freed_memory():
    """Return the heap that the last op freed to the operating system.

    Without this, how much freed memory glibc keeps varies from run to run,
    and the peak resident memory of the same workload jumped between about
    129 and 142 MB.
    """
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def layer_metrics(profile: dict, counts) -> dict:
    """Per-layer figures of one traced op from its busy/self profile and counts."""
    busy, own = profile["busy"], profile["self"]

    def b(*names):
        return sum(busy.get(name, 0.0) for name in names)

    def calls(layer):
        return sum(n for name, n in counts.items() if name.startswith(layer + "."))

    fit_s = b("learners.generate_ensemble", "learners.fit_individual")
    nodes = counts["nodes"]
    offered = counts["dws_offered"]
    return {
        "learners.fit_s": fit_s,
        "learners.fit_single_s": b("learners.fit_individual"),
        "learners.self_s": own.get("learners", 0.0),
        "learners.trees": counts["trees"],
        "learners.nodes": nodes,
        "learners.fit_us_per_node": 1e6 * fit_s / nodes if nodes else 0.0,
        "learners.predict_s": b("learners.predict_all"),
        "learners.predict_rows": counts["predict_rows"],
        "rng.busy_s": b("rng"),
        "rng.calls": calls("rng"),
        "region.build_s": b("region"),
        "region.calls": calls("region"),
        "measures.score_s": b("measures"),
        "measures.calls": calls("measures"),
        "selection.combine_s": b("selection"),
        "selection.calls": calls("selection"),
        # Useful over attempted for scored members; 0 when no op ran dws.
        "selection.dws_kept_ratio": counts["dws_kept"] / offered if offered else 0.0,
        "datasets.load_s": b("datasets.load_csv"),
        "datasets.norm_s": b("datasets.normalize_minmax", "datasets.apply_normalization"),
        "datasets.split_s": b("datasets.kfold_split"),
        "cli.self_s": own.get("cli", 0.0),
        "bench.self_s": own.get("bench.run_benchmark", 0.0)
        + own.get("bench.run_replication", 0.0),
        "bench.report_s": b("bench.write_outputs", "bench.render_table"),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the report printed by ``main``."""
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        setups = [setup_seconds(workload, seed, workdir) for _ in range(probes)]
        inputs = workloads.prepare(workload, seed, ROOT, workdir)
        problems_seen = []
        attempted = failed = 0

        def one_op(index, jobs, tracer=None):
            nonlocal attempted, failed
            out_dir = workdir / f"op{index}"
            args = workloads.argv(workload, inputs, seed, out_dir, jobs)
            with tracer.installed() if tracer else nullcontext():
                cpu0 = _cpu_seconds()
                t0 = time.perf_counter()
                with tracer.op(index) if tracer else nullcontext():
                    code, stdout, stderr = workloads.run_op(args)
                wall = time.perf_counter() - t0
                cpu = _cpu_seconds() - cpu0
            problems, produced = workloads.check(
                workload, inputs, seed, out_dir, code, stdout, stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
            del stdout, stderr
            _release_freed_memory()
            attempted += 1
            if problems:
                failed += 1
                problems_seen.extend(f"op {index}: {p}" for p in problems)
            return wall, cpu, None if problems else produced

        # drs promises that --jobs never changes a number, so with more than
        # one job the same op with one job, run before timing, sets the bytes
        # every timed op must reproduce.
        expected = one_op(-1, 1)[2] if workload.jobs > 1 else None
        tracer = spans.Tracer() if trace else None
        untraced, traced = [], []
        calibrations = [calibration_s()]
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            traced_op = trace and index % 2 == 0
            wall, cpu, produced = one_op(index, workload.jobs, tracer if traced_op else None)
            calibrations.append(calibration_s())
            cal = (calibrations[-2] + calibrations[-1]) / 2
            (traced if traced_op else untraced).append((index, wall, cpu, cal))
            if produced is not None:
                if expected is None:
                    expected = produced
                elif produced != expected:
                    failed += 1
                    problems_seen.append(f"op {index}: output differs from the first op's")
            index += 1
            # Overrunning by at most half an op keeps the op count, and so the
            # median's noise, from dropping by one when ops are slightly slow.
            half_op = statistics.median(w for _, w, _, _ in untraced + traced) / 2
            if index >= (3 if trace else 1) and time.perf_counter() + half_op > deadline:
                break
        peak_kb = sum(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_s = statistics.median(w for _, w, _, _ in untraced)
    cpu_s = statistics.median(c for _, _, c, _ in untraced)
    report = {
        "stamp": stamp(workload.name, seed),
        "input": workloads.rows_per_op(workload, inputs),
        "ops": {"untraced_s": [w for _, w, _, _ in untraced],
                "traced_s": [w for _, w, _, _ in traced],
                "calibration_s": calibrations},
        "problems": problems_seen,
        "attempted": attempted,
        "failed": failed,
        # Printed beside the metrics, not part of the result line.
        "info": {"op_s": (op_s, "s"), "cpu_s": (cpu_s, "s"),
                 "calibration_s": (statistics.median(calibrations), "s")},
    }
    if not trace:
        report["metrics"] = {
            "setup_s": statistics.median(setups),
            "op_cal": statistics.median(w / cal for _, w, _, cal in untraced),
            "cpu_cal": statistics.median(c / cal for _, _, c, cal in untraced),
            "peak_rss_mb": peak_kb / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        return report

    profiles = spans.op_profiles(tracer.spans)
    per_op = [layer_metrics(profiles[i], tracer.counts[i]) for i, _, _, _ in traced]
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics.update((name, per_op[0][name]) for name in COUNTED)
    unsteady = [name for name in COUNTED if len({m[name] for m in per_op}) != 1]
    if unsteady:
        failed = max(failed, 1)
        problems_seen.append(f"counts differ between traced ops: {unsteady}")
    metrics["bench.cores_busy"] = cpu_s / op_s
    metrics["trace.overhead"] = statistics.median(w for _, w, _, _ in traced) / op_s - 1.0
    report["metrics"] = metrics
    report["failed"] = failed
    report["counts"] = {name: metrics[name] for name in COUNTED}
    if workload.jobs > 1:
        report["note"] = "spans recorded in drs bench worker processes are not collected"
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        fh.write(json.dumps({"stamp": report["stamp"], "fields": spans.FIELDS}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def print_report(report: dict, units: dict):
    print("# " + json.dumps({k: report[k] for k in ("stamp", "input", "ops")}))
    lines = [(name, value, units[name]) for name, value in report["metrics"].items()]
    lines += [(name, value, unit) for name, (value, unit) in report["info"].items()]
    lines.append(("error_rate", report["failed"] / report["attempted"], "ratio"))
    for name, value, unit in lines:
        print(f"{report['stamp']['workload']:<18} {name:<26} {value:>14.6g} {unit}")
    for key in ("counts", "note", "spans_file"):
        if key in report:
            print(f"# {key}: {json.dumps(report[key])}")
    for problem in report["problems"]:
        print(f"# FAILED {problem}")


def result_line(report: dict, units: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another, so that each
    reports its own peak memory; the last line merges them by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("cv-housing", "predict-stream", "cv-housing-2jobs"):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cv-housing", "predict-stream", "cv-housing-2jobs", "all"))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so that work directories are removed
    # and a running child interpreter is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_program()
    if args.workload == "all":
        return run_all(args)
    units = PER_LAYER if args.trace else END_TO_END
    report = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print_report(report, units)
    print(result_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
