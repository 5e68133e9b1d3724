#!/usr/bin/env python3
"""Benchmark for the symchar CLI: one closed-loop client running job lists.

    python3 perfbench/run.py --workload hypocycloid --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                # every workload, end-to-end table
    python3 perfbench/run.py --trace 1      # every workload, per-layer table

With --workload the run builds the seeded job list, times fresh interpreters
importing `symchar.cli` (setup_s), then calls `symchar.cli.main(argv)`
in-process for each job, back to back, with stdout captured and output files
under a scratch SYMCHAR_OUTPUT_DIR.  Whole passes over the list repeat while
another one fits in --seconds.  Outputs are checked after the timed passes.
The last stdout line is the JSON result; the full record (environment, job
list, per-job times, problems) goes to .perfbench/results/.

--trace 1 runs every job twice, untraced then with spans recorded, and
reports the per-layer metrics of spans.py instead of the end-to-end ones.
Run it from the repository root; it reads and writes only below it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from statistics import median

import jobs as joblists
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 7

# name -> (unit, better); BENCHMARK.json lists the same names.
END_TO_END = {
    "evals_per_s": ("1/s", "higher"),
    "job_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# one small command per kind, run untimed first so lazy imports are done
WARMUP = (
    ("image", "5", "0", "1", "2", "--format", "csv", "-o", "warm.csv"),
    ("render", "7", "0", "1", "3", "--range", "2", "--unit-res", "10", "-o", "warm.png"),
    ("verify", "conjugate", "--n", "3", "--d", "2"),
    ("verify", "hypocycloid", "--n", "5", "--d", "3"),
    ("verify", "unitary", "--n", "3", "--d", "2"),
    ("reduce", "7", "1", "2", "4", "--grid", "7"),
    ("walk", "6", "2", "2"),
)


def thread_cap() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cap_threads(env) -> None:
    cap = str(thread_cap())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap


def environment(seed: int) -> dict:
    import numpy  # after cap_threads

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    return {
        "nproc": thread_cap(),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
        "thread_cap": thread_cap(),
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds a fresh interpreter takes to import symchar.cli and build its parser."""
    code = (
        "import time; t = time.perf_counter(); import symchar.cli as c; "
        "getattr(c, 'build_parser', lambda: None)(); print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for i in range(repeats + 1):  # the first run also compiles bytecode; it is not counted
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# One job in a fresh interpreter, stdout discarded; prints the exit code and
# VmHWM in KiB.  Not ru_maxrss: across exec it keeps the parent's peak.
FRESH_JOB = """
import os, sys
import symchar.cli
with open(os.devnull, "w") as sink:
    stdout, sys.stdout = sys.stdout, sink
    try:
        rc = symchar.cli.main(sys.argv[1:])
    finally:
        sys.stdout = stdout
with open("/proc/self/status") as fh:
    print(rc, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def measure_peak_rss(jobs, outdir: str) -> list[tuple[int | None, float]]:
    """(exit code, peak resident MB) of each job run alone in a fresh interpreter.

    This is the memory a user of the CLI sees.  The in-process runs are not
    used for it: what the allocator keeps after earlier jobs depends on the
    job order and the orbits drawn, and moved the process peak by 142-163 MB.
    """
    env = dict(os.environ, PYTHONPATH=SRC, SYMCHAR_OUTPUT_DIR=outdir)
    out = []
    for job in jobs:
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_JOB, *job.argv], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=120,
        )
        fields = proc.stdout.split()
        rc = None if fields[:1] in ([], ["None"]) else int(fields[0])
        out.append((rc, int(fields[1]) / 1024.0 if len(fields) == 2 else 0.0))  # a crash fails the job
    return out


def digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class Runner:
    """Runs commands in-process against symchar.cli, one at a time."""

    def __init__(self, workdir: str):
        import symchar.cli

        self.cli = symchar.cli
        self.outdir = os.path.join(workdir, "out")
        os.environ["SYMCHAR_OUTPUT_DIR"] = self.outdir
        # lru caches live for one CLI process, so each job starts with them empty
        self.caches = []
        for modname, module in list(sys.modules.items()):
            if modname == "symchar" or modname.startswith("symchar."):
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)) and obj not in self.caches:
                        self.caches.append(obj)

    def run(self, argv, main=None):
        """(exit code, wall seconds, stdout, error text) of one command."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        main = main or self.cli.main
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        except Exception:  # a crashing job is a failed job, not a failed run
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        return rc, wall, out.getvalue(), error or err.getvalue()


def measure(jobs, seed: int, seconds: float, trace: bool, workdir: str, golden: dict | None = None) -> dict:
    """Timed passes over `jobs`, then the output checks.

    Each run of a job is [pass, job index, traced, exit code, wall s, problems].
    A job's first output is checked in full; every later run of it must
    reproduce that output byte for byte.
    """
    import checks  # imports numpy, so only after cap_threads

    runner = Runner(workdir)
    keep = os.path.join(workdir, "keep")
    os.makedirs(keep, exist_ok=True)
    for argv in WARMUP:
        runner.run(argv)
    tracer = spans.Tracer()
    missing: set[str] = set()
    first = {}  # job index -> (exit code, stdout digest, file digest, kept file, stdout)
    runs = []

    def record(p, i, traced, rc, wall, stdout, error):
        job = jobs[i]
        problems = [error.strip().splitlines()[-1]] if rc is None else []
        stdout = stdout.replace(runner.outdir, "$SYMCHAR_OUTPUT_DIR")  # the scratch path differs per run
        path = os.path.join(runner.outdir, job.out) if job.out else None
        fdig = None
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                fdig = digest(fh.read())
            if i in first:
                os.remove(path)
            else:
                kept = os.path.join(keep, job.out)
                os.replace(path, kept)
                path = kept
        if i not in first:
            first[i] = (rc, digest(stdout), fdig, path, stdout)
        elif (rc, digest(stdout), fdig) != first[i][:3]:
            problems.append("output differs from the first run of this job")
        runs.append([p, i, traced, rc, wall, problems])

    def traced_main(argv):
        return tracer.call("cli", runner.cli.main, (argv,), {})[1]

    t_start = time.perf_counter()
    passes = 0
    while True:
        for i, job in enumerate(jobs):
            record(passes, i, False, *runner.run(job.argv))
            if trace:
                tracer.job = i
                restore, missing = spans.install(tracer)
                try:
                    outcome = runner.run(job.argv, main=traced_main)
                finally:
                    spans.uninstall(restore)
                record(passes, i, True, *outcome)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (passes + 1) / passes > seconds:
            break
    # peak memory is an end-to-end metric only
    fresh = [] if trace else measure_peak_rss(jobs, os.path.join(workdir, "fresh"))

    pins = {}
    for i, job in enumerate(jobs):
        rc, sdig, fdig, path, stdout = first[i]
        problems = checks.check(job, rc, stdout, path, seed)
        if fresh and fresh[i][0] != rc:
            problems.append(f"exit code {fresh[i][0]} in a fresh interpreter, {rc} in-process")
        if not problems:  # only a correct output is pinned or compared with the pins
            pins[job.key] = {"stdout": sdig, "file": fdig, "points": checks.points(job, stdout, path)}
            if golden and job.pin and job.key in golden and golden[job.key] != pins[job.key]:
                problems.append(f"seed-0 output differs from golden.json: {pins[job.key]} != {golden[job.key]}")
        for run in runs:
            if run[1] == i:
                run[5] = run[5] + problems
    return {
        "passes": passes,
        "runs": runs,
        "peak_rss_mb": max((mb for _, mb in fresh), default=None),
        "job_rss_mb": [mb for _, mb in fresh],
        "tracer": tracer,
        "missing": missing,
        "pins": pins,
    }


def end_to_end_metrics(jobs, m: dict, setup: list[float]) -> dict:
    # Each job counts with its fastest pass: load from other processes on a
    # shared machine only ever adds time, and it comes and goes within seconds.
    best: dict[int, float] = {}
    for p, i, traced, rc, wall, problems in m["runs"]:
        if not traced:
            best[i] = min(wall, best.get(i, wall))
    return {
        "evals_per_s": sum(job.evals for job in jobs) / sum(best.values()),
        "job_p50_s": median(best.values()),
        "setup_s": median(setup),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def layer_metrics(m: dict) -> dict:
    tracer = m["tracer"]
    traced = sum(run[4] for run in m["runs"] if run[2])
    untraced = sum(run[4] for run in m["runs"] if not run[2])
    metrics = spans.layer_metrics(tracer.spans, m["missing"], m["passes"])
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["trace.attributed_frac"] = sum(spans.self_times(tracer.spans).values()) / traced
    metrics["trace.spans"] = len(tracer.spans) / m["passes"]
    return metrics


def units() -> dict:
    out = {k: v[0] for k, v in END_TO_END.items()}
    out.update({k: v[0] for k, v in spans.LAYER_METRICS.items()})
    out.update({k: v[0] for k, v in spans.RUN_METRICS.items()})
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pin: bool = False) -> dict:
    jobs = joblists.job_list(workload, seed)
    golden = None
    if seed == 0 and not pin and os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh).get(workload)
    setup = [] if trace else measure_setup()  # setup_s is an end-to-end metric only
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        m = measure(jobs, seed, seconds, trace, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = layer_metrics(m) if trace else end_to_end_metrics(jobs, m, setup)
    runs = m["runs"]
    failed = sum(1 for run in runs if run[5])
    unit = units()
    record = {
        "workload": workload,
        "why": joblists.WHY[workload],
        "environment": environment(seed),
        "seconds": seconds,
        "trace": int(trace),
        "passes": m["passes"],
        "jobs": [job.describe() for job in jobs],
        "setup_samples_s": setup,
        "job_peak_rss_mb": m["job_rss_mb"],
        "runs": [dict(zip(("pass", "job", "traced", "exit", "wall_s", "problems"), run)) for run in runs],
        "job_samples": sum(1 for run in runs if not run[2]),
        "failed_frac": failed / len(runs),
        "missing_spans": sorted(m["missing"]),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        m["tracer"].write(stem + "-spans.jsonl")
    if pin:
        write_golden(workload, {job.key: m["pins"][job.key] for job in jobs if job.pin and job.key in m["pins"]})
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "record": record}


def write_golden(workload: str, pins: dict) -> None:
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            data = json.load(fh)
    data[workload] = pins
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_summary(result: dict) -> None:
    rec = result["record"]
    env = rec["environment"]
    print(
        f"# {rec['workload']} seed={env['seed']} passes={rec['passes']} jobs/pass={len(rec['jobs'])} "
        f"job samples={rec['job_samples']} attempted={result['attempted']} failed={result['failed']} "
        f"failed_frac={rec['failed_frac']:.4f} nproc={env['nproc']} threads={env['thread_cap']} "
        f"python={env['python']} numpy={env['numpy']} commit={env['commit']} cpu={env['cpu']!r}"
    )
    for run in rec["runs"]:
        if run["problems"]:
            print(f"#   FAILED {' '.join(rec['jobs'][run['job']]['argv'])}: {run['problems'][0]}")
    for name, m in rec["metrics"].items():
        print(f"#   {name:32s} {m['value']:14.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process (peak memory is per process) and tabulate."""
    table = {}
    for workload in joblists.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["metrics"]["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        table[workload] = result["metrics"]
    names = list(dict.fromkeys(k for metrics in table.values() for k in metrics))
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{w:>15s}" for w in table))
    for name in names:
        unit = next(m[name]["unit"] for m in table.values() if name in m)
        cells = [f"{table[w][name]['value']:15.6g}" if name in table[w] else f"{'-':>15s}" for w in table]
        print(f"{name:32s} {unit:6s} " + " ".join(cells))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=joblists.WORKLOADS, help="run one workload; default: all, tabulated")
    parser.add_argument("--seed", type=int, default=0, help="chooses the job list and the checked samples")
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--pin", action="store_true", help="with --seed 0: record output digests in golden.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symchar", "cli.py")):
        print(f"symchar sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_threads(os.environ)  # before numpy is imported
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.pin)
    print_summary(result)
    metrics = result["record"]["metrics"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
