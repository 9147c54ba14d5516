"""tripletfem benchmark: one workload per call, or all of them.

    python3 benchmarks/run.py --workload motion-2d --seed 1 --seconds 34
    python3 benchmarks/run.py --workload all --seed 1 --seconds 34 --trace 1

Run from the root of a source checkout; the package is imported from
its src/ directory, never from an installed copy. Every metric prints on
its own line with its unit; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones from a separate
traced run. A full record (environment, every op, spans) is written to
.bench_out/ at the checkout root. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 30.0
CLI_TIMEOUT_S = 60.0
WORKER_SLACK_S = 90.0  # beyond --seconds: set-up, warm-up, last op


def git_commit(root):
    """HEAD of the checkout, read from .git without leaving the checkout;
    None when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    from importlib.metadata import version
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(cmd, timeout, wait_ready=False):
    """Run a child to its end. Returns (exit code, seconds until it
    printed "ready" or None, its own peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if wait_ready else subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready = None
    try:
        if wait_ready:
            if proc.stdout.readline().strip() == b"ready":
                ready = time.perf_counter() - t0
            proc.stdout.read()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ready, usage.ru_maxrss / 1024.0


def worker_cmd(name, seed, workdir, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", name, "--seed", str(seed),
            "--workdir", workdir, *extra]


def setup_samples(name, seed, workdir, count):
    out = []
    for _ in range(count):
        code, ready, _ = spawn(worker_cmd(name, seed, workdir,
                                             "--setup-only"),
                                  SETUP_TIMEOUT_S, wait_ready=True)
        if code != 0 or ready is None:
            raise RuntimeError(f"{name}: set-up process exited with {code}")
        out.append(ready)
    return out


def run_worker(name, seed, seconds, trace, workdir):
    """Returns (record the worker wrote, set-up seconds, peak RSS MB)."""
    path = os.path.join(workdir, "worker.json")
    code, ready, rss = spawn(
        worker_cmd(name, seed, workdir, "--seconds", str(seconds),
                   "--trace", str(trace), "--out", path),
        seconds + WORKER_SLACK_S, wait_ready=True)
    if code != 0 or ready is None or not os.path.isfile(path):
        raise RuntimeError(f"{name}: worker exited with {code}")
    with open(path, encoding="utf-8") as f:
        return json.load(f), ready, rss


def run_cli_ops(seed, seconds, workdir):
    """Time fresh `python -m tripletfem.cli` processes, one per op."""
    wl = workloads.CliOpenBoundary
    params = wl.params(seed)
    state = wl.prepare(workdir)
    cmd = [sys.executable, "-m", "tripletfem.cli", *wl.argv(state)]
    rss = []

    def op():
        code, _, peak = spawn(cmd, CLI_TIMEOUT_S)
        rss.append(peak)
        return {"exit_code": code, "workdir": workdir}

    ops = run_ops(op, lambda result: wl.check(params, result), seconds)
    return ops, statistics.median(rss)


def tally(ops, warm_up):
    """(ops attempted, ops failed); a warm-up op counts like any other,
    and an op with any problem is failed, never dropped."""
    done = ops + ([warm_up] if warm_up is not None else [])
    return len(done), sum(1 for r in done if r["problems"])


def relative(records):
    """Median over the ops of op wall time / reference kernel time around
    it. The host's speed drifts by up to 2x over minutes; op and kernel
    slow down together, so their ratio holds still where seconds do
    not."""
    return statistics.median(r["wall_s"] / r["ref_s"] for r in records)


def unit_of(metric):
    if metric.endswith("_rel"):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def run_workload(name, seed, seconds, trace):
    """One run; returns (result for the last stdout line, full record)."""
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    is_cli = name == workloads.CliOpenBoundary.name
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env}
    try:
        # Set-up samples come from fresh processes taken before and after
        # the ops, so they see the machine at both ends of the run. The
        # CLI's set-up is its import, also reported as cli.import_s.
        sample_setup = not trace or is_cli
        before = SETUP_SAMPLES // 2 if sample_setup else 0
        setups = setup_samples(name, seed, workdir, before)
        if is_cli and not trace:
            ops, peak_rss = run_cli_ops(seed, seconds, workdir)
            warm_up = None
        else:
            worker, ready, peak_rss = run_worker(name, seed, seconds, trace,
                                                 workdir)
            if not trace:
                setups.append(ready)
            ops = worker["ops"]
            warm_up = worker.get("warm_up")
            record["tripletfem"] = worker["tripletfem"]
            record["spans"] = worker.get("spans")
        if sample_setup:
            setups += setup_samples(name, seed, workdir,
                                    SETUP_SAMPLES - len(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    attempted, failed = tally(ops, warm_up)
    untraced = [r for r in ops if not r["traced"]]
    if trace:
        values = dict(worker["layers"])
        values["cli.import_s"] = statistics.median(setups) if is_cli else 0.0
        values["trace.overhead_frac"] = \
            relative(r for r in ops if r["traced"]) / relative(untraced) - 1.0
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_rel": relative(untraced),
                  "peak_rss_mb": peak_rss}
    metrics = {k: {"value": v, "unit": unit_of(k)}
               for k, v in values.items()}
    record.update({"setup_samples": setups, "warm_up": warm_up, "ops": ops,
                   "metrics": metrics})
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def print_run(name, seed, trace, result, record):
    ops = record["ops"]
    print(f"== {name}  seed {seed}  trace {trace}  "
          f"ops {len(ops)} (+{int(record['warm_up'] is not None)} warm-up)")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac "
          f"{result['failed'] / result['attempted']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} ops)")
    walls = [r["wall_s"] for r in ops if not r["traced"]]
    refs = [r["ref_s"] for r in ops if not r["traced"]]
    print(f"{name} run_s {statistics.mean(walls):.6g} s (mean op; median "
          f"{statistics.median(walls):.6g} s, fastest {min(walls):.6g} s, "
          f"{len(walls)} ops, reference kernel {statistics.mean(refs):.6g} s)")
    print(f"{name} samples setup {len(record['setup_samples'])} "
          f"run {len(walls)} traced {len(ops) - len(walls)}")
    for i, r in enumerate(ops):
        for problem in r["problems"]:
            print(f"{name} op {i} FAILED: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tripletfem", "__init__.py")):
        print(f"error: no tripletfem sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds,
                                      args.trace)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}"
                                 ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f)
        print_run(name, args.seed, args.trace, result, record)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
