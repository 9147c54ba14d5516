"""One benchmark process: set up a workload, then time its ops.

Started by run.py as a fresh interpreter. It prints "ready" on stdout
once the inputs of the first timed op exist, so the parent can time
set-up from interpreter start. With --setup-only it exits there.
Otherwise it runs one untimed warm-up op where the workload asks for
one, times ops for at most --seconds and writes a JSON record to --out. With --trace 1 it alternates untraced and traced ops, so the
tracing overhead is measured in the same process.
"""

import argparse
import dataclasses
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from reference import reference_kernel  # noqa: E402


def run_ops(op, check, seconds, tracer=None):
    """Run op() for at most `seconds`, starting no op that the last one's
    duration says would end after that, but at least once (twice when
    traced, so both kinds of op are timed). Each record carries the op's
    wall time and ref_s, the mean of the reference kernel timed right
    before and right after it. Every op is checked after its timing ends; one that
    raises or fails its check is kept as a failed record, never
    dropped."""
    records = []
    stop = time.perf_counter() + seconds
    least = 2 if tracer is not None else 1
    before = reference_kernel()
    while len(records) < least or \
            time.perf_counter() + records[-1]["wall_s"] <= stop:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.op = len(records)
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = op()
            error = None
        except Exception as err:  # a failed op is data, the run goes on
            error = f"{type(err).__name__}: {err}"
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.restore()
        after = reference_kernel()
        problems = [error] if error else check(result)
        records.append({"wall_s": wall, "ref_s": (before + after) / 2,
                        "traced": traced, "problems": problems})
        before = after
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    params = wl.params(args.seed)
    state = wl.setup(params, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # the CLI prints as it runs; the parent reads nothing after "ready"
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    import tripletfem
    record = {"tripletfem": os.path.dirname(tripletfem.__file__)}

    def op():
        return wl.op(state)

    def check(result):
        return wl.check(params, result)

    if wl.warm_up:
        record["warm_up"] = run_ops(op, check, 0.0)[0]
    tracer = spans.Tracer() if args.trace else None
    record["ops"] = run_ops(op, check, args.seconds, tracer)
    if tracer is not None:
        walls = {i: r["wall_s"] for i, r in enumerate(record["ops"])
                 if r["traced"]}
        record["layers"] = spans.per_op_medians(tracer.spans, tracer.counts,
                                                walls)
        record["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
