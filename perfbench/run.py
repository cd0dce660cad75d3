#!/usr/bin/env python3
"""distsig benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload {corpus,cora_tune,sbm_trend} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports distsig from ./src.  With
``--trace 0`` it runs rounds until ``--seconds`` would be exceeded (at least
the workload's minimum), repeats the set-up after each round (at least
SETUP_REPEATS times in all), and reports the end-to-end metrics of
BENCHMARK.json: the median set-up time, the typical round time (see
README.md) and the process's peak RSS.  With ``--trace 1`` it
times round 0 without tracing, then sets up and runs round 0 again with
every layer wrapped (see tracing.py), and reports the per-layer metrics plus
the tracing overhead.  The last line of stdout is the JSON result; the line
before it holds the machine, the workload's outputs and every round time.
The exit code is 1 if any op failed its output check.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
WORKLOADS = ("corpus", "cora_tune", "sbm_trend")

# no more BLAS threads than the cores this process may run on
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var) or NPROC), NPROC))


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    mem_kb = 0
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = int(fn())
    return {
        "cpu": cpu, "nproc": NPROC, "mem_total_mb": mem_kb // 1024,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, workdir: str):
    from workloads import CoraTune, Corpus, SbmTrend

    if name == "cora_tune":
        return CoraTune(workdir)
    return {"corpus": Corpus, "sbm_trend": SbmTrend}[name]()


def timed_setup(wl, seed: int, times: list):
    t0 = time.perf_counter()
    inputs = wl.setup(seed)
    times.append(time.perf_counter() - t0)
    return inputs


def measure(wl, seed: int, seconds: float):
    """Run rounds until the next one would end past ``seconds``.

    The set-up is repeated after every round, not back to back, so its
    median samples the machine at several times during the run.
    """
    setup_times, rounds = [], []
    inputs = timed_setup(wl, seed, setup_times)
    t0 = time.perf_counter()
    while len(rounds) < wl.max_rounds:
        rounds.append(wl.run_round(inputs, len(rounds)))
        timed_setup(wl, seed, setup_times)
        if (len(rounds) >= wl.min_rounds
                and time.perf_counter() - t0 + rounds[-1].wall_s > seconds):
            break
    while len(setup_times) < SETUP_REPEATS:
        timed_setup(wl, seed, setup_times)
    return inputs, setup_times, rounds


def traced_round(wl, seed: int):
    from tracing import Tracer, layer_metrics, targets

    tr = Tracer()
    with tr.install(targets()):
        inputs = wl.setup(seed)
        rd = wl.run_round(inputs, 0, tr)
    kids = tr.children()
    unattributed = sum(tr.self_time(i, kids) for i, s in enumerate(tr.spans)
                       if s.name == "bench.op")
    _, _, own = tr.by_name()
    top = sorted(((k, v) for k, v in own.items() if k != "bench.op"), key=lambda kv: -kv[1])
    slow = max((s for s in tr.spans if s.name == "distributional.check_tv_bounds"),
               key=lambda s: s.end - s.start, default=None)
    if slow is not None:
        op = slow
        while op.name != "bench.op":
            op = tr.spans[op.parent]
        slow = {"instance": [op.tag, 0], "ms": 1e3 * (slow.end - slow.start)}
    return rd, layer_metrics(tr), unattributed, {
        "self_s_by_span": {k: round(v, 6) for k, v in top},
        "slowest_instance": slow,
        "spans": len(tr.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "distsig", "__init__.py")):
        print(f"error: no distsig package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import distsig

    if os.path.dirname(os.path.abspath(distsig.__file__)) != os.path.join(SRC, "distsig"):
        print(f"error: imported distsig from {distsig.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, spec, workdir)
    except Exception:  # outside any op, e.g. in set-up: the run itself failed
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))


def run(args, spec, workdir: str) -> int:
    wl = make_workload(args.workload, workdir)
    details = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    if args.trace:
        setup_times = []
        inputs = timed_setup(wl, args.seed, setup_times)
        details["inputs"] = wl.describe(inputs)
        untraced = wl.run_round(inputs, 0)
        inputs = None
        traced, layers, unattributed, extra = traced_round(wl, args.seed)
        rounds = [untraced, traced]
        values = dict(layers)
        values.update({
            "trace.wall_s": traced.wall_s,
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
            "trace.unattributed_s": unattributed,
        })
        details.update(extra)
        wanted = spec["per_layer"]
    else:
        inputs, setup_times, rounds = measure(wl, args.seed, args.seconds)
        details["inputs"] = wl.describe(inputs)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wl.round_time(inputs, rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = spec["end_to_end"]

    details.update({
        "setup_s": setup_times,
        "round_wall_s": [rd.wall_s for rd in rounds],
        "outputs": wl.summarize(rounds),
        "peak_rss_mb": peak_rss_mb(),
        "failures": [f for rd in rounds for f in rd.failures][:20],
    })
    attempted = sum(rd.attempted for rd in rounds)
    failed = sum(rd.failed for rd in rounds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if failed:
        print(f"{failed} of {attempted} ops failed: {details['failures']}", file=sys.stderr)
    print(json.dumps(details, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
