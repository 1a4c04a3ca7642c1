"""scalefit benchmark: one workload per process, one JSON line of results.

    python3 bench/run.py --workload fit-fast --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, in turn

Builds the workload's inputs from --seed, then runs the number of whole
passes over them whose measured time comes nearest to --seconds.  Every pass's output is
checked by bench/checks.py and must equal the first pass's.  The last line
of standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1 (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread: two BLAS threads on a two-vCPU machine shared with other
# jobs only add noise.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("sphere-synth", "fit-recipe", "fit-fast")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Put the checkout's src/ first on the path and import scalefit from it."""
    src = ROOT / "src"
    if not (src / "scalefit" / "__init__.py").is_file():
        sys.exit(f"bench: no scalefit sources at {src}")
    sys.path.insert(0, str(src))
    import scalefit
    return scalefit


def setup_sample(args) -> float:
    """Wall time of a fresh interpreter that imports scalefit and builds the
    workload's inputs: the time to a ready workload."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t


def measure(args, workloads, tracer, workdir):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_mark = tracer.mark() if tracer else 0
    steps = wl.steps()
    setup_times = []
    # set-up samples are spread over the run, at step boundaries
    due = args.seconds / SETUP_SAMPLES
    busy, passes, want, first, failures, failed = 0.0, 0, 1, None, [], 0
    while passes < want:
        docs = []
        for step in steps:
            if not tracer and len(setup_times) * due <= busy:
                setup_times.append(setup_sample(args))
            t = time.perf_counter()
            docs.append(step())
            busy += time.perf_counter() - t
        passes += 1
        if first is None:
            first = docs
            failures, failed = workloads.check_pass(docs)
            # whole passes whose total comes nearest to --seconds
            want = max(1, round(args.seconds / busy))
        elif docs != first:
            failures.append(f"pass {passes} output differs from pass 1")
    if tracer:
        tracer.uninstall()
    while not tracer and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_sample(args))
    failures += wl.extra_checks()
    for f in failures:
        print(f"bench: check failed: {f}", file=sys.stderr)
    result = {"correct": not failures, "attempted": wl.items * passes,
              "failed": failed * passes}
    items_per_s = wl.items * passes / busy
    if tracer:
        result["metrics"] = layer_metrics(tracer, setup_mark, passes)
        print(f"bench: traced items_per_s {items_per_s:.6g} over {passes} passes",
              file=sys.stderr)
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "extrap_rmse.gmean": {"value": workloads.rmse_gmean(first), "unit": "log-rmse"},
        }
    return result


def layer_metrics(tracer, setup_mark, passes):
    """Per-layer figures per pass; set-up spans (save_task) count once."""
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    setup = tracer.stats(0, setup_mark)
    run = tracer.stats(setup_mark, tracer.mark())
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name in ("fitting.outer_iters", "fitting.fits_converged"):
            value = run["fitting"][name.split(".")[1]] / passes
        elif name == "fitting.train_loss.gmean":
            value = run["fitting"]["train_loss_gmean"]
        else:
            fn, stat = name.rsplit(".", 1)
            value = setup[fn][stat] + run[fn][stat] / passes
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, **json.loads(lines[-1])}) if lines
              else json.dumps({"workload": name, "exit": proc.returncode}))
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    scalefit = import_package()
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(scalefit)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
            return 0
        result = measure(args, workloads, tracer, Path(tmp))
    if tracer:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"trace-{args.workload}-seed{args.seed}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
