"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 2993 --seconds 55 --trace 0

Run it from the root of a source checkout: it imports countdag from
``src/``. Set-up is repeated and timed; then the workload's units (one
learner call, ``bench.run`` or ``countdag learn`` each) are called for
``--seconds``, and each end-to-end time sums over the units the median of
each unit's calls. With ``--trace 1`` the run instead sets up once under the
span tracer, calls every unit untraced and traced in turns for
``--seconds``, and reports the per-layer metrics.

Human-readable lines come first: the environment, one edge-set digest per
(workload, learner, dataset), every metric with its unit. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A digest that differs between calls of one run
makes the exit code 1.
"""
import os
import sys
import time

_STARTED = time.perf_counter()

# Pin BLAS and OpenMP to one thread before numpy loads. A threaded OpenBLAS
# makes both the timings and the Newton fit counters vary from run to run.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: Traced calls go on until this many fits and Wald tests were seen, so
#: the p99 of each rests on at least ten samples beyond it.
PERCENTILE_SAMPLES = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2993)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREADS},
    }


def end_to_end(wall: float, learn_s: dict, quality: dict, import_s: float,
               setup_times: list[float]) -> dict:
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
    }
    for learner, value in learn_s.items():
        metrics[f"learn_s.{learner}"] = (value, "s")
    for name, value in quality.items():
        # Undefined only when a learner produced no output at all, which the
        # run reports as failed calls; score that as nothing recovered.
        metrics[name] = (0.0 if value is None else value, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def print_units(units: list, samples: list) -> None:
    for unit, calls in zip(units, samples):
        print(f"unit {unit.key}: {len(calls)} calls, median "
              f"{statistics.median(s.wall for s in calls):.4f} s")


def traced_run(workload, args, workdir: Path, ledger) -> tuple[dict, list]:
    """Set up once under the tracer, then call each unit untraced and traced
    in turns for ``--seconds``; return the per-layer metrics and every
    unit's samples.

    Taking turns puts the two calls of a unit next to each other in time,
    so ``trace.overhead_frac`` compares them under the same machine load.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        state = workload.setup(args.seed, workdir)
    finally:
        tracer.restore()

    def traced(index: int, unit):
        def call(ledger):
            tracer.unit = index
            tracing.install(tracer)
            try:
                return unit.call(ledger)
            finally:
                tracer.restore()
                tracer.unit = -1

        return workloads.Unit(f"{unit.key} (traced)", unit.group, call)

    plain = workload.units(state, tracing.NullTracer())
    spanned = [traced(i, unit) for i, unit in enumerate(workload.units(state, tracer))]
    units = [unit for pair in zip(plain, spanned) for unit in pair]
    samples = workloads.measure(
        units, args.seconds, ledger,
        enough=lambda: min(tracer.count("glm.fit"), tracer.count("glm.wald"))
        >= PERCENTILE_SAMPLES,
    )
    print_units(units, samples)
    calls = [len(unit) for unit in samples[1::2]]
    metrics = tracing.layer_metrics(
        tracer, setups=1, calls=calls,
        untraced_wall=workloads.summarize(samples[0::2])[0],
        traced_wall=workloads.summarize(samples[1::2])[0],
    )
    trace_file = WORKDIR / f"trace-{args.workload}-{args.seed}.npz"
    tracer.write(trace_file)
    print(f"spans {len(tracer.start)} written to {trace_file.relative_to(ROOT)}; "
          f"p99 over {tracer.count('glm.fit')} fits and {tracer.count('glm.wald')} "
          f"Wald tests in {sum(calls)} traced calls")
    return metrics, samples


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "countdag" / "__init__.py").is_file():
        print(f"error: no countdag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](sizes or workloads.FULL)
    workdir = WORKDIR / args.workload

    print("env " + json.dumps(environment(), sort_keys=True))
    ledger = workloads.Ledger(args.workload)
    if args.trace:
        metrics, samples = traced_run(workload, args, workdir, ledger)
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        print(f"setup import {import_s:.4f} s, set-ups "
              + " ".join(f"{t:.4f}" for t in setup_times))
        units = workload.units(state, tracing.NullTracer())
        samples = workloads.measure(units, args.seconds, ledger)
        print_units(units, samples)
        metrics = end_to_end(*workloads.summarize(samples), ledger.quality(), import_s,
                             setup_times)

    for (learner, key), value in sorted(ledger.digests.items()):
        print(f"digest {args.workload} {learner} {key} {value}")
    for message in ledger.failures + ledger.mismatches:
        print(f"FAIL {message}")
    attempted, failed = ledger.attempted, len(ledger.failures)
    print(f"calls {sum(len(unit) for unit in samples)}  attempted {attempted}  "
          f"failed {failed}  failed_frac {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": not ledger.mismatches and not ledger.incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if ledger.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
