"""rsmerton benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload fig1-cert --seed 20260811 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. The process repeats the
workload body (each call waits for the previous one; there are no arrivals)
as many times as fill about --seconds, at least MIN_BODIES times, checks
every body's outputs, and prints a report line and then, as the last line,
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced bodies (at least MIN_BODIES of each) and reports the per-layer
metrics from the traced ones, plus the tracing overhead. The spans are
written to perfbench/work/ when the run ends. See perfbench/README.md for
every metric's definition.
"""

import os

# At most nproc threads in all: this process, one BLAS thread, and the set-up
# probes, which run one at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOAD_NAMES = ("fig1-cert", "validate-mc", "regimes-32")
SETUP_PROBES = 16
# Every median is over at least this many bodies (of each kind, when traced).
MIN_BODIES = 3
SE_TARGET = 1e-3
# Later claims are measured at MAIN_SEED and must also hold at HELDOUT_SEED.
MAIN_SEED = 20260811
HELDOUT_SEED = 7919


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import rsmerton from this checkout's src/; exit with status 1 if it is not there."""
    if not (SRC / "rsmerton" / "__init__.py").is_file():
        sys.exit(f"error: no rsmerton sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rsmerton

    if Path(rsmerton.__file__).resolve().parent != SRC / "rsmerton":
        sys.exit(f"error: imported rsmerton from {rsmerton.__file__}, not {SRC}")


def measure_setup(args) -> list[float]:
    """Interpreter start until the inputs are ready, in fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                sys.exit("error: set-up probe failed")
        times.append(ready)
    return times


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-s{args.seed}"
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.setup(args.seed, work)
        print("ready", flush=True)
        return 0

    setup_times = measure_setup(args)
    machine = machine_record()
    workload.setup(args.seed, work)
    if args.trace:
        from spans import Tracer, layer_metrics, unit_of

    plain_s, traced_s, tracers = [], [], []
    attempted = failed = 0
    failures, records = [], []
    max_se = peak_rss_mb = None
    start = time.perf_counter()
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer(n)
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.body()
        except Exception:
            out = None
            traceback.print_exc()
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if out is None:
            attempted += 1
            failed += 1
            failures.append(f"body {n}: exception")
        else:
            (traced_s if traced else plain_s).append(dt)
            if tracer is not None:
                tracers.append(tracer)
            for name, ok in workload.check(out):
                attempted += 1
                if not ok:
                    failed += 1
                    failures.append(f"body {n}: {name}")
            if not records:
                max_se = workload.max_stderr(out)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            records.append(workload.record(out))
        n += 1
        elapsed = time.perf_counter() - start
        # Stop at the whole number of bodies nearest to --seconds: another
        # body would end more than half a body past it.
        min_bodies = 2 * MIN_BODIES if args.trace else MIN_BODIES
        if n >= min_bodies and elapsed + 0.5 * elapsed / n >= args.seconds:
            break

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "body_s": plain_s,
        "traced_body_s": traced_s,
        "setup_probe_s": setup_times,
        "failures": failures,
        "record": records[0] if records else None,
        "machine": {**machine, "loadavg_1m_end": os.getloadavg()[0]},
    }
    metrics = {}
    if not plain_s or (args.trace and not tracers):
        pass  # every body of a kind failed; there is nothing to time
    elif args.trace:
        report["findings"] = workload.findings(work)
        per_body = [layer_metrics(t.spans) for t in tracers]
        for key in per_body[0]:
            metrics[key] = {"value": statistics.median(b[key] for b in per_body),
                            "unit": unit_of(key)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_s) - statistics.median(plain_s), "unit": "s"}
        spans_path = work.parent / f"{args.workload}-s{args.seed}.spans.jsonl"
        with open(spans_path, "w") as f:
            for t in tracers:
                t.write(f)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        wall = statistics.median(plain_s)
        se_factor = 1.0 if max_se is None else (max_se / SE_TARGET) ** 2
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "mc_s_at_se1e-3": {"value": wall * se_factor, "unit": "s"},
        }
        report["max_mc_stderr"] = max_se
    report["samples"] = {"bodies": len(plain_s), "traced_bodies": len(traced_s),
                         "setup_probes": len(setup_times)}
    print(json.dumps(report, default=float))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
