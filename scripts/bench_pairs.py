"""Alternating parent/change pairs of the benchmark, summarised into one JSON file.

    python3 scripts/bench_pairs.py --parent ../parent --change . --out BENCH_<n>.json

For each workload and for seeds 20260811 and 7919, runs `perfbench/run.py
--trace 0` (at its default run length) from the parent checkout and from the
change checkout, one process at a time, PAIRS times;
pair i runs the parent first when i is even and the change first when it is
odd, so a slow spell of the machine falls on both sides alike. Each side's
end-to-end metrics are reduced to the median and quartiles of its runs, and
each pair is won by the side whose metric is better in the direction
BENCHMARK.json gives. Each run also records `peak_rss_tree_mb`, the largest
peak RSS of any process in its tree (the run, its set-up probes and any
forked workers, from `os.wait4`), which `peak_rss_mb`, the run's own, does
not see. A failed run keeps the tail of its stderr in its run entry, with the
`failures` of its report line where it ran to the end, or the tail of its
stdout where its last line is not JSON, and makes the script exit 1. A
result file that already exists is updated: entries for the workloads run
now replace earlier ones, the rest are kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20260811, 7919)
WORKLOADS = ("fig1-cert", "validate-mc", "regimes-32")
PAIRS = 10  # alternating pairs per workload and seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--out", required=True, type=Path,
                   help="result file, one per change (BENCH_<n>.json), so no run overwrites another")
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark process: its last output line as a dict, with why it failed if it did.

    A failed run keeps its stderr tail, and either its report line's
    `failures` or, where its last line is not JSON, its stdout tail.

    The process is reaped with os.wait4, whose ru_maxrss is the largest peak
    RSS among the process and the descendants it waited for.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        with subprocess.Popen(cmd, cwd=checkout, stdout=out, stderr=err, text=True) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines, stderr = out.read().strip().splitlines(), err.read()
    result = {"correct": False, "metrics": {}}
    try:
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
            if not result["correct"]:  # the report line before it says why
                result["failures"] = json.loads(lines[-2])["failures"]
    except (ValueError, LookupError, TypeError):  # not the two lines run.py ends with
        result = {"correct": False, "metrics": {}, "stdout": "\n".join(lines)[-2000:]}
    result["metrics"]["peak_rss_tree_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    if not result["correct"]:
        result["error"] = stderr[-2000:]
        why = [result["error"], result.get("stdout"), "; ".join(result.get("failures", []))]
        print(f"{workload} seed {seed} failed in {checkout}:\n" + "\n".join(filter(None, why)),
              file=sys.stderr)
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(runs: list[dict], better: dict) -> dict:
    """Per-metric medians and quartiles of each side, and the pairs each side won.

    A pair counts for a metric only if both of its runs report it, so "pairs"
    falls below the number run when a run failed.
    """
    out = {}
    for metric, direction in better.items():
        pairs = [(p["parent"]["metrics"].get(metric, {}).get("value"),
                  p["change"]["metrics"].get(metric, {}).get("value")) for p in runs]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        parent = quartiles([a for a, _ in pairs])
        change = quartiles([b for _, b in pairs])
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in pairs)
        spread = parent["q3"] - parent["q1"]
        out[metric] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gain_exceeds_parent_iqr": sign * (parent["median"] - change["median"]) > spread,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["peak_rss_tree_mb"] = "lower"  # recorded by run_once, not a benchmark metric
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["machine"] = {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    doc["command"] = "perfbench/run.py --trace 0"
    doc.setdefault("results", {})
    all_correct = True
    for workload in args.workload or WORKLOADS:
        for seed in SEEDS:
            runs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    checkout = args.parent if side == "parent" else args.change
                    pair[side] = run_once(checkout.resolve(), workload, seed)
                pair["first"] = order[0]
                runs.append(pair)
                wall = [pair[s]["metrics"].get("wall_s", {}).get("value") for s in ("parent", "change")]
                print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: wall_s parent {wall[0]} "
                      f"change {wall[1]}", flush=True)
            correct = all(p[s]["correct"] for p in runs for s in ("parent", "change"))
            all_correct = all_correct and correct
            doc["results"][f"{workload}@{seed}"] = {
                "workload": workload,
                "seed": seed,
                "pairs_run": PAIRS,
                "all_correct": correct,
                "metrics": summarise(runs, better),
                "runs": [{"first": p["first"],
                          **{s: {"correct": p[s]["correct"],
                                 **{k: v["value"] for k, v in p[s]["metrics"].items()},
                                 **{k: p[s][k] for k in ("error", "failures", "stdout")
                                    if k in p[s]}}
                             for s in ("parent", "change")}} for p in runs],
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
