"""Run the benchmark over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload regimes-32 --seeds 1 2 3 4 5 [--trace 0]

One fresh process per seed, run one after another. For every metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, the figure the bounds in
BENCHMARK.json are set against. Results are also appended as JSON lines to
perfbench/work/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORK, WORKLOAD_NAMES  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    WORK.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
        report, result = (json.loads(ln) for ln in proc.stdout.strip().splitlines()[-2:])
        with open(WORK / "spread.jsonl", "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, **result,
                                "body_s": report["body_s"]}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for key, m in result["metrics"].items():
            values.setdefault(key, []).append(m["value"])
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        print(f"{key:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {share:.3%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
