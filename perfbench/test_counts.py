"""The benchmark's own test: per-layer counts repeat exactly between two runs.

    python3 perfbench/test_counts.py          (or: python3 -m pytest perfbench/test_counts.py)

Runs every workload twice with --trace 1 at the main seed and requires each
count metric (steps, doublings, paths, jumps, cells, corrected cells, rounds,
path-cells, window solves, spans, and the ratios of those counts) to be
identical across the two runs, and both runs to pass their output checks.
Takes about seven minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import MAIN_SEED, WORKLOAD_NAMES  # noqa: E402

COUNT_RATIOS = ("ode_engine.useful_step_frac", "ctmc.jumps_per_path",
                "ctmc.corrected_cell_frac", "simulate.tail_cache_hit_frac")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(MAIN_SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] == "count" or k in COUNT_RATIOS}


def test_counts_repeat():
    for workload in WORKLOAD_NAMES:
        first, second = traced_run(workload), traced_run(workload)
        assert first["correct"] and second["correct"], workload
        a, b = counts(first), counts(second)
        assert a and a == b, (workload, {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)})
        print(f"{workload}: {len(a)} counts identical", flush=True)


if __name__ == "__main__":
    test_counts_repeat()
