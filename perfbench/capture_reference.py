"""Capture the reference outputs that the benchmark's checks compare against.

    python3 perfbench/capture_reference.py

Run it once at the commit whose outputs are the reference, from the root of a
source checkout. It writes perfbench/reference/: the four fig1 CSVs (gzip)
and, at the main and the held-out seed, the validate-mc Monte-Carlo numbers
and the regimes-32 g tables (17 evenly spaced rows plus a sha256 of the
whole table) and Monte-Carlo numbers.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the thread limits before numpy loads)

SEEDS = (run.MAIN_SEED, run.HELDOUT_SEED)


def main() -> int:
    run.import_package()
    from workloads import REFERENCE_DIR, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        for seed in (None,) if name == "fig1-cert" else SEEDS:
            w = cls()
            w.setup(0 if seed is None else seed, run.WORK / f"reference-{name}")
            ref = w.reference_of(w.body())
            stem = name if seed is None else f"{name}-{seed}"
            if ref is not None:
                (REFERENCE_DIR / f"{stem}.json").write_text(json.dumps(ref, indent=1) + "\n")
            print(f"captured {stem}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
