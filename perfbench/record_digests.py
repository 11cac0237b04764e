"""Record the reference output digests that every benchmark pass checks.

    python3 perfbench/record_digests.py

Runs one pass of each workload under two seeds (two operation orders),
refuses to write anything if the digests depend on the order, and
writes `perfbench/digests.json`.  Run it only on a commit whose outputs
are the reference: a change that claims a speed-up must leave these
digests unchanged.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("repro", "refine", "recheck")
SEEDS = (1, 2)


def record(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--record"],
        check=True, capture_output=True, text=True, timeout=600)
    result = json.loads(out.stdout.splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload}: {result['failed']} operations failed")
    return result["digests"]


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        first, second = (record(workload, seed) for seed in SEEDS)
        if first != second:
            raise SystemExit(f"{workload}: digests depend on the order")
        digests.update(first)
    (HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
