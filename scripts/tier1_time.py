"""Time the Tier-1 test suite several times and report the median.

    python3 scripts/tier1_time.py [--runs N]

Compiles ``src/eulertop`` once (``compileall``), so that no run pays for
bytecode, then runs the Tier-1 command N times (default 3), one after
another, each in a fresh process from the repository root:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

It prints one JSON line: each run's wall time and its pass and fail
counts, and the median wall time.  It exits 1 if any run fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _counts(summary: str) -> tuple[int, int]:
    """The passed and the failed (failures and errors) counts of pytest's summary line."""
    found = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return found.get("passed", 0), found.get("failed", 0) + found.get("error", 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="how many times to run Tier-1 (default 3)")
    runs = parser.parse_args().runs
    if runs < 1:
        parser.error("--runs must be at least 1")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/eulertop"], cwd=ROOT, check=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    results, ok = [], True
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        passed, failed = _counts(lines[-1] if lines else "")
        if done.returncode:
            ok = False
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        results.append({"wall_s": round(wall, 2), "passed": passed, "failed": failed})
    median = statistics.median(r["wall_s"] for r in results)
    print(json.dumps({"runs": results, "median_wall_s": round(median, 2)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
