"""Time the `bounds` subcommand over a ladder of horizons.

usage: python3 tools/bounds_ladder.py [--src DIR] T [T ...]

Each horizon runs in a fresh interpreter with BLAS on one thread, on the
model of perfbench/configs/bounds-T512.json with only T changed.  The
package is imported from --src (default: this checkout's src/), so the
same script times another checkout.  One JSON object per horizon is
printed: T, the exit code, wall_s (entry to return of
causalcov.cli.main) and peak_rss_mb (the child's ru_maxrss).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODEL = ROOT / "perfbench" / "configs" / "bounds-T512.json"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD = """
import json, resource, sys, time
from causalcov.cli import main
t0 = time.perf_counter()
code = main(["bounds", "--config", sys.argv[1], "--out", sys.argv[2]])
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"exit": code, "wall_s": round(wall, 4), "peak_rss_mb": round(rss, 1)}))
"""


def run(src: Path, T: int, work: Path) -> dict:
    config = json.loads(MODEL.read_text())
    config["T"] = T
    path = work / f"T{T}.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), str(work / f"out{T}")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return {"T": T, **json.loads(out.stdout.strip().splitlines()[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("horizons", nargs="+", type=int)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for T in args.horizons:
            print(json.dumps(run(args.src.resolve(), T, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
