"""Time a subcommand of the CLI over a ladder of horizons.

usage: python3 tools/bounds_ladder.py [--src DIR]
                                     [--subcommand bounds|identify|simulate|verify]
                                     [--config PATH] T [T ...]

Each horizon runs in a fresh interpreter with BLAS on one thread.
`bounds` (the default) runs on the config of
perfbench/configs/bounds-T512.json with only T changed.  The Monte-Carlo
subcommands scale the replicate count R with T so that R * T stays that
of their config (and R >= 1), so every rung simulates about as many time
steps: `identify` runs on perfbench/configs/identify-T4096.json, with
R * T = 100 * 4096, and `verify` and `simulate` on
perfbench/configs/verify-mc.json, with R * T = 16384 * 128.  From
T = 16384 on, identify's R is below 44, the fewest replicates whose
Wilson interval at zero hits fits identify's budget 2 delta = 0.2, so
identify exits 1 there; verify exits 1 at every rung, as two of its
bounds lie below the Wilson floor.  --config runs the rungs on another
config instead, with the same changes; for example
tools/models/bounds-dL12.json, a VAR with d = 4 and 3 lags, so dL = 12.
The package is imported from --src (default: this checkout's src/), so
the same script times another checkout.  One JSON object per horizon is
printed: T, R for a Monte-Carlo subcommand, the exit code, import_s (the
child's time to import causalcov.cli, NumPy included), wall_s (entry to
return of causalcov.cli.main, reports written) and peak_rss_mb (the
child's ru_maxrss).
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
CONFIGS = ROOT / "perfbench" / "configs"
MODELS = {
    "bounds": CONFIGS / "bounds-T512.json",
    "identify": CONFIGS / "identify-T4096.json",
    "simulate": CONFIGS / "verify-mc.json",
    "verify": CONFIGS / "verify-mc.json",
}

#: replicates times horizon of every rung of a Monte-Carlo subcommand
STEPS = {"identify": 100 * 4096, "simulate": 16384 * 128, "verify": 16384 * 128}
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD = """
import json, resource, sys, time
t0 = time.perf_counter()
from causalcov.cli import main
t1 = time.perf_counter()
code = main([sys.argv[3], "--config", sys.argv[1], "--out", sys.argv[2]])
wall = time.perf_counter() - t1
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"exit": code, "import_s": round(t1 - t0, 4), "wall_s": round(wall, 4),
                  "peak_rss_mb": round(rss, 1)}))
"""


def run(src: Path, subcommand: str, model: Path, T: int, work: Path) -> dict:
    config = json.loads(model.read_text())
    config["T"] = T
    rung = {"T": T}
    if subcommand in STEPS:
        config["replicates"] = rung["R"] = max(1, STEPS[subcommand] // T)
    path = work / f"{subcommand}-T{T}.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), str(work / f"out-{subcommand}-{T}"), subcommand],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return {**rung, **json.loads(out.stdout.strip().splitlines()[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("horizons", nargs="+", type=int)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--subcommand", choices=sorted(MODELS), default="bounds")
    parser.add_argument(
        "--config", type=Path, default=None, help="config to run (default: the subcommand's)"
    )
    args = parser.parse_args()
    model = args.config or MODELS[args.subcommand]
    with tempfile.TemporaryDirectory() as tmp:
        for T in args.horizons:
            rung = run(args.src.resolve(), args.subcommand, model, T, Path(tmp))
            print(json.dumps(rung), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
