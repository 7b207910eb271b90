"""Regenerate perfbench/reference.json from the causalcov source in this checkout.

usage: python3 perfbench/make_reference.py

For each workload it records the exit code and the bounds of one run at
REF_SEED.  It then pools POOL times the workload's replicate count in one
run at another seed, and stores for each report row the range of hit
counts consistent with the pooled frequency (see checks.py), and for
identify the range of sample medians of the operator-norm error.  Run it
only when a change alters the reported numbers on purpose, and say so in
the change.  It takes a few minutes on two cores.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from causalcov.cli import main as cli_main  # noqa: E402

REF_SEED = 20240601
POOL = 16


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def reference_for(wl: dict, work: Path) -> dict:
    sub = wl["subcommand"]
    config = str(BENCH_DIR / wl["config"])
    replicates = json.loads(Path(config).read_text()).get("replicates")
    out = work / "single"
    code = run_cli([sub, "--config", config, "--out", str(out), "--seed", str(REF_SEED)])
    single = checks.extract(sub, out)
    ref: dict = {"expect_exit": code, "bounds": single["bounds"], "hits": {}}
    if not single["rows"]:
        return ref
    pooled_n = POOL * replicates
    pooled_dir = work / "pooled"
    run_cli(
        [sub, "--config", config, "--out", str(pooled_dir), "--seed", str(REF_SEED + 1),
         "--replicates", str(pooled_n)]
    )
    pooled = checks.extract(sub, pooled_dir)
    for key, (hits, n) in pooled["rows"].items():
        ref["hits"][key] = {
            "pooled_hits": hits,
            "pooled_replicates": n,
            "replicates": replicates,
            "range": checks.hits_range(hits, n, replicates),
        }
    if sub == "identify":
        with open(pooled_dir / "identify.csv") as fh:
            errors = sorted(float(row["op_error"]) for row in csv.DictReader(fh))
        half = checks.WILSON_Z / (2.0 * math.sqrt(replicates))
        lo = errors[max(0, math.floor((0.5 - half) * len(errors)))]
        hi = errors[min(len(errors) - 1, math.ceil((0.5 + half) * len(errors)))]
        ref["median_op_error_range"] = [lo, hi]
    return ref


def main() -> int:
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    work = ROOT / ".perfbench_work" / "reference"
    refs = {}
    try:
        for name, wl in workloads.items():
            shutil.rmtree(work, ignore_errors=True)
            refs[name] = reference_for(wl, work)
            print(f"{name}: exit {refs[name]['expect_exit']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    payload = {
        "about": "Reference report values; regenerate with perfbench/make_reference.py.",
        "ref_seed": REF_SEED,
        "pool": POOL,
        "workloads": refs,
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
