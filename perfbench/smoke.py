"""Smoke check of the benchmark itself, on tiny variants of its workloads.

usage: python3 perfbench/smoke.py

Each workload's config is shrunk to T=32 (sweep: T in {32, 64}) and 256
replicates and run through run.py's own loop.  The check asserts that:

- BENCHMARK.json declares exactly the metrics and units run.py reports;
- a --trace 0 run prints every end-to-end metric with its unit, and a
  --trace 1 run every per-layer metric;
- every invocation passes its checks (no reference values at these sizes:
  finite bounds, exit code 0 or 1, identical report bytes per seed);
- two traced runs at one seed repeat every count exactly.

It takes about a minute on two cores and is not part of the pytest suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 7


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {message}")


def tiny_workloads(work: Path) -> dict:
    workloads = run.load_workloads()
    for name, wl in workloads.items():
        config = json.loads(Path(wl["config"]).read_text())
        config["T"] = 32
        if "replicates" in config:
            config["replicates"] = 256
        if "grid" in config:
            config["grid"]["T"] = [32, 64]
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        wl.update(config=str(path), reference=None, expect_exit=None)
    return workloads


def bench(name: str, trace: int) -> tuple[list[str], dict]:
    """run.py's main on one tiny workload: (printed lines, result line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    require(code == 0, f"{name} --trace {trace} exited {code}: {lines}")
    return lines, json.loads(lines[-1])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = {(m["name"], m["unit"]) for m in declared[key]}
        require(got == set(table), f"BENCHMARK.json {key} differs from run.py: {got ^ set(table)}")

    run.SETUP_PROBES = 0
    work = run.ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tiny = tiny_workloads(work)
        run.load_workloads = lambda: tiny
        for name in tiny:
            lines, result = bench(name, 0)
            for metric, unit in run.END_TO_END:
                require(result["metrics"].get(metric, {}).get("unit") == unit, f"{name}: {metric} unit")
                printed = (line.split()[:1] == [metric] and f" {unit} (median of " in line for line in lines)
                require(any(printed), f"{name}: {metric} is not printed with its unit and sample count")
            traced = [bench(name, 1)[1] for _ in range(2)]
            for metric, unit in run.PER_LAYER:
                for res in traced:
                    require(res["metrics"].get(metric, {}).get("unit") == unit, f"{name}: {metric} unit")
                if metric in run.EXACT:
                    a, b = (res["metrics"][metric]["value"] for res in traced)
                    require(a == b, f"{name}: {metric} is {a} then {b} at seed {SEED}")
            counts = {m: traced[0]["metrics"][m]["value"] for m in sorted(run.EXACT)}
            print(f"{name}: ok; counts {json.dumps(counts)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
