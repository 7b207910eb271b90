"""Layered benchmark of the causalcov CLI.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Each timed invocation of causalcov.cli.main runs in a fresh child
interpreter (perfbench/child.py), one at a time: a closed loop with a
single client.  New invocations start while they are expected to end
within --seconds, and at least two run, so that two invocations with the
same seed can be compared byte for byte.

--trace 0 prints the end-to-end metrics: wall_s (median seconds from the
entry to the return of causalcov.cli.main), setup_s (median seconds from
a child's start until causalcov.cli is imported, over every child of the
run but the first, which warms the bytecode cache) and peak_rss_mb
(median child ru_maxrss).  Failed invocations are counted in the
result's "attempted" and "failed" fields; checks.py says what fails an
invocation.

wall_s and setup_s are in seconds at the reference host speed.  On a
shared host the speed of a core drifts by tens of percent over seconds
to minutes.  A fixed kernel that runs no causalcov code slows with it, so
a measured time over the kernel's time keeps what the program does and
drops most of the drift.  wall_s is scaled by PROBE_REF_S over the mean
time of child.py's SpeedProbe samples, taken every 50 ms during the call;
setup_s by CAL_REF_S over the time of child.py's calibrate, run just
before the import.  The raw medians are printed too.

--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics: self time per layer, time and exact counts at the
calls into each layer's public functions, and the tracing overhead
(traced minus untraced wall_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
invocation passed its checks, 1 when one failed, and 2 when the benchmark
could not run (no causalcov source in the checkout, a bad environment).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

#: a single run must end within this many seconds
RUN_LIMIT_S = 175.0

#: import-only children per run, after one untimed warm-up child
SETUP_PROBES = 1

#: calibration kernel and speed-probe sample seconds that define the
#: reference host speed; about their median times on a 2-core x86-64 VM of
#: a shared host
CAL_REF_S = 0.25
PROBE_REF_S = 0.00135

#: BLAS runs on one thread, like the kernels, so that each child uses one
#: core and its speed is the one the kernels measure
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYERS = ("cli", "config", "process", "linalg", "bounds", "estimator", "montecarlo")

PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("config.load_config.s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"),
    ("process.var_to_operator.s", "s"),
    ("linalg.dense.s", "s"),
    ("linalg.dense_bytes", "bytes"),
    ("bounds.anticoncentration_bound.self_s", "s"),
    ("bounds.upper_tail_bound.self_s", "s"),
    ("bounds.psi_k.s", "s"),
    ("process.operators_per_cell", "count"),
    ("bounds.stats_per_cell", "count"),
    ("bounds.psi_k_per_cell", "count"),
    ("process.noise_block.s", "s"),
    ("process.noise_draws", "count"),
    ("rng.generator_setups", "count"),
    ("process.paths_from_noise.s", "s"),
    ("process.path_steps", "count"),
    ("montecarlo.run_tail_experiment.self_s", "s"),
    ("montecarlo.replicates", "count"),
    ("montecarlo.run_identification_experiment.self_s", "s"),
    ("estimator.least_squares.s", "s"),
    ("estimator.least_squares.calls", "count"),
    ("estimator.rank_deficient_fits", "count"),
    ("estimator.ls_bound_details.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

#: per-layer metrics that must repeat exactly between traced invocations
EXACT = frozenset(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_workloads() -> dict:
    """Workload definitions with their configs and reference values resolved."""
    defs = json.loads((BENCH_DIR / "workloads.json").read_text())
    refs = json.loads((BENCH_DIR / "reference.json").read_text())["workloads"]
    for name, wl in defs.items():
        wl["config"] = str(BENCH_DIR / wl["config"])
        wl["reference"] = refs[name]
        wl["expect_exit"] = refs[name]["expect_exit"]
    return defs


def grid_cells(config_path: str) -> int:
    """Analysis cells of a config: the (T, k, delta) grid size, 1 without one."""
    grid = json.loads(Path(config_path).read_text()).get("grid", {})
    cells = 1
    for key in ("T", "k", "delta"):
        cells *= len(grid.get(key, [None]))
    return cells


def check_threads() -> None:
    raw = os.environ.get("CAUSALCOV_THREADS")
    if raw is None:
        return
    nproc = len(os.sched_getaffinity(0))
    try:
        threads = int(raw)
    except ValueError:
        raise BenchError(f"CAUSALCOV_THREADS={raw!r} is not an integer") from None
    if threads > nproc:
        raise BenchError(f"CAUSALCOV_THREADS={threads} exceeds nproc={nproc}")


def at_reference(seconds: float, kernel_s: float, reference_s: float) -> float:
    """A measured time in seconds at the reference host speed, given the
    time a fixed kernel took next to it and at the reference speed."""
    return seconds * reference_s / kernel_s


def spawn(work: Path, tag: str, argv: list[str] | None, trace: bool, deadline: float) -> dict:
    """Run one child to completion and return its result record."""
    result = work / f"{tag}.result.json"
    spec = {"root": str(ROOT), "argv": argv, "trace": trace, "result": str(result)}
    spec["spawned_at"] = time.monotonic()
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            env={**os.environ, **ONE_THREAD},
            stderr=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child {tag} exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"child {tag} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(result.read_text())
    record["stderr"] = proc.stderr[-500:]
    return record


def probe_environment(work: Path, deadline: float) -> tuple[dict, list[dict]]:
    """Warm the bytecode cache, record the environment, sample set-up time."""
    env = None
    setups = []
    for i in range(SETUP_PROBES + 1):
        res = spawn(work, f"probe{i}", None, False, deadline)
        if "error" in res:
            raise BenchError(f"cannot import causalcov from {ROOT / 'src'}: {res['error']}")
        env = res["env"]
        if i > 0:
            setups.append(res)
    threads = env["blas"]["threads"]
    if threads is not None and threads > env["nproc"]:
        raise BenchError(f"BLAS runs {threads} threads on nproc={env['nproc']}")
    return env, setups


def profile(res: dict, cells: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced invocation from its spans and counts,
    and the largest self-time shares of its traced wall time by span name."""
    spans, counts = res["spans"], res["counts"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    layer_self: dict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child_time[i]
        total[name] += end - start
        self_time[name] += own
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update(
        {
            "cli.report_bytes": res.get("report_bytes", 0),
            "config.load_config.s": total["config.load_config"],
            "process.var_to_operator.s": total["process.var_to_operator"],
            "linalg.dense.s": total["linalg.CausalOperator.dense"],
            "linalg.dense_bytes": counts.get("linalg.dense_bytes", 0),
            "bounds.anticoncentration_bound.self_s": self_time["bounds.anticoncentration_bound"],
            "bounds.upper_tail_bound.self_s": self_time["bounds.upper_tail_bound"],
            "bounds.psi_k.s": total["bounds.psi_k"],
            "process.operators_per_cell": calls["process.var_to_operator"] / cells,
            "bounds.stats_per_cell": counts.get("bounds.dense_svds", 0) / cells,
            "bounds.psi_k_per_cell": calls["bounds.psi_k"] / cells,
            "process.noise_block.s": total["process.noise_block"],
            "process.noise_draws": counts.get("process.noise_draws", 0),
            "rng.generator_setups": counts.get("rng.generator_setups", 0),
            "process.paths_from_noise.s": total["process.paths_from_noise"],
            "process.path_steps": counts.get("process.path_steps", 0),
            "montecarlo.run_tail_experiment.self_s": self_time["montecarlo.run_tail_experiment"],
            "montecarlo.replicates": counts.get("montecarlo.replicates", 0),
            "montecarlo.run_identification_experiment.self_s": self_time[
                "montecarlo.run_identification_experiment"
            ],
            "estimator.least_squares.s": total["estimator.least_squares"],
            "estimator.least_squares.calls": calls["estimator.least_squares"],
            "estimator.rank_deficient_fits": counts.get("estimator.rank_deficient_fits", 0),
            "estimator.ls_bound_details.s": total["estimator.ls_bound_details"],
            "trace.wall_s": total["cli.main"],
            "trace.spans": len(spans),
        }
    )
    largest = sorted(self_time.items(), key=lambda kv: -kv[1])[:8]
    return out, {name: own / total["cli.main"] for name, own in largest}


def run_workload(wl: dict, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run of a workload; returns metrics, counts and report lines."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env, setups = probe_environment(work, deadline)
    cells = grid_cells(wl["config"])
    untraced, traced = [], []
    failures: list[str] = []
    first_bytes = None
    loop_start = time.monotonic()
    n = 0
    while True:
        if n >= 2:
            elapsed = time.monotonic() - loop_start
            if elapsed + elapsed / n > seconds:
                break
        out_dir = work / f"out{n}"
        argv = [wl["subcommand"], "--config", wl["config"], "--out", str(out_dir), "--seed", str(seed)]
        is_traced = trace and n % 2 == 1
        res = spawn(work, f"inv{n}", argv, is_traced, deadline)
        n += 1
        reasons = []
        if "error" in res:
            reasons.append(res["error"])
        else:
            setups.append(res)
            expected = wl["expect_exit"]
            if res["exit_code"] not in ((0, 1) if expected is None else (expected,)):
                reasons.append(f"exit code {res['exit_code']}, expected {expected}: {res['stderr']!r}")
            try:
                found = checks.extract(wl["subcommand"], out_dir)
                got_bytes = checks.report_bytes(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                reasons.append(f"unreadable report: {exc!r}")
            else:
                reasons += checks.check_reports(found, wl["reference"])
                if first_bytes is None:
                    first_bytes = got_bytes
                elif got_bytes != first_bytes:
                    reasons.append("report bytes differ from the first invocation with this seed")
                res["report_bytes"] = sum(len(b) for b in got_bytes.values())
            (traced if is_traced else untraced).append(res)
        if reasons:
            failures.append(f"invocation {n - 1}: " + "; ".join(reasons))
        shutil.rmtree(out_dir, ignore_errors=True)

    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    metrics: dict = {}
    if not trace:
        walls = [at_reference(r["wall_s"], statistics.mean(r["probe_s"]), PROBE_REF_S) for r in untraced]
        raw = [r["wall_s"] for r in untraced]
        rss = [r["peak_rss_mb"] for r in untraced]
        if walls:
            metrics["wall_s"] = statistics.median(walls)
            metrics["peak_rss_mb"] = statistics.median(rss)
            lines.append(
                f"wall_s {metrics['wall_s']:.6f} s (median of {len(walls)} invocations at the reference "
                f"speed, range {min(walls):.3f} to {max(walls):.3f}; raw median {statistics.median(raw):.3f} s)"
            )
            lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB (median of {len(rss)} invocations)")
        metrics["setup_s"] = statistics.median(at_reference(r["setup_s"], r["calib_s"], CAL_REF_S) for r in setups)
        raw_setup = statistics.median(r["setup_s"] for r in setups)
        lines.append(
            f"setup_s {metrics['setup_s']:.6f} s (median of {len(setups)} child starts at the reference "
            f"speed; raw median {raw_setup:.3f} s)"
        )
        lines.append(
            f"calib_s {statistics.median(r['calib_s'] for r in setups):.4f} s (median of {len(setups)} "
            f"calibration runs; reference {CAL_REF_S} s)"
        )
        probes = [t for r in untraced for t in r["probe_s"]]
        if probes:
            lines.append(
                f"probe_s {statistics.median(probes) * 1e3:.3f} ms (median of {len(probes)} speed samples; "
                f"reference {PROBE_REF_S * 1e3:.3f} ms)"
            )
    elif traced and untraced:
        profiles, shares = zip(*(profile(r, cells) for r in traced))
        for name in profiles[0]:
            values = [p[name] for p in profiles]
            if name in EXACT and len(set(values)) > 1:
                failures.append(f"count {name} differs between traced invocations: {values}")
            metrics[name] = statistics.median(values)
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        top = ", ".join(f"{k} {v:.1%}" for k, v in shares[0].items())
        lines.append(f"self-time shares of traced wall_s: {top}")
        lines.append(
            f"traced {len(traced)} and untraced {len(untraced)} invocations; "
            f"overhead {metrics['trace.overhead_s']:+.4f} s"
        )
    lines.append(
        f"failed_ops {len(failures)}/{n} invocations "
        f"(expected exit code {wl['expect_exit']}, {cells} analysis cell(s))"
    )
    return {"attempted": n, "failed": len(failures), "failures": failures, "metrics": metrics, "lines": lines}


def summarize(results: dict, trace: bool) -> dict:
    """The result line; metric names get a workload prefix when several ran."""
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if not (ROOT / "src" / "causalcov" / "cli.py").is_file():
            raise BenchError(f"no causalcov source under {ROOT / 'src'}")
        check_threads()
        workloads = load_workloads()
        names = list(workloads) if args.workload == "all" else [args.workload]
        if any(name not in workloads for name in names):
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
        work.mkdir(parents=True)
        results = {}
        for name in names:
            res = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace), work)
            results[name] = res
            print(f"workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
            for line in res["lines"] + res["failures"]:
                print(f"  {line}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    summary = summarize(results, bool(args.trace))
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
