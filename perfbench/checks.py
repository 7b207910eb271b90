"""Report checks: what makes one benchmark invocation count as failed.

An invocation fails when it raises, when its exit code differs from the
workload's recorded one, or when its reports disagree with reference.json:

- a bound is missing or not finite;
- a bound is off its reference by more than BOUND_RTOL (relative);
- a row's hits lie outside its reference range: the counts h whose Wilson
  interval (z = WILSON_Z) at the workload's replicate count overlaps the
  Wilson interval of a pooled reference run with many more replicates.
  The range describes the event's probability, not one random stream, so
  it stays valid if the generator changes;
- identify's median operator-norm error lies outside the reference range of
  sample medians (pooled quantiles 1/2 -+ WILSON_Z / (2 sqrt(R)));
- its report bytes differ from those of an invocation with the same seed in
  the same run (the .meta.json sidecars hold timestamps and are skipped).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: relative tolerance of a bound against its reference value
BOUND_RTOL = 1e-3

#: normal quantile of the reference intervals; a false alarm per row is
#: about 1e-6, so a series of runs checking a few hundred rows stays clean
WILSON_Z = 5.0

#: bound-like scalars of a bounds.json report
BOUNDS_KEYS = (
    "anticonc_bound",
    "anticonc_threshold",
    "arma_corollary_bound",
    "armastability_bound",
    "ls_error_bound",
    "psi_k",
    "upper_tail_bound",
)

#: bound-like scalars of each sweep cell
CELL_KEYS = ("anticonc_bound", "anticonc_threshold", "ls_error_bound", "psi_k", "upper_tail_bound")


def wilson(hits: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for hits successes out of n."""
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def hits_range(pooled_hits: int, pooled_n: int, n: int) -> list[int]:
    """[lo, hi]: hit counts out of n whose Wilson interval meets the pooled one."""
    ref_lo, ref_hi = wilson(pooled_hits, pooled_n)
    ok = [h for h in range(n + 1) if wilson(h, n)[0] <= ref_hi and wilson(h, n)[1] >= ref_lo]
    return [ok[0], ok[-1]]


def _row_key(row: dict, sweep: bool) -> str:
    if not sweep:
        return row["event"]
    return f"{row['event']}@T={row['T']},k={row['k']},delta={row['delta']}"


def extract(subcommand: str, out_dir: Path) -> dict:
    """Bounds, hit rows and the identify median from one invocation's reports."""
    report = json.loads((out_dir / f"{subcommand}.json").read_text())
    bounds: dict = {}
    rows: dict = {}
    median = None
    if subcommand == "bounds":
        bounds = {key: report.get(key) for key in BOUNDS_KEYS}
    elif subcommand in ("verify", "sweep"):
        sweep = subcommand == "sweep"
        for row in report["results"]:
            key = _row_key(row, sweep)
            bounds[f"{key}.bound"] = row["bound"]
            rows[key] = [row["hits"], row["replicates"]]
        for cell in report.get("cells", []):
            head = f"cell@T={cell['T']},k={cell['k']},delta={cell['delta']}"
            for key in CELL_KEYS:
                bounds[f"{head}.{key}"] = cell.get(key)
    elif subcommand == "identify":
        bounds = {
            "ls_error_bound": report.get("ls_error_bound"),
            "exceedance.budget": report["exceedance"]["budget"],
        }
        rows["ls-error-exceeds-bound"] = [report["exceedance"]["hits"], report["replicates"]]
        median = report["median_op_error"]
    else:
        raise ValueError(f"no report checks for subcommand {subcommand!r}")
    return {"bounds": bounds, "rows": rows, "median_op_error": median}


def report_bytes(out_dir: Path) -> dict[str, bytes]:
    """Every report file of an output directory except the .meta.json sidecars."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and not p.name.endswith(".meta.json")
    }


def check_reports(found: dict, reference: dict | None) -> list[str]:
    """Reasons the extracted reports fail; empty when they pass.

    Without a reference (the smoke check's tiny configs) only finiteness
    is checked.
    """
    reasons = []
    for key, value in found["bounds"].items():
        if value is not None and not math.isfinite(value):
            reasons.append(f"bound {key} is not finite: {value!r}")
    if reference is None:
        return reasons
    for key, ref in reference["bounds"].items():
        value = found["bounds"].get(key)
        if value is None:
            reasons.append(f"bound {key} is missing")
        elif math.isfinite(value) and abs(value - ref) > BOUND_RTOL * abs(ref):
            reasons.append(f"bound {key} = {value!r}, reference {ref!r} (rtol {BOUND_RTOL})")
    for key, row in reference["hits"].items():
        got = found["rows"].get(key)
        lo, hi = row["range"]
        if got is None:
            reasons.append(f"row {key} is missing")
        elif got[1] != row["replicates"] or not lo <= got[0] <= hi:
            reasons.append(f"row {key}: {got[0]} hits of {got[1]}, reference range [{lo}, {hi}]")
    if "median_op_error_range" in reference:
        lo, hi = reference["median_op_error_range"]
        got = found["median_op_error"]
        if got is None or not lo <= got <= hi:
            reasons.append(f"median_op_error {got!r} outside reference range [{lo}, {hi}]")
    return reasons
