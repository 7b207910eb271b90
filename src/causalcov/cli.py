"""Command-line front end: configs in, certification reports out.

Subcommands:

    causalcov bounds   --config cfg.json [--out DIR]
    causalcov verify   --config cfg.json [--out DIR] [--seed N] [--replicates N]
    causalcov identify --config cfg.json [--out DIR] [--seed N] [--replicates N]
    causalcov sweep    --config cfg.json [--out DIR] [--seed N] [--replicates N]
    causalcov simulate --config cfg.json [--out DIR] [--seed N] [--replicates N]

Exit codes: 0 = all certifications pass or are vacuous; 1 = a non-vacuous
certification failed; 2 = configuration or model error, including a NaN or
infinite bound and a failed linear-algebra routine.

Reports are deterministic for a fixed config: JSON is emitted with sorted
keys, CSV with a fixed documented header, floats via repr round-tripping.
Wall-clock timestamps live only in the .meta.json sidecar next to each
report, which is excluded from any byte-level comparison.  The CSV column
orders are VERIFY_COLUMNS and SWEEP_COLUMNS below; README.md documents them
and the config schema for users.  Every CSV report goes through _write_csv,
row by row: simulate writes each batch of montecarlo's sampling loop as it
is drawn, so it holds one batch in memory.  At seed s it writes the paths
run_tail_experiment(seed=s) samples.  verify and sweep sample each (T, k)
cell once, at the sub-seed derive_seed(s, c), c the cell's index in grid
order (T outer, k inner; verify's one cell is 0), and score every event
of the cell, at every delta, on those paths.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    anticoncentration_bound,
    arma_corollary_bound,
    arma_prefactor,
    armastability_bound,
)
from .config import ExperimentConfig, _require_int, _require_seed, load_config
from .errors import CausalCovError, ConfigError
from .estimator import ls_bound_details, ls_error_bound
from .montecarlo import (
    _finite_bound,
    _path_batches,
    run_identification_experiment,
    run_tail_experiments,
)
from .process import ProcessSpec, VarSystem, derive_seed, gamma_k, kappa

__all__ = ["main"]

VERIFY_COLUMNS = (
    "event",
    "T",
    "k",
    "replicates",
    "hits",
    "frequency",
    "ci_low",
    "ci_high",
    "bound",
    "vacuous",
    "certified",
)

SWEEP_COLUMNS = VERIFY_COLUMNS[:3] + ("delta",) + VERIFY_COLUMNS[3:] + (
    "psi_k",
    "anticonc_bound",
    "anticonc_threshold",
    "upper_tail_bound",
    "ls_error_bound",
    "burnin_satisfied",
)


def _json_default(obj):
    """json.dumps hook: NumPy scalars and arrays as plain data.  A float64 is
    a float, which json writes with float.__repr__ without the hook."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _write_csv(path: Path, columns, rows) -> None:
    """Header, then each row (its values in column order) as it comes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(_csv_cell, row) for row in rows)


def _write_meta(path: Path, subcommand: str, outputs: list[Path]) -> None:
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        # the noise route reads NumPy's PCG64 struct layout (causalcov._rng)
        "numpy": np.__version__,
        "subcommand": subcommand,
        "tool": "causalcov",
        "version": __version__,
        "outputs": [p.name for p in outputs],
    }
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load(args: argparse.Namespace) -> tuple[ExperimentConfig, Path]:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = _require_seed(args.seed, "--seed")
    if args.replicates is not None:
        config.replicates = _require_int(args.replicates, "--replicates")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return config, out_dir


def _experiment_row(exp, spec: ProcessSpec) -> dict:
    """Flatten one experiment into a CSV/JSON row."""
    return {
        "event": exp.event,
        "T": spec.T,
        "k": spec.k,
        "replicates": exp.replicates,
        "hits": exp.hits,
        "frequency": exp.frequency,
        "ci_low": exp.ci[0],
        "ci_high": exp.ci[1],
        "bound": exp.bound,
        "vacuous": exp.vacuous,
        "certified": exp.certified,
        "seed": exp.seed,
        "extras": {k_: v for k_, v in exp.extras.items() if np.isscalar(v) or v is None},
    }


def _operator_bounds(spec: ProcessSpec) -> dict:
    """Cell quantities of the process alone, shared by bounds and sweep rows."""
    report = anticoncentration_bound(spec)
    return {
        "psi_k": report.psi_k,
        "chernoff_exponent": report.chernoff_exponent,
        "anticonc_bound": report.anticonc_probability,
        "anticonc_threshold": report.anticonc_threshold,
        "upper_tail_bound": report.upper_tail_probability,
        "intermediates": report.intermediates,
    }


def _ls_bounds(config: ExperimentConfig, spec: ProcessSpec, delta: float) -> dict:
    """Cell quantities of the least-squares guarantee at one confidence delta."""
    if not isinstance(config.model, VarSystem):
        return {"ls_error_bound": None, "burnin_satisfied": None}
    details = ls_bound_details(config.model, spec.T, spec.k, delta)
    return {
        "ls_error_bound": _finite_bound("ls-error-exceeds-bound", details["bound"]),
        "burnin_satisfied": details["burnin_satisfied"],
        "c_sys": details["c_sys"],
        "lam_min_gamma_k": details["lam_min_gamma"],
    }


def cmd_bounds(args: argparse.Namespace) -> int:
    config, out_dir = _load(args)
    spec = config.process_spec()
    report: dict = {
        "config": config.to_dict(),
        "T": config.T,
        "k": config.k,
        "k_auto": config.k_auto,
        "effective_horizon": spec.effective_horizon,
    }
    if spec.truncation_notice:
        report["truncation_notice"] = spec.truncation_notice
    report.update(_operator_bounds(spec))
    report.update(_ls_bounds(config, spec, config.delta))
    if isinstance(config.model, VarSystem):
        sys_model = config.model
        report["kappa"] = kappa(sys_model, k_max=config.T)
        gamma = gamma_k(sys_model, config.k)
        report["gamma_k_spectrum"] = np.linalg.eigvalsh(np.asarray(gamma)).tolist()
        report["armastability_bound"] = armastability_bound(sys_model, config.T)
        _, base = arma_prefactor(sys_model, config.T, config.k)
        report["arma_prefactor_base"] = base
        report["arma_corollary_bound"] = arma_corollary_bound(sys_model, config.T, config.k)
        report["delta"] = config.delta
    json_path = out_dir / "bounds.json"
    _write_json(json_path, report)
    _write_meta(out_dir / "bounds.meta.json", "bounds", [json_path])
    print(f"wrote {json_path}")
    return 0


def _run_events(config: ExperimentConfig, spec: ProcessSpec, cell: int) -> list[dict]:
    """One row per config event, all scored on one sample of the cell's paths."""
    seed = derive_seed(config.seed, cell)
    exps = run_tail_experiments(spec, config.events, R=config.replicates, seed=seed)
    return [_experiment_row(exp, spec) for exp in exps]


def cmd_verify(args: argparse.Namespace) -> int:
    config, out_dir = _load(args)
    spec = config.process_spec()
    rows = _run_events(config, spec, cell=0)
    overall = all(r["certified"] for r in rows)
    summary: dict = {
        "config": config.to_dict(),
        "effective_horizon": spec.effective_horizon,
        "results": rows,
        "overall_pass": overall,
    }
    if spec.truncation_notice:
        summary["truncation_notice"] = spec.truncation_notice
    csv_path = out_dir / "verify.csv"
    json_path = out_dir / "verify.json"
    _write_csv(csv_path, VERIFY_COLUMNS, (map(r.get, VERIFY_COLUMNS) for r in rows))
    _write_json(json_path, summary)
    _write_meta(out_dir / "verify.meta.json", "verify", [csv_path, json_path])
    for r in rows:
        status = "vacuous" if r["vacuous"] else ("pass" if r["certified"] else "FAIL")
        print(
            f"{r['event']}: frequency={r['frequency']:.6g} "
            f"ci_high={r['ci_high']:.6g} bound={r['bound']:.6g} [{status}]"
        )
    print(f"wrote {csv_path} and {json_path}")
    return 0 if overall else 1


def cmd_identify(args: argparse.Namespace) -> int:
    config, out_dir = _load(args)
    if not isinstance(config.model, VarSystem):
        raise ConfigError("identify requires a var model")
    if config.require_burnin:
        ls_error_bound(config.model, config.T, config.k, config.delta, require_burnin=True)
    exp = run_identification_experiment(
        config.model,
        config.T,
        config.k,
        config.delta,
        R=config.replicates,
        seed=config.seed,
    )
    op_errors = exp.extras["op_errors"]
    burnin_ok = bool(exp.extras["burnin_satisfied"])
    report: dict = {
        "config": config.to_dict(),
        "ls_error_bound": exp.extras["ls_bound"],
        "c_sys": exp.extras["c_sys"],
        "burnin_satisfied": burnin_ok,
        "replicates": exp.replicates,
        "exceedance": {
            "hits": exp.hits,
            "frequency": exp.frequency,
            "ci_low": exp.ci[0],
            "ci_high": exp.ci[1],
            "budget": exp.bound,
        },
        "median_op_error": exp.extras["median_op_error"],
        "seed": exp.seed,
    }
    if burnin_ok:
        report["certified"] = exp.certified
        report["vacuous"] = exp.vacuous
    csv_path = out_dir / "identify.csv"
    json_path = out_dir / "identify.json"
    _write_csv(csv_path, ("replicate", "op_error"), enumerate(op_errors))
    _write_json(json_path, report)
    _write_meta(out_dir / "identify.meta.json", "identify", [csv_path, json_path])
    print(
        f"ls-error-exceeds-bound: frequency={exp.frequency:.6g} "
        f"budget={exp.bound:.6g} burnin_satisfied={burnin_ok}"
    )
    print(f"wrote {csv_path} and {json_path}")
    if not burnin_ok:
        return 0
    return 0 if exp.certified else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    config, out_dir = _load(args)
    t_grid = config.grid.get("T", [config.T])
    k_grid = config.grid.get("k", [config.k])
    d_grid = config.grid.get("delta", [config.delta])
    if (len(t_grid) > 1 or len(k_grid) > 1) and not isinstance(config.model, VarSystem):
        raise ConfigError("sweep grids over T or k require a var model")
    rows: list[dict] = []
    cells: list[dict] = []
    for cell, (T, k) in enumerate(itertools.product(t_grid, k_grid)):
        spec = config.process_spec(T, k)
        op_cell = _operator_bounds(spec)
        del op_cell["intermediates"]
        heads = [{**op_cell, **_ls_bounds(config, spec, delta)} for delta in d_grid]
        # no tail event depends on delta: every delta reuses the cell's rows
        event_rows = _run_events(config, spec, cell)
        for delta, cell_head in zip(d_grid, heads):
            columns = {col: cell_head[col] for col in SWEEP_COLUMNS[-6:]}
            rows.extend({**r, "delta": delta, **columns} for r in event_rows)
            cells.append({"T": T, "k": k, "delta": delta, **cell_head})
    overall = all(r["certified"] for r in rows)
    summary = {
        "config": config.to_dict(),
        "cells": cells,
        "results": rows,
        "overall_pass": overall,
    }
    csv_path = out_dir / "sweep.csv"
    json_path = out_dir / "sweep.json"
    _write_csv(csv_path, SWEEP_COLUMNS, (map(r.get, SWEEP_COLUMNS) for r in rows))
    _write_json(json_path, summary)
    _write_meta(out_dir / "sweep.meta.json", "sweep", [csv_path, json_path])
    print(f"{len(rows)} rows over {len(cells)} cells; overall_pass={overall}")
    print(f"wrote {csv_path} and {json_path}")
    return 0 if overall else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    config, out_dir = _load(args)
    spec = config.process_spec()
    columns = ("replicate", "t") + tuple(f"x{i}" for i in range(spec.state_dim))
    batches = _path_batches(spec, config.seed, config.replicates)
    paths = (path for x in batches for path in x.tolist())
    rows = ((r, t, *state) for r, path in enumerate(paths) for t, state in enumerate(path))
    csv_path = out_dir / "simulate.csv"
    _write_csv(csv_path, columns, rows)
    _write_meta(out_dir / "simulate.meta.json", "simulate", [csv_path])
    print(f"wrote {csv_path} ({config.replicates} paths, horizon {spec.effective_horizon})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalcov",
        description="Certify covariance tail bounds for causal Gaussian processes.",
    )
    parser.add_argument("--version", action="version", version=f"causalcov {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    handlers = {
        "bounds": (cmd_bounds, "evaluate every theoretical bound for a config"),
        "verify": (cmd_verify, "Monte-Carlo certify tail bounds"),
        "identify": (cmd_identify, "run the least-squares identification experiment"),
        "sweep": (cmd_sweep, "verify over a (T, k, delta) grid"),
        "simulate": (cmd_simulate, "sample trajectories to CSV"),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--replicates", type=int, default=None, help="override the replicate count"
        )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CausalCovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
