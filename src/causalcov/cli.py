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

One report path: each cmd_* handler takes the loaded config and returns
(exit code, reports), mapping each file name to a JSON payload or to
(columns, rows).  main alone writes them in that order, JSON with the
resolved config added, then one <subcommand>.meta.json sidecar whose
"outputs" names them, then the "wrote ..." line.  A run that fails before
its handler returns writes nothing.

Every report value is plain Python data, formatted by the standard library
alone: JSON by json.dumps with sorted keys, CSV by the csv module under a
fixed documented header, a float by repr, an int as a decimal and None as
an empty cell; a boolean is true/false in both (_csv_row).  Wall-clock
timestamps live only in the sidecar, which is excluded from any byte-level
comparison.  The CSV column orders are VERIFY_COLUMNS and SWEEP_COLUMNS
below; README.md documents them and the config schema for users.
_write_csv writes rows as they come, and simulate returns them lazily: it
writes each batch of montecarlo's sampling loop as it is drawn, so it
holds one batch in memory.  At seed s it writes the paths
run_tail_experiment(seed=s) samples.  verify and sweep draw one sample, at
the sub-seed derive_seed(s, 0), at the longest T' of their cells (verify
has one); each (T, k) cell scores every event, at every delta, on the
prefix of those paths up to its own T' (montecarlo.run_tail_sweep).  The
hits of different cells are dependent, each interval valid on its own, and
a prefix whose T' is not a multiple of 16 may differ in the last digit
from a sample at that T' alone.
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
from ._rng import check_seed
from .bounds import (
    anticoncentration_bound,
    arma_corollary_bound,
    arma_prefactor,
    armastability_bound,
)
from .config import ExperimentConfig, load_config
from .errors import CausalCovError, ConfigError
from .estimator import ls_bound_details, ls_error_bound
from .linalg import check_int
from .montecarlo import (
    _finite_bound,
    _path_batches,
    run_identification_experiment,
    run_tail_experiments,
    run_tail_sweep,
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


def _csv_row(row: dict, columns) -> list:
    """row's values in column order, a boolean as true/false (the one value
    the csv module spells otherwise)."""
    return [("true" if v else "false") if isinstance(v, bool) else v for v in map(row.get, columns)]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, columns, rows) -> None:
    """Header, then the rows as they come."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


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
    _write_json(path, meta)


def _load(args: argparse.Namespace) -> tuple[ExperimentConfig, Path]:
    """The config, --seed and --replicates checked by the library's rules, and --out."""
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = check_seed(args.seed, "--seed")
    if args.replicates is not None:
        config.replicates = check_int(args.replicates, "--replicates")
    out_dir = Path(args.out or ".")
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
        "extras": exp.extras,
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


def cmd_bounds(config: ExperimentConfig) -> tuple[int, dict]:
    spec = config.process_spec()
    report: dict = {
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
    return 0, {"bounds.json": report}


def cmd_verify(config: ExperimentConfig) -> tuple[int, dict]:
    spec = config.process_spec()
    exps = run_tail_experiments(
        spec, config.events, R=config.replicates, seed=derive_seed(config.seed, 0)
    )
    rows = [_experiment_row(exp, spec) for exp in exps]
    overall = all(r["certified"] for r in rows)
    summary: dict = {
        "effective_horizon": spec.effective_horizon,
        "results": rows,
        "overall_pass": overall,
    }
    if spec.truncation_notice:
        summary["truncation_notice"] = spec.truncation_notice
    for r in rows:
        status = "vacuous" if r["vacuous"] else ("pass" if r["certified"] else "FAIL")
        print(
            f"{r['event']}: frequency={r['frequency']:.6g} "
            f"ci_high={r['ci_high']:.6g} bound={r['bound']:.6g} [{status}]"
        )
    reports = {
        "verify.csv": (VERIFY_COLUMNS, [_csv_row(r, VERIFY_COLUMNS) for r in rows]),
        "verify.json": summary,
    }
    return 0 if overall else 1, reports


def cmd_identify(config: ExperimentConfig) -> tuple[int, dict]:
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
    print(
        f"ls-error-exceeds-bound: frequency={exp.frequency:.6g} "
        f"budget={exp.bound:.6g} burnin_satisfied={burnin_ok}"
    )
    reports = {
        "identify.csv": (("replicate", "op_error"), enumerate(op_errors.tolist())),
        "identify.json": report,
    }
    return 0 if exp.certified or not burnin_ok else 1, reports


def cmd_sweep(config: ExperimentConfig) -> tuple[int, dict]:
    t_grid = config.grid.get("T", [config.T])
    k_grid = config.grid.get("k", [config.k])
    d_grid = config.grid.get("delta", [config.delta])
    if (len(t_grid) > 1 or len(k_grid) > 1) and not isinstance(config.model, VarSystem):
        raise ConfigError("sweep grids over T or k require a var model")
    # every cell's bounds before any path, so a cell without one fails the run unsampled
    planned = []
    for T, k in itertools.product(t_grid, k_grid):
        spec = config.process_spec(T, k)
        op_cell = _operator_bounds(spec)
        del op_cell["intermediates"]
        planned.append((spec, [{**op_cell, **_ls_bounds(config, spec, delta)} for delta in d_grid]))
    sampled = run_tail_sweep(
        [(spec, config.events) for spec, _ in planned],
        R=config.replicates,
        seed=derive_seed(config.seed, 0),
    )
    rows: list[dict] = []
    cells: list[dict] = []
    for (spec, heads), exps in zip(planned, sampled):
        # no tail event depends on delta: every delta reuses the cell's rows
        event_rows = [_experiment_row(exp, spec) for exp in exps]
        for delta, cell_head in zip(d_grid, heads):
            columns = {col: cell_head[col] for col in SWEEP_COLUMNS[-6:]}
            rows.extend({**r, "delta": delta, **columns} for r in event_rows)
            cells.append({"T": spec.T, "k": spec.k, "delta": delta, **cell_head})
    overall = all(r["certified"] for r in rows)
    print(f"{len(rows)} rows over {len(cells)} cells; overall_pass={overall}")
    reports = {
        "sweep.csv": (SWEEP_COLUMNS, [_csv_row(r, SWEEP_COLUMNS) for r in rows]),
        "sweep.json": {"cells": cells, "results": rows, "overall_pass": overall},
    }
    return 0 if overall else 1, reports


def cmd_simulate(config: ExperimentConfig) -> tuple[int, dict]:
    spec = config.process_spec()
    columns = ("replicate", "t") + tuple(f"x{i}" for i in range(spec.state_dim))
    batches = _path_batches(spec, config.seed, config.replicates, whole=True)
    paths = (path.tolist() for blocks in batches for x in blocks for path in x)
    rows = ((r, t, *state) for r, path in enumerate(paths) for t, state in enumerate(path))
    return 0, {"simulate.csv": (columns, rows)}


#: each subcommand's handler and help text
SUBCOMMANDS = {
    "bounds": (cmd_bounds, "evaluate every theoretical bound for a config"),
    "verify": (cmd_verify, "Monte-Carlo certify tail bounds"),
    "identify": (cmd_identify, "run the least-squares identification experiment"),
    "sweep": (cmd_sweep, "verify over a (T, k, delta) grid"),
    "simulate": (cmd_simulate, "sample trajectories to CSV"),
}


def _build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: they all take the same four options."""
    parser = argparse.ArgumentParser(
        prog="causalcov",
        description="Certify covariance tail bounds for causal Gaussian processes.",
        epilog="subcommands:\n"
        + "\n".join(f"  {name:<10}{text}" for name, (_, text) in SUBCOMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"causalcov {__version__}")
    parser.add_argument("subcommand", choices=SUBCOMMANDS, help="what to run (see below)")
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", help="output directory (default: cwd)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--replicates", type=int, help="override the replicate count")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on the one report path (see the module docstring)."""
    args = _build_parser().parse_args(argv)
    try:
        config, out_dir = _load(args)
        code, reports = SUBCOMMANDS[args.subcommand][0](config)
        paths = []
        for name, report in reports.items():
            paths.append(out_dir / name)
            if isinstance(report, dict):
                _write_json(paths[-1], {"config": config.to_dict(), **report})
            else:
                _write_csv(paths[-1], *report)
        _write_meta(out_dir / f"{args.subcommand}.meta.json", args.subcommand, paths)
        note = ""
        if args.subcommand == "simulate":
            horizon = config.process_spec().effective_horizon
            note = f" ({config.replicates} paths, horizon {horizon})"
        print("wrote " + " and ".join(map(str, paths)) + note)
        return code
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
