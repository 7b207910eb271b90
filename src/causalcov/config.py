"""Experiment configuration: a strict, diff-able JSON data model.

A config is a single JSON document.  Unknown keys are rejected so that a
typo never silently changes an experiment.  The schema with its defaults is
documented once, in README.md ("Configuration"); ExperimentConfig.from_dict
is its implementation, except that each event is checked by the one
definition of the tail events, montecarlo.check_event.

"k": "auto" resolves to kappa(model), the smallest k <= T/2 with a
nonsingular Gamma_k (so floor(T/k) >= 2), by the test an explicit k meets;
the resolved value is recorded in every report.

Every value rule is the library's, and a library InvalidInput becomes a
ConfigError with the same message; this module checks the JSON shape.  A
model's rules live in its constructor (VarSystem, CausalOperator.from_blocks),
whose message gets the prefix "invalid <type> model: ".  T, k and the grid's
T[] and k[] follow effective_horizon, delta check_delta, replicates
check_int and seed check_seed.  A var model is also checked for overflow
over the longest horizon in T and grid.T (VarAnalysis.check_overflow).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ._rng import check_seed
from .errors import ConfigError, InsufficientExcitation, InvalidInput
from .estimator import check_delta
from .linalg import CausalOperator, check_int
from .montecarlo import EventSpec, check_event
from .process import ProcessSpec, VarSystem, effective_horizon, kappa, var_analysis

__all__ = ["ExperimentConfig", "load_config", "resolve_block_length"]

_TOP_KEYS = {
    "model",
    "T",
    "k",
    "delta",
    "replicates",
    "seed",
    "events",
    "grid",
    "require_burnin",
}
_MODEL_KEYS = {"var": {"type", "a_lags", "h"}, "operator": {"type", "d", "p", "k", "blocks"}}
_GRID_KEYS = {"T", "k", "delta"}


def _parse_event(raw, state_dim: int) -> EventSpec:
    if isinstance(raw, str):
        name, params = raw, {}
    elif isinstance(raw, dict):
        extra = set(raw) - {"event", "params"}
        if extra:
            raise ConfigError(f"unknown event keys: {sorted(extra)}")
        name, params = raw.get("event"), raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("event params must be an object")
    else:
        raise ConfigError(f"event entries must be strings or objects, got {raw!r}")
    return check_event(name, params, state_dim)


def _parse_model(raw) -> VarSystem | CausalOperator:
    if not isinstance(raw, dict):
        raise ConfigError("model must be an object")
    kind = raw.get("type")
    if kind not in ("var", "operator"):
        raise ConfigError(f"model.type must be 'var' or 'operator', got {kind!r}")
    extra = set(raw) - _MODEL_KEYS[kind]
    if extra:
        raise ConfigError(f"unknown {kind}-model keys: {sorted(extra)}")
    missing = _MODEL_KEYS[kind] - set(raw)
    if missing:
        raise ConfigError(f"{kind} model requires keys {sorted(missing)}")
    try:
        if kind == "var":
            return VarSystem(a_lags=raw["a_lags"], h=raw["h"])
        return CausalOperator.from_blocks(raw["d"], raw["p"], raw["k"], raw["blocks"])
    except InvalidInput as exc:
        raise ConfigError(f"invalid {kind} model: {exc}") from exc


def resolve_block_length(model: VarSystem | CausalOperator, T: int, k) -> tuple[int, bool]:
    """Return (k, was_auto); resolve "auto" to the smallest admissible k.

    Auto resolution picks kappa, the smallest k <= T/2 with a nonsingular
    Gamma_k; any k <= T/2 keeps at least two blocks.  Any other k must be
    an integer >= 1 (InvalidInput otherwise).
    """
    if k != "auto":
        return check_int(k, "k"), False
    if isinstance(model, CausalOperator):
        return model.k, False
    k_cap = T // 2
    if k_cap < 1:
        raise ConfigError(f"T={T} is too short for auto block-length resolution")
    k_min = kappa(model, k_max=k_cap)
    if k_min is None:
        raise InsufficientExcitation(
            f"no block length k <= {k_cap} reaches a nonsingular blocked covariance"
        )
    return k_min, True  # k_min <= T/2, so it keeps two blocks


@dataclass
class ExperimentConfig:
    """Validated experiment definition; round-trips losslessly via to_dict."""

    model: VarSystem | CausalOperator
    T: int
    k: int
    k_auto: bool
    delta: float
    replicates: int
    seed: int
    events: list[EventSpec]
    grid: dict
    require_burnin: bool

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The validated config of a parsed JSON document, or ConfigError."""
        try:
            return cls._from_dict(raw)
        except InvalidInput as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def _from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        extra = set(raw) - _TOP_KEYS
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "model" not in raw:
            raise ConfigError("config requires a 'model' section")
        if "T" not in raw:
            raise ConfigError("config requires a horizon 'T'")
        model = _parse_model(raw["model"])
        T = check_int(raw["T"], "T")
        grid_raw = raw.get("grid", {})
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid must be an object")
        extra = set(grid_raw) - _GRID_KEYS
        if extra:
            raise ConfigError(f"unknown grid keys: {sorted(extra)}")
        grid: dict = {}
        for key, parse in (("T", check_int), ("k", check_int), ("delta", check_delta)):
            if key in grid_raw:
                vals = grid_raw[key]
                if not isinstance(vals, list) or not vals:
                    raise ConfigError(f"grid.{key} must be a non-empty list")
                grid[key] = [parse(v, f"grid.{key}[]") for v in vals]
        if isinstance(model, VarSystem):
            var_analysis(model).check_overflow(max([T, *grid.get("T", [])]))
        k_raw = raw.get("k", "auto" if isinstance(model, VarSystem) else model.k)
        k, k_auto = resolve_block_length(model, T, k_raw)
        if isinstance(model, CausalOperator):
            ProcessSpec(source=model, T=T, k=k)
        for t_cell in grid.get("T", [T]):
            for k_cell in grid.get("k", [k]):
                effective_horizon(t_cell, k_cell)
        delta = check_delta(raw.get("delta", 0.1))
        replicates = check_int(raw.get("replicates", 10_000), "replicates")
        seed = check_seed(raw.get("seed", 0))
        events_raw = raw.get("events", ["lower-tail-eigenvalue"])
        if not isinstance(events_raw, list) or not events_raw:
            raise ConfigError("events must be a non-empty list")
        state_dim = model.lifted_dim if isinstance(model, VarSystem) else model.d
        events = [_parse_event(e, state_dim) for e in events_raw]
        require_burnin = raw.get("require_burnin", False)
        if not isinstance(require_burnin, bool):
            raise ConfigError("require_burnin must be a boolean")
        return cls(
            model=model,
            T=T,
            k=k,
            k_auto=k_auto,
            delta=delta,
            replicates=replicates,
            seed=seed,
            events=events,
            grid=grid,
            require_burnin=require_burnin,
        )

    def to_dict(self) -> dict:
        """Resolved config as plain data (auto-k replaced by its value)."""
        if isinstance(self.model, VarSystem):
            model = {
                "type": "var",
                "a_lags": [a.tolist() for a in self.model.a_lags],
                "h": self.model.h.tolist(),
            }
        else:
            model = {
                "type": "operator",
                "d": self.model.d,
                "p": self.model.p,
                "k": self.model.k,
                "blocks": [
                    [self.model.block(i, j).tolist() for j in range(i + 1)]
                    for i in range(self.model.n_blocks)
                ],
            }
        out = {
            "model": model,
            "T": self.T,
            "k": self.k,
            "delta": self.delta,
            "replicates": self.replicates,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }
        if self.grid:
            out["grid"] = dict(self.grid)
        if self.require_burnin:
            out["require_burnin"] = True
        return out

    def process_spec(self, T: int | None = None, k: int | None = None) -> ProcessSpec:
        """ProcessSpec for this config's model at (T, k), defaulting to own."""
        return ProcessSpec(
            source=self.model,
            T=self.T if T is None else T,
            k=self.k if k is None else k,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a config file, mapping JSON errors to ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)
