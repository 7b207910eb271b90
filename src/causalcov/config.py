"""Experiment configuration: a strict, diff-able JSON data model.

A config is a single JSON document.  Unknown keys are rejected so that a
typo never silently changes an experiment.  The schema with its defaults is
documented once, in README.md ("Configuration"); ExperimentConfig.from_dict
is its implementation, except that each event is checked by the one
definition of the tail events, montecarlo.check_event.

"k": "auto" resolves to kappa(model), the smallest k <= T/2 with a
nonsingular Gamma_k (so floor(T/k) >= 2); the resolved value is recorded in
every report.

A model's rules live in its constructor (VarSystem,
CausalOperator.from_blocks); this module checks its JSON shape and prefixes
the constructor's message with "invalid <type> model: ".  A var model is
also checked for overflow over the longest horizon in T and grid.T, by its
own analysis (VarAnalysis.check_overflow).  An operator model's T and k
must equal its horizon and block length, by ProcessSpec's rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ._rng import check_seed
from .errors import ConfigError, InsufficientExcitation, InvalidInput
from .linalg import CausalOperator
from .montecarlo import EventSpec, check_event
from .process import ProcessSpec, VarSystem, kappa, var_analysis

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


def _require_int(value, name: str, minimum: int | None = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_seed(value, name: str) -> int:
    try:
        return check_seed(_require_int(value, name, minimum=None), name)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc


def _require_delta(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    delta = float(value)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {delta}")
    return delta


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
    try:
        return check_event(name, params, state_dim)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc


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
    Gamma_k; any k <= T/2 keeps at least two blocks.
    """
    if k != "auto":
        return _require_int(k, "k"), False
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
        T = _require_int(raw["T"], "T")
        grid_raw = raw.get("grid", {})
        if not isinstance(grid_raw, dict):
            raise ConfigError("grid must be an object")
        extra = set(grid_raw) - _GRID_KEYS
        if extra:
            raise ConfigError(f"unknown grid keys: {sorted(extra)}")
        grid: dict = {}
        for key, parse in (("T", _require_int), ("k", _require_int), ("delta", _require_delta)):
            if key in grid_raw:
                vals = grid_raw[key]
                if not isinstance(vals, list) or not vals:
                    raise ConfigError(f"grid.{key} must be a non-empty list")
                grid[key] = [parse(v, f"grid.{key}[]") for v in vals]
        if isinstance(model, VarSystem):
            try:
                var_analysis(model).check_overflow(max([T, *grid.get("T", [])]))
            except InvalidInput as exc:
                raise ConfigError(str(exc)) from exc
        k_raw = raw.get("k", "auto" if isinstance(model, VarSystem) else model.k)
        k, k_auto = resolve_block_length(model, T, k_raw)
        if isinstance(model, CausalOperator):
            try:
                ProcessSpec(source=model, T=T, k=k)
            except InvalidInput as exc:
                raise ConfigError(str(exc)) from exc
        for t_cell in grid.get("T", [T]):
            for k_cell in grid.get("k", [k]):
                if k_cell > t_cell:
                    raise ConfigError(f"block length k={k_cell} exceeds horizon T={t_cell}")
        delta = _require_delta(raw.get("delta", 0.1), "delta")
        replicates = _require_int(raw.get("replicates", 10_000), "replicates")
        seed = _require_seed(raw.get("seed", 0), "seed")
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
