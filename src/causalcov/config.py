"""Experiment configuration: a strict, diff-able JSON data model.

A config is a single JSON document.  Unknown keys are rejected so that a
typo never silently changes an experiment.  The schema with its defaults is
documented once, in README.md ("Configuration"); ExperimentConfig.from_dict
is its implementation.

"k": "auto" resolves to the smallest k >= kappa(model) with floor(T/k) >= 2,
scanning up to T/2; the resolved value is recorded in every report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InsufficientExcitation
from .linalg import CausalOperator
from .process import ProcessSpec, VarSystem, kappa

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
    "bound_scale",
    "require_burnin",
}
_VAR_KEYS = {"type", "a_lags", "h"}
_OPERATOR_KEYS = {"type", "d", "p", "k", "blocks"}
_GRID_KEYS = {"T", "k", "delta"}

_EVENT_PARAMS = {
    "lower-tail-eigenvalue": set(),
    "chernoff-direction": {"direction"},
    "upper-tail-opnorm": {"q"},
}


def _fail(msg: str) -> ConfigError:
    return ConfigError(msg)


def _require_int(value, name: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise _fail(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{name} must be a number, got {value!r}")
    return float(value)


def _matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _fail(f"{name} is not a numeric matrix") from exc
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise _fail(f"{name} must be a finite 2-d matrix")
    return arr


@dataclass(frozen=True)
class EventSpec:
    """One certification event with its parameters."""

    event: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"event": self.event}
        if self.params:
            out["params"] = dict(self.params)
        return out


def _parse_event(raw) -> EventSpec:
    if isinstance(raw, str):
        name, params = raw, {}
    elif isinstance(raw, dict):
        extra = set(raw) - {"event", "params"}
        if extra:
            raise _fail(f"unknown event keys: {sorted(extra)}")
        name = raw.get("event")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise _fail("event params must be an object")
    else:
        raise _fail(f"event entries must be strings or objects, got {raw!r}")
    if name not in _EVENT_PARAMS:
        raise _fail(f"unknown event {name!r}; known: {sorted(_EVENT_PARAMS)}")
    extra = set(params) - _EVENT_PARAMS[name]
    if extra:
        raise _fail(f"event {name!r} does not accept parameters {sorted(extra)}")
    if name == "upper-tail-opnorm":
        if "q" not in params:
            raise _fail("event 'upper-tail-opnorm' requires a 'q' parameter")
        q = _require_float(params["q"], "q")
        if q <= 1.0:
            raise _fail(f"q must be > 1, got {q}")
        params = {"q": q}
    elif name == "chernoff-direction" and "direction" in params:
        params = {"direction": _matrix(params["direction"], "direction").tolist()}
    return EventSpec(name, dict(params))


def _parse_model(raw) -> VarSystem | CausalOperator:
    if not isinstance(raw, dict):
        raise _fail("model must be an object")
    kind = raw.get("type")
    if kind == "var":
        extra = set(raw) - _VAR_KEYS
        if extra:
            raise _fail(f"unknown var-model keys: {sorted(extra)}")
        if "a_lags" not in raw or "h" not in raw:
            raise _fail("var model requires 'a_lags' and 'h'")
        lags_raw = raw["a_lags"]
        if not isinstance(lags_raw, list) or not lags_raw:
            raise _fail("a_lags must be a non-empty list of matrices")
        a_lags = [_matrix(m, f"a_lags[{i}]") for i, m in enumerate(lags_raw)]
        h = _matrix(raw["h"], "h")
        try:
            return VarSystem(a_lags=a_lags, h=h)
        except Exception as exc:
            raise _fail(f"invalid var model: {exc}") from exc
    if kind == "operator":
        extra = set(raw) - _OPERATOR_KEYS
        if extra:
            raise _fail(f"unknown operator-model keys: {sorted(extra)}")
        missing = _OPERATOR_KEYS - set(raw)
        if missing:
            raise _fail(f"operator model requires keys {sorted(missing)}")
        d = _require_int(raw["d"], "model.d")
        p = _require_int(raw["p"], "model.p")
        k = _require_int(raw["k"], "model.k")
        rows_raw = raw["blocks"]
        if not isinstance(rows_raw, list) or not rows_raw:
            raise _fail("blocks must be a non-empty list of rows")
        blocks = []
        for i, row in enumerate(rows_raw):
            if not isinstance(row, list):
                raise _fail(f"blocks[{i}] must be a list of matrices")
            blocks.append([_matrix(b, f"blocks[{i}][{j}]") for j, b in enumerate(row)])
        try:
            return CausalOperator(blocks=blocks, d=d, p=p, k=k)
        except Exception as exc:
            raise _fail(f"invalid operator model: {exc}") from exc
    raise _fail(f"model.type must be 'var' or 'operator', got {kind!r}")


def resolve_block_length(model: VarSystem | CausalOperator, T: int, k) -> tuple[int, bool]:
    """Return (k, was_auto); resolve "auto" to the smallest admissible k.

    Auto resolution scans k = kappa, kappa+1, ... up to T/2 and picks the
    smallest value whose truncated horizon keeps at least two blocks.
    """
    if k != "auto":
        return _require_int(k, "k"), False
    if isinstance(model, CausalOperator):
        return model.k, False
    k_cap = T // 2
    if k_cap < 1:
        raise _fail(f"T={T} is too short for auto block-length resolution")
    k_min = kappa(model, k_max=k_cap)
    if k_min is None:
        raise InsufficientExcitation(
            f"no block length k <= {k_cap} reaches a nonsingular blocked covariance"
        )
    for cand in range(k_min, k_cap + 1):
        if T // cand >= 2:
            return cand, True
    raise InsufficientExcitation(
        f"no block length in [{k_min}, {k_cap}] keeps two blocks within T={T}"
    )


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
    bound_scale: float
    require_burnin: bool
    raw: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise _fail("config root must be a JSON object")
        extra = set(raw) - _TOP_KEYS
        if extra:
            raise _fail(f"unknown config keys: {sorted(extra)}")
        if "model" not in raw:
            raise _fail("config requires a 'model' section")
        if "T" not in raw:
            raise _fail("config requires a horizon 'T'")
        model = _parse_model(raw["model"])
        T = _require_int(raw["T"], "T")
        k_raw = raw.get("k", "auto" if isinstance(model, VarSystem) else None)
        if k_raw is None:
            k_raw = model.k
        k, k_auto = resolve_block_length(model, T, k_raw)
        if isinstance(model, CausalOperator):
            if k != model.k:
                raise _fail(f"k={k} conflicts with operator block length {model.k}")
            if T != model.T:
                raise _fail(f"T={T} conflicts with operator horizon {model.T}")
        delta = _require_float(raw.get("delta", 0.1), "delta")
        if not 0.0 < delta < 1.0:
            raise _fail(f"delta must lie in (0, 1), got {delta}")
        replicates = _require_int(raw.get("replicates", 10_000), "replicates")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise _fail(f"seed must be a nonnegative integer, got {seed!r}")
        events_raw = raw.get("events", ["lower-tail-eigenvalue"])
        if not isinstance(events_raw, list) or not events_raw:
            raise _fail("events must be a non-empty list")
        events = [_parse_event(e) for e in events_raw]
        grid_raw = raw.get("grid", {})
        if not isinstance(grid_raw, dict):
            raise _fail("grid must be an object")
        extra = set(grid_raw) - _GRID_KEYS
        if extra:
            raise _fail(f"unknown grid keys: {sorted(extra)}")
        grid: dict = {}
        for key in ("T", "k"):
            if key in grid_raw:
                vals = grid_raw[key]
                if not isinstance(vals, list) or not vals:
                    raise _fail(f"grid.{key} must be a non-empty list")
                grid[key] = [_require_int(v, f"grid.{key}[]") for v in vals]
        if "delta" in grid_raw:
            vals = grid_raw["delta"]
            if not isinstance(vals, list) or not vals:
                raise _fail("grid.delta must be a non-empty list")
            grid["delta"] = [_require_float(v, "grid.delta[]") for v in vals]
        bound_scale = _require_float(raw.get("bound_scale", 1.0), "bound_scale")
        if bound_scale <= 0.0:
            raise _fail(f"bound_scale must be positive, got {bound_scale}")
        require_burnin = raw.get("require_burnin", False)
        if not isinstance(require_burnin, bool):
            raise _fail("require_burnin must be a boolean")
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
            bound_scale=bound_scale,
            require_burnin=require_burnin,
            raw=raw,
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
                "blocks": [[b.tolist() for b in row] for row in self.model.blocks],
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
        if self.bound_scale != 1.0:
            out["bound_scale"] = self.bound_scale
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
