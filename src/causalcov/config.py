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
from .process import ProcessSpec, VarSystem, companion, kappa

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

#: largest magnitude whose square is still a finite float
_SQRT_FLOAT_MAX = float(np.sqrt(np.finfo(float).max))

_EVENT_PARAMS = {
    "lower-tail-eigenvalue": set(),
    "chernoff-direction": {"direction"},
    "upper-tail-opnorm": {"q"},
}


def _require_int(value, name: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric matrix") from exc
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a finite 2-d matrix")
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
            raise ConfigError(f"unknown event keys: {sorted(extra)}")
        name = raw.get("event")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("event params must be an object")
    else:
        raise ConfigError(f"event entries must be strings or objects, got {raw!r}")
    if name not in _EVENT_PARAMS:
        raise ConfigError(f"unknown event {name!r}; known: {sorted(_EVENT_PARAMS)}")
    extra = set(params) - _EVENT_PARAMS[name]
    if extra:
        raise ConfigError(f"event {name!r} does not accept parameters {sorted(extra)}")
    if name == "upper-tail-opnorm":
        if "q" not in params:
            raise ConfigError("event 'upper-tail-opnorm' requires a 'q' parameter")
        q = _require_float(params["q"], "q")
        if q <= 1.0:
            raise ConfigError(f"q must be > 1, got {q}")
        params = {"q": q}
    elif name == "chernoff-direction" and "direction" in params:
        params = {"direction": _matrix(params["direction"], "direction").tolist()}
    return EventSpec(name, dict(params))


def _parse_model(raw) -> VarSystem | CausalOperator:
    if not isinstance(raw, dict):
        raise ConfigError("model must be an object")
    kind = raw.get("type")
    if kind == "var":
        extra = set(raw) - _VAR_KEYS
        if extra:
            raise ConfigError(f"unknown var-model keys: {sorted(extra)}")
        if "a_lags" not in raw or "h" not in raw:
            raise ConfigError("var model requires 'a_lags' and 'h'")
        lags_raw = raw["a_lags"]
        if not isinstance(lags_raw, list) or not lags_raw:
            raise ConfigError("a_lags must be a non-empty list of matrices")
        a_lags = [_matrix(m, f"a_lags[{i}]") for i, m in enumerate(lags_raw)]
        h = _matrix(raw["h"], "h")
        try:
            return VarSystem(a_lags=a_lags, h=h)
        except Exception as exc:
            raise ConfigError(f"invalid var model: {exc}") from exc
    if kind == "operator":
        extra = set(raw) - _OPERATOR_KEYS
        if extra:
            raise ConfigError(f"unknown operator-model keys: {sorted(extra)}")
        missing = _OPERATOR_KEYS - set(raw)
        if missing:
            raise ConfigError(f"operator model requires keys {sorted(missing)}")
        d = _require_int(raw["d"], "model.d")
        p = _require_int(raw["p"], "model.p")
        k = _require_int(raw["k"], "model.k")
        rows_raw = raw["blocks"]
        if not isinstance(rows_raw, list) or not rows_raw:
            raise ConfigError("blocks must be a non-empty list of rows")
        blocks = []
        for i, row in enumerate(rows_raw):
            if not isinstance(row, list):
                raise ConfigError(f"blocks[{i}] must be a list of matrices")
            blocks.append([_matrix(b, f"blocks[{i}][{j}]") for j, b in enumerate(row)])
        try:
            return CausalOperator.from_blocks(d, p, k, blocks)
        except Exception as exc:
            raise ConfigError(f"invalid operator model: {exc}") from exc
    raise ConfigError(f"model.type must be 'var' or 'operator', got {kind!r}")


def _check_growth(sys: VarSystem, horizon: int) -> None:
    """Reject a VAR whose companion powers A^j, j < horizon, overflow when squared.

    Covariances of the process square the impulse responses A^j B, so an
    entry above sqrt(float max) makes them inf.  The powers are formed 64 at
    a time as one product A^{j0} @ [A, ..., A^64]; an overflow inside the
    check is what it reports, so it raises no numerical warning.
    """
    a = companion(sys)
    step = [a]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(step) < min(64, horizon):
            step.append(step[-1] @ a)
        power = np.eye(len(a))
        for j0 in range(1, horizon, len(step)):
            powers = (power @ np.stack(step))[: horizon - j0]
            big = ~np.all(np.abs(powers) <= _SQRT_FLOAT_MAX, axis=(1, 2))
            if big.any():
                lag = j0 + int(np.argmax(big))
                raise ConfigError(
                    f"var model overflows at lag {lag}: an entry of A^{lag} exceeds "
                    f"{_SQRT_FLOAT_MAX:.3g}, so its square is not a finite float "
                    f"(horizon {horizon})"
                )
            power = powers[-1]


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
        raise ConfigError(f"T={T} is too short for auto block-length resolution")
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
        for key, parse in (("T", _require_int), ("k", _require_int), ("delta", _require_float)):
            if key in grid_raw:
                vals = grid_raw[key]
                if not isinstance(vals, list) or not vals:
                    raise ConfigError(f"grid.{key} must be a non-empty list")
                grid[key] = [parse(v, f"grid.{key}[]") for v in vals]
        if isinstance(model, VarSystem):
            _check_growth(model, max([T, *grid.get("T", [])]))
        k_raw = raw.get("k", "auto" if isinstance(model, VarSystem) else None)
        if k_raw is None:
            k_raw = model.k
        k, k_auto = resolve_block_length(model, T, k_raw)
        if isinstance(model, CausalOperator):
            if k != model.k:
                raise ConfigError(f"k={k} conflicts with operator block length {model.k}")
            if T != model.T:
                raise ConfigError(f"T={T} conflicts with operator horizon {model.T}")
        delta = _require_float(raw.get("delta", 0.1), "delta")
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {delta}")
        replicates = _require_int(raw.get("replicates", 10_000), "replicates")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        events_raw = raw.get("events", ["lower-tail-eigenvalue"])
        if not isinstance(events_raw, list) or not events_raw:
            raise ConfigError("events must be a non-empty list")
        events = [_parse_event(e) for e in events_raw]
        bound_scale = _require_float(raw.get("bound_scale", 1.0), "bound_scale")
        if bound_scale <= 0.0:
            raise ConfigError(f"bound_scale must be positive, got {bound_scale}")
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
