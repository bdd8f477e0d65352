"""Run-configuration parsing and validation.

Configurations are JSON with an explicit schema_version key.  Lengths are in
the model's dimensionless units (the symmetry-breaking scale is normalized
away by the coupling rescaling).  Parsing failures carry the offending line
or field so the command line can report them precisely.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .background import VortexSet
from .errors import ConfigError
from .fields import GridDomain, _kind_code
from .model import ModelParams

SCHEMA_VERSION = 1

DEFAULTS = {
    "lambda_bg": 10.0,
    "tol": 1e-8,
    "max_iter": 4000,
    "plane_grid": 512,
    "torus_grid": 256,
    "box_target_decay": 25.0,   # auto half-width: m*L >= 25
    "quantized_tol_plane": 0.02,
    "quantized_tol_torus": 0.01,
}


@dataclass(frozen=True)
class RunOpts:
    tol: float = DEFAULTS["tol"]
    max_iter: int = DEFAULTS["max_iter"]
    second_solution: bool = False
    quantized_tol: Optional[float] = None
    out_dir: str = "."


@dataclass(frozen=True)
class RunConfig:
    mode: str                       # "plane" | "torus"
    params: ModelParams
    vortices: VortexSet
    domain: GridDomain
    opts: RunOpts
    decay_center: Tuple[float, float] = (0.0, 0.0)

    @property
    def quantized_tol(self) -> float:
        if self.opts.quantized_tol is not None:
            return self.opts.quantized_tol
        return DEFAULTS["quantized_tol_plane" if self.mode == "plane"
                        else "quantized_tol_torus"]


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {key!r} in {where}")
    return cfg[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value, key: str) -> int:
    """An integral JSON number (64 or 64.0); a fraction, a boolean or a string
    is refused rather than truncated."""
    if _is_number(value) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _auto_half_width(params: ModelParams, vortices: VortexSet) -> float:
    spread = 0.0
    for pts in vortices.species:
        for x, y, _ in pts:
            spread = max(spread, abs(x), abs(y))
    l_decay = DEFAULTS["box_target_decay"] / params.decay_mass
    return max(l_decay, 4.0 * spread / 3.0 + 2.0)


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed config {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config(raw, overrides or {})
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        # a block or value of the wrong JSON type, e.g. a number for a list
        raise ConfigError(f"malformed config {path}: {type(exc).__name__}: {exc}") from exc


def parse_config(raw: dict, overrides: Optional[dict] = None) -> RunConfig:
    overrides = overrides or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = _require(raw, "schema_version", "config root")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r} (need {SCHEMA_VERSION})")
    mode = _require(raw, "mode", "config root")
    if mode not in ("plane", "torus"):
        raise ConfigError(f"mode must be 'plane' or 'torus', got {mode!r}")

    p = _require(raw, "params", "config root")
    try:
        params = ModelParams(
            alpha=float(_require(p, "alpha", "params")),
            beta=float(_require(p, "beta", "params")),
            species=_integer(p.get("species", 1), "params.species"),
            lambda_bg=float(p.get("lambda_bg", DEFAULTS["lambda_bg"])),
            sigma=float(p.get("sigma", 2.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params block: {exc}") from exc

    vraw = raw.get("vortices", [])
    per_species: List[List[Tuple[float, float, int]]] = [[] for _ in range(params.species)]
    for k, entry in enumerate(vraw):
        try:
            s = _integer(entry.get("species", 0), f"vortices[{k}].species")
            pt = (float(entry["x"]), float(entry["y"]),
                  _integer(entry.get("multiplicity", 1), f"vortices[{k}].multiplicity"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid vortices[{k}]: {exc}") from exc
        if not 0 <= s < params.species:
            raise ConfigError(
                f"vortices[{k}].species = {s} out of range 0..{params.species - 1}")
        per_species[s].append(pt)
    vortices = VortexSet(tuple(tuple(pts) for pts in per_species))

    d = raw.get("domain", {})
    kind = d.get("kind", "box" if mode == "plane" else "torus")
    if mode == "plane" and kind != "box":
        raise ConfigError("plane mode requires a box domain")
    if mode == "torus" and kind != "torus":
        raise ConfigError("torus mode requires a torus domain")
    if kind == "box":
        n = _integer(overrides.get("grid", d.get("n", DEFAULTS["plane_grid"])), "domain.n")
        half = d.get("half_width")
        half = float(half) if half is not None else _auto_half_width(params, vortices)
        domain = GridDomain.box(half, n)
    else:
        periods = d.get("periods", [2.0 * math.pi, 2.0 * math.pi])
        if not (isinstance(periods, list) and len(periods) == 2):
            raise ConfigError("domain.periods must be a two-element list")
        nn = overrides.get("grid", d.get("n", DEFAULTS["torus_grid"]))
        nn = nn if isinstance(nn, list) else [nn, nn]
        if len(nn) != 2:
            raise ConfigError("domain.n must be an integer or a two-element list")
        domain = GridDomain.torus(float(periods[0]), float(periods[1]),
                                  _integer(nn[0], "domain.n"), _integer(nn[1], "domain.n"))
        _kind_code(domain)  # cells the field files cannot store: refused before any solve
    vortices.validate_in(domain)

    o = raw.get("opts", {})
    second = overrides.get("second_solution", o.get("second_solution", False))
    if not isinstance(second, bool):
        raise ConfigError(f"opts.second_solution must be true or false, got {second!r}")
    opts = RunOpts(
        tol=float(overrides.get("tol", o.get("tol", DEFAULTS["tol"]))),
        max_iter=_integer(overrides.get("max_iter", o.get("max_iter", DEFAULTS["max_iter"])),
                          "opts.max_iter"),
        second_solution=second,
        quantized_tol=(None if o.get("quantized_tol") is None
                       else float(o["quantized_tol"])),
        out_dir=str(overrides.get("out", o.get("out_dir", "."))),
    )
    if not 0 < opts.tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {opts.tol!r}")
    if opts.max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {opts.max_iter!r}")
    if opts.quantized_tol is not None and not 0 < opts.quantized_tol < math.inf:
        raise ConfigError(
            f"quantized_tol must be positive and finite, got {opts.quantized_tol!r}")
    if mode == "torus":
        params.require_torus_mode()
    center = raw.get("decay_center", [0.0, 0.0])
    if not (isinstance(center, list) and len(center) == 2 and all(map(_is_number, center))):
        raise ConfigError(f"decay_center must be a list of two numbers, got {center!r}")
    center = (float(center[0]), float(center[1]))
    if not all(map(math.isfinite, center)):
        raise ConfigError(f"decay_center must be finite, got {list(center)!r}")
    return RunConfig(mode, params, vortices, domain, opts, center)


def resolve_out_dir(opts: RunOpts) -> str:
    """Output directory, overridable through the environment."""
    env = os.environ.get("CSVORTEX_OUT")
    out = env if env else opts.out_dir
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    return out
