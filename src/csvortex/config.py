"""Run-configuration parsing and validation.

Configurations are JSON with an explicit schema_version key.  Lengths are in
the model's dimensionless units (the symmetry-breaking scale is normalized
away by the coupling rescaling).  Parsing failures carry the offending line
or field so the command line can report them precisely.
"""

from __future__ import annotations

import difflib
import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .background import VortexSet
from .errors import ConfigError
from .fields import GridDomain, _kind_code
from .model import ModelParams, SolveOpts

SCHEMA_VERSION = 1

DEFAULTS = {
    "plane_grid": 512,
    "torus_grid": 256,
    "box_target_decay": 25.0,   # auto half-width: m*L >= 25
    "quantized_tol_plane": 0.02,
    "quantized_tol_torus": 0.01,
}


@dataclass(frozen=True)
class RunOpts(SolveOpts):
    second_solution: bool = False
    quantized_tol: Optional[float] = None
    out_dir: str = "."

    def __post_init__(self):
        super().__post_init__()
        if self.quantized_tol is not None and not 0 < self.quantized_tol < math.inf:
            raise ConfigError(
                f"quantized_tol must be positive and finite, got {self.quantized_tol!r}")


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


# block -> key -> JSON kind, as `_read` spells it; "!" marks a required key
# and None a retired schema-v1 key, still accepted and ignored.  A key of kind
# "object" or "object[]" is itself a block of this table.
_SCHEMA = {
    "": {"schema_version": "integer!", "mode": "string!", "params": "object!",
         "domain": "object", "vortices": "object[]", "opts": "object",
         "decay_center": "number[2]"},
    "params": {"alpha": "number!", "beta": "number!", "species": "integer",
               "lambda_bg": "number", "sigma": "number"},
    "domain": {"kind": "string", "half_width": "number", "n": "integer|integer[2]",
               "periods": "number[2]"},
    "vortices": {"species": "integer", "x": "number!", "y": "number!",
                 "multiplicity": "integer"},
    "opts": {"tol": "number", "max_iter": "integer", "second_solution": "boolean",
             "quantized_tol": "number", "out_dir": "string", "seed": None,
             "path_nodes": None, "separation": None, "residual_tol": None, "lam_t": None},
}

# command-line override -> (block, key) it replaces once the file is read
_OVERRIDES = {"grid": ("domain", "n"), "tol": ("opts", "tol"),
              "max_iter": ("opts", "max_iter"),
              "second_solution": ("opts", "second_solution"), "out": ("opts", "out_dir")}


# JSON kind -> (test, conversion).  A boolean is not a number, an integral
# number (64 or 64.0) is an integer, and nothing is coerced.
_KINDS = {
    "number": (lambda v: type(v) in (int, float), float),
    "integer": (lambda v: type(v) in (int, float) and float(v).is_integer(), int),
    "boolean": (lambda v: isinstance(v, bool), bool),
    "string": (lambda v: isinstance(v, str), str),
    "object": (lambda v: isinstance(v, dict), dict),
}


def _read(value, kind: str, key: str):
    """value as its JSON kind: one of `_KINDS`, a list of one ("object[]"), a
    list of exactly two ("number[2]"), or alternatives joined by "|".  Any
    other value is refused, naming key."""
    for alt in kind.split("|"):
        base, _, size = alt.partition("[")
        if not size and _KINDS[base][0](value):
            return _KINDS[base][1](value)
        if size and isinstance(value, list) and size in ("]", f"{len(value)}]"):
            return [_read(v, base, f"{key}[{i}]") for i, v in enumerate(value)]
    raise ConfigError(f"{key} must be {kind.replace('|', ' or ')}, got {value!r}")


def _block(block: dict, name: str, where: str) -> dict:
    """block's values read through `_SCHEMA[name]`, nested blocks included.
    An unknown key is refused, naming the nearest known key (case aside), and
    so is a missing required key; retired keys are dropped."""
    schema, out = _SCHEMA[name], {}
    for key, value in block.items():
        if key not in schema:
            near = difflib.get_close_matches(key.casefold(), schema, n=1, cutoff=0.5)
            hint = f"; did you mean {where}{near[0]}?" if near else ""
            raise ConfigError(f"unknown key {where}{key}{hint}")
        kind = schema[key]
        if kind is None:
            continue
        value = _read(value, kind.rstrip("!"), where + key)
        if kind.startswith("object["):
            value = [_block(v, key, f"{where}{key}[{i}].") for i, v in enumerate(value)]
        elif kind.startswith("object"):
            value = _block(value, key, f"{where}{key}.")
        out[key] = value
    for key, kind in schema.items():
        if kind and kind.endswith("!") and key not in block:
            raise ConfigError(f"missing field {key!r} in {where[:-1] or 'config root'}")
    return out


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
        # e.g. a 400-digit integer literal, which float() cannot hold
        raise ConfigError(f"malformed config {path}: {type(exc).__name__}: {exc}") from exc


def parse_config(raw: dict, overrides: Optional[dict] = None) -> RunConfig:
    cfg = _block(_read(raw, "object", "config root"), "", "")
    for name, value in (overrides or {}).items():
        block, key = _OVERRIDES[name]
        cfg.setdefault(block, {})[key] = value
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {cfg['schema_version']!r} (need {SCHEMA_VERSION})")
    mode = cfg["mode"]
    if mode not in ("plane", "torus"):
        raise ConfigError(f"mode must be 'plane' or 'torus', got {mode!r}")
    params = ModelParams(**cfg["params"])

    per_species: List[List[Tuple[float, float, int]]] = [[] for _ in range(params.species)]
    for k, entry in enumerate(cfg.get("vortices", [])):
        s = entry.get("species", 0)
        if not 0 <= s < params.species:
            raise ConfigError(
                f"vortices[{k}].species = {s} out of range 0..{params.species - 1}")
        per_species[s].append((entry["x"], entry["y"], entry.get("multiplicity", 1)))
    vortices = VortexSet(tuple(tuple(pts) for pts in per_species))

    d = cfg.get("domain", {})
    kind = "box" if mode == "plane" else "torus"
    if d.get("kind", kind) != kind:
        raise ConfigError(f"{mode} mode requires a {kind} domain")
    n = d.get("n", DEFAULTS[f"{mode}_grid"])
    if kind == "box":
        half = d["half_width"] if "half_width" in d else _auto_half_width(params, vortices)
        domain = GridDomain.box(half, _read(n, "integer", "domain.n"))  # one n for a box
    else:
        n1, n2 = n if isinstance(n, list) else (n, n)
        domain = GridDomain.torus(*d.get("periods", (2.0 * math.pi, 2.0 * math.pi)), n1, n2)
        _kind_code(domain)  # cells the field files cannot store: refused before any solve
    vortices.validate_in(domain)

    opts = RunOpts(**cfg.get("opts", {}))
    if mode == "torus":
        params.require_torus_mode()
    center = tuple(cfg.get("decay_center", (0.0, 0.0)))
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
