"""Command line front end: run the solvers, verify stored solutions.

Subcommands: solve-plane, solve-torus, verify, decay-fit.  One pass over the
fields a solve writes (_field_report) computes every field diagnostic:
verify writes exactly that pass over the stored fields, and a solve report
is that pass over the written fields plus the solver's record of the run.
Exit codes: 0 all checks pass, 1 a usage error or an output the run cannot
write, 2 a failed check; every other failure exits with the code its error
class carries (errors.py).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import diagnostics as diag
from .background import plane_background, torus_background, vortex_node_mask
from .config import RunConfig, load_config, resolve_out_dir
from .errors import ConfigError, CsvortexError, DiagnosticFailure, DomainError, FieldFileError
from .fields import GridDomain, ScalarField, read_field, write_csv, write_field
from .plane import PlaneOperator, solve_plane
from .torus import (
    TorusOperator,
    TorusState,
    admissibility_margins,
    feasibility,
    minimize_torus,
    mountain_pass,
    reconstruct_original,
)

EXIT_OK = 0
EXIT_DIAGNOSTIC = 2

_RESIDUAL_FLOOR = 1e-6  # same-operator PDE residuals pass below max(this, 10*tol)
# half-width of the vortex patches the fourth-order residual skips: the torus
# background dip is only C^1-resolved near a vortex
_FOURTH_ORDER_HALO = {"plane": 1, "torus": 3}


def _write_rays_csv(path, fit: diag.DecayFit) -> None:
    with open(path, "w") as fh:
        fh.write("ray,slope\n")
        for k, s in enumerate(fit.ray_slopes):
            fh.write(f"{k},{s!r}\n")


def _read_values(path: str, domain: GridDomain) -> np.ndarray:
    """Finite values of a stored field, after checking its header against the domain.

    The header stores the extent as float32, so extents are compared to
    float32 precision.  A field that cannot be read or used raises
    FieldFileError.
    """
    try:
        field = read_field(path)
    except (OSError, DomainError) as exc:
        raise FieldFileError(str(exc)) from exc
    got = field.domain
    tol = float(np.finfo(np.float32).eps)
    if ((got.kind, got.n1, got.n2) != (domain.kind, domain.n1, domain.n2)
            or not math.isclose(got.extent1, domain.extent1, rel_tol=tol)
            or not math.isclose(got.extent2, domain.extent2, rel_tol=tol)):
        raise FieldFileError(
            f"{path} holds a {got.n1}x{got.n2} {got.kind} field of extent "
            f"{got.extent1:g} x {got.extent2:g}, but the config asks for "
            f"{domain.n1}x{domain.n2} {domain.kind} of extent "
            f"{domain.extent1:g} x {domain.extent2:g}")
    bad = np.argwhere(~np.isfinite(field.values))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise FieldFileError(
            f"{path} holds a non-finite value {field.values[i, j]:g} at node ({i}, {j})")
    return field.values


def _write_fields(out: str, domain: GridDomain, fields) -> None:
    """Write each (name, values) pair to <out>/<name>.bin."""
    for name, values in fields:
        write_field(os.path.join(out, f"{name}.bin"), ScalarField(domain, values))


def _field_report(cfg: RunConfig, op, mode: str, fields) -> diag.SolveReport:
    """Every diagnostic that the fields of one solution determine.

    ``fields`` are the arrays a solve writes and verify reads back: (X, u,
    u_list) on the plane, X the remainder stack (f, f_1..f_M), and the full
    pair (u, v) on the torus, split once into its mean-zero part and
    constants.  ``op`` is the solver's operator or one built from the config;
    its background supplies u0.  The energy, the gradient and both equation
    residuals come from one evaluation of it on either domain.  The report
    holds no solver record and no timing.
    """
    params, domain = cfg.params, cfg.domain
    plane = cfg.mode == "plane"
    rep = diag.SolveReport(mode=mode)
    rep.energy, rep.grad_norm, rep.pde_residual_same, rep.pde_residual_fourth = (
        diag.equation_residuals(op, fields[0] if plane else np.stack(fields),
                                vortex_node_mask(cfg.vortices, domain,
                                                 halo=_FOURTH_ORDER_HALO[cfg.mode])))
    mask = vortex_node_mask(cfg.vortices, domain)
    if plane:
        _, u, u_list = fields
        rep.quantized = diag.quantized_integrals_plane(u, u_list, params, domain,
                                                       cfg.vortices.counts)
        neg = diag.max_principle_check(u, np.zeros_like(u), exclude=mask)[0]
        rep.max_principle = [diag.BoundCheck("u", neg.status, neg.worst, neg.node)]
        return rep
    u, v = fields
    bg = op.bg
    state = TorusState.from_full(u, v, domain)
    big_u, big_v = reconstruct_original(state, bg)
    rep.feasibility_margin = feasibility(params, bg.n, domain.area).margin
    rep.quantized = diag.quantized_integrals_torus(big_u, big_v, params, domain, bg.n)
    rep.max_principle = diag.max_principle_check(big_u, big_v, exclude=mask)
    m1, m2 = admissibility_margins(state.u_prime, state.v_prime, bg, params)
    rep.extra.update(admissible_margin_1=m1, admissible_margin_2=m2,
                     c1=state.c1, c2=state.c2)
    return rep


def _solve_report(cfg: RunConfig, mode: str, fields, info: dict,
                  **record) -> diag.SolveReport:
    """The field report of a solve's output plus the solver's record of the run."""
    rep = _field_report(cfg, info["operator"], mode, fields)
    rep.iterations = info["iterations"]
    rep.wall_time = info["wall_time"]
    for key in ("lbfgs_evals", "newton_iterations", "minres_iters", "minres_unconverged",
                "clamp_hit"):
        rep.extra[key] = info[key]
    rep.extra.update(record)
    return rep


def _emit(rep: diag.SolveReport, cfg: RunConfig, out: str, name: str) -> List[str]:
    """Write a report; return the names of its checks that fail the config's
    tolerances."""
    with open(os.path.join(out, name), "w") as fh:
        fh.write(rep.to_text())
    return rep.failures(cfg.quantized_tol, max(_RESIDUAL_FLOOR, 10.0 * cfg.opts.tol))


def cmd_solve_plane(cfg: RunConfig) -> int:
    out = resolve_out_dir(cfg.opts)
    state, info = solve_plane(cfg.params, cfg.vortices, cfg.domain, cfg.opts)
    u, u_list = info["u"], info["u_list"]
    _write_fields(out, cfg.domain,
                  [("f", state.f), ("u", u)]
                  + [(f"f_{i}", fi) for i, fi in enumerate(state.f_i)]
                  + [(f"u_{i}", ui) for i, ui in enumerate(u_list)])
    rep = _solve_report(cfg, "plane", (state.X, u, u_list), info,
                        lambda_bg=cfg.params.lambda_bg,
                        coarse_iterations=info["coarse_iterations"],
                        coarse_lbfgs_evals=info["coarse_lbfgs_evals"])
    try:
        rep.decay = diag.decay_fit(u, u_list, cfg.params, cfg.domain,
                                   center=cfg.decay_center)
    except DiagnosticFailure as exc:  # reported; decay-fit exits 2 on it
        rep.extra["decay_failure"] = str(exc)
    bad = _emit(rep, cfg, out, "report.txt")
    write_csv(os.path.join(out, "u.csv"), ScalarField(cfg.domain, u))
    if rep.decay is not None:
        _write_rays_csv(os.path.join(out, "decay_rays.csv"), rep.decay)
    if bad:
        print("FAIL: " + ", ".join(bad))
        return EXIT_DIAGNOSTIC
    print(f"ok: report written to {out}")
    return EXIT_OK


def cmd_solve_torus(cfg: RunConfig) -> int:
    out = resolve_out_dir(cfg.opts)

    def finish(state: TorusState, info: dict, suffix: str, mode: str, name: str,
               **record) -> List[str]:
        big_u, big_v = reconstruct_original(state, info["bg"])
        _write_fields(out, cfg.domain, [(f"{key}{suffix}", arr) for key, arr in (
            ("u", state.u), ("v", state.v), ("U", big_u), ("V", big_v))])
        cs = info["c_solve"]
        rep = _solve_report(cfg, mode, (state.u, state.v), info,
                            constraint_residual_1=cs.residual_1,
                            constraint_residual_2=cs.residual_2, **record)
        return _emit(rep, cfg, out, name)

    state, info = minimize_torus(cfg.params, cfg.vortices, cfg.domain, cfg.opts)
    codes = [EXIT_OK]
    bad = finish(state, info, "", "torus", "report.txt", energy_J=info["energy_J"])
    if bad:
        print("FAIL(first): " + ", ".join(bad))
        codes.append(EXIT_DIAGNOSTIC)
    if cfg.opts.second_solution:
        second, info2 = mountain_pass(cfg.params, state, cfg.opts, bg=info["bg"])
        bad2 = finish(second, info2, "2", "torus-second", "report_second.txt",
                      separation=info2["separation"], energy_first=info2["energy_first"],
                      path_max_energy=info2["path_max_energy"])
        if info2["energy_I"] <= info2["energy_first"]:
            bad2.append("energy_ordering")
        if bad2:
            print("FAIL(second): " + ", ".join(bad2))
            codes.append(EXIT_DIAGNOSTIC)
    print(f"ok: reports written to {out}" if max(codes) == EXIT_OK else "diagnostics failed")
    return max(codes)


def cmd_verify(cfg: RunConfig) -> int:
    """Recompute the field diagnostics from stored fields; byte-stable for
    fixed inputs."""
    out = resolve_out_dir(cfg.opts)
    species = range(cfg.params.species)

    def load(name: str) -> np.ndarray:
        return _read_values(os.path.join(out, name), cfg.domain)

    if cfg.mode == "plane":
        fields = (np.stack([load("f.bin")] + [load(f"f_{i}.bin") for i in species]),
                  load("u.bin"), [load(f"u_{i}.bin") for i in species])
        op = PlaneOperator(plane_background(cfg.vortices, cfg.params.lambda_bg,
                                            cfg.domain), cfg.params)
    else:
        fields = (load("u.bin"), load("v.bin"))
        op = TorusOperator(torus_background(cfg.vortices, cfg.domain), cfg.params)
    bad = _emit(_field_report(cfg, op, f"{cfg.mode}-verify", fields), cfg, out,
                "verify_report.txt")
    if bad:
        print("FAIL: " + ", ".join(bad))
        return EXIT_DIAGNOSTIC
    print("verify ok")
    return EXIT_OK


def cmd_decay_fit(cfg: RunConfig) -> int:
    out = resolve_out_dir(cfg.opts)
    u = _read_values(os.path.join(out, "u.bin"), cfg.domain)
    u_list = [_read_values(os.path.join(out, f"u_{i}.bin"), cfg.domain)
              for i in range(cfg.params.species)]
    fit = diag.decay_fit(u, u_list, cfg.params, cfg.domain, center=cfg.decay_center)
    rep = diag.SolveReport(mode="decay-fit")
    rep.decay = fit
    _emit(rep, cfg, out, "decay_report.txt")
    _write_rays_csv(os.path.join(out, "decay_rays.csv"), fit)
    print(f"slope = {fit.slope:.6f}, bound rate = {-fit.expected_m:.6f}, "
          f"rel_dev = {fit.rel_dev:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="csvortex",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve-plane", "solve-torus", "verify", "decay-fit"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-iter", type=int, default=None)
        sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--second-solution", action="store_true", default=None)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 1 if exc.code else EXIT_OK
    overrides = {k: v for k, v in (
        ("out", args.out), ("tol", args.tol), ("max_iter", args.max_iter),
        ("grid", args.grid), ("second_solution", args.second_solution),
    ) if v is not None}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "solve-plane":
            if cfg.mode != "plane":
                raise ConfigError("solve-plane needs a plane-mode config")
            return cmd_solve_plane(cfg)
        if args.command == "solve-torus":
            if cfg.mode != "torus":
                raise ConfigError("solve-torus needs a torus-mode config")
            return cmd_solve_torus(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_decay_fit(cfg)
    except CsvortexError as exc:
        print(f"{exc.label}: {exc}")
        return exc.exit_code
    except OSError as exc:  # an output the run cannot write
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
