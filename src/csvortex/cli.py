"""Command line front end: run the solvers, verify stored solutions.

Subcommands: solve-plane, solve-torus, verify, decay-fit.
Exit codes: 0 all checks pass, 1 malformed config, usage error or missing
files, 2 diagnostic failure, 3 solver non-convergence, 4 infeasible
parameters.
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
from .errors import (
    AdmissibilityError,
    BoundaryTrappingError,
    ConfigError,
    DiagnosticFailure,
    DomainError,
    InfeasibleError,
    MountainPassCollapseError,
    NonConvergenceError,
)
from .fields import GridDomain, ScalarField, read_field, write_csv, write_field
from .plane import (
    PlaneOperator,
    PlaneSolveOpts,
    PlaneState,
    pde_residual_fourth,
    pde_residual_same_op,
    solve_plane,
)
from .torus import (
    TorusOperator,
    TorusSolveOpts,
    TorusState,
    admissibility_margins,
    feasibility,
    minimize_torus,
    mountain_pass,
    pde_residual_fourth_torus,
    reconstruct_original,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIAGNOSTIC = 2
EXIT_NONCONVERGENCE = 3
EXIT_INFEASIBLE = 4


def _write_rays_csv(path, fit: diag.DecayFit) -> None:
    with open(path, "w") as fh:
        fh.write("ray,slope\n")
        for k, s in enumerate(fit.ray_slopes):
            fh.write(f"{k},{s!r}\n")


def _read_values(path: str, domain: GridDomain) -> np.ndarray:
    """Values of a stored field, after checking its header against the domain.

    The header stores the extent as float32, so extents are compared to
    float32 precision.
    """
    field = read_field(path)
    got = field.domain
    tol = float(np.finfo(np.float32).eps)
    if ((got.kind, got.n1, got.n2) != (domain.kind, domain.n1, domain.n2)
            or not math.isclose(got.extent1, domain.extent1, rel_tol=tol)
            or not math.isclose(got.extent2, domain.extent2, rel_tol=tol)):
        raise DomainError(
            f"{path} holds a {got.n1}x{got.n2} {got.kind} field of extent "
            f"{got.extent1:g} x {got.extent2:g}, but the config asks for "
            f"{domain.n1}x{domain.n2} {domain.kind} of extent "
            f"{domain.extent1:g} x {domain.extent2:g}")
    return field.values


def _solver_counts(rep: diag.SolveReport, info: dict) -> None:
    """Report keys for the solve's inner work and silent events."""
    for key in ("minres_iters", "minres_unconverged", "clamp_hit"):
        rep.extra[key] = info[key]


def _plane_report(cfg: RunConfig, state: PlaneState, info: dict,
                  include_decay: bool = True) -> diag.SolveReport:
    params, domain = cfg.params, cfg.domain
    op: PlaneOperator = info["operator"]
    u, u_list = info["u"], info["u_list"]
    mask = info["vortex_mask"]
    rep = diag.SolveReport(mode="plane")
    rep.energy = info["energy"]
    rep.grad_norm = info["grad_inf"]
    rep.iterations = info["iterations"]
    rep.wall_time = info["wall_time"]
    rep.quantized = diag.quantized_integrals_plane(u, u_list, params, domain,
                                                   cfg.vortices.counts)
    rep.pde_residual_same = pde_residual_same_op(state, op)
    rep.pde_residual_fourth = pde_residual_fourth(state, op, exclude=mask)
    if include_decay:
        try:
            rep.decay = diag.decay_fit(u, u_list, params, domain,
                                       center=cfg.decay_center)
        except DiagnosticFailure:
            rep.decay = None
    neg = diag.max_principle_check(u, np.zeros_like(u), exclude=mask)[0]
    rep.max_principle = [diag.BoundCheck("u", neg.status, neg.worst, neg.node)]
    rep.extra["lambda_bg"] = params.lambda_bg
    _solver_counts(rep, info)
    return rep


def _torus_report(cfg: RunConfig, state: TorusState, info: dict,
                  label: str = "") -> diag.SolveReport:
    params, domain = cfg.params, cfg.domain
    bg = info["bg"]
    op: TorusOperator = info["operator"]
    big_u, big_v = reconstruct_original(state, bg)
    mask = vortex_node_mask(cfg.vortices, domain)
    rep = diag.SolveReport(mode="torus" + label)
    rep.energy = info["energy_I"]
    rep.grad_norm = info["grad_inf"]
    rep.iterations = info.get("iterations", 0)
    rep.wall_time = info["wall_time"]
    rep.feasibility_margin = feasibility(params, bg.n, domain.area).margin
    rep.quantized = diag.quantized_integrals_torus(big_u, big_v, params, domain, bg.n)
    gu, gv = op.gradient(state.u, state.v)
    rep.pde_residual_same = max(float(np.max(np.abs(gu))), float(np.max(np.abs(gv))))
    rep.pde_residual_fourth = pde_residual_fourth_torus(
        state.u, state.v, bg, params, exclude=vortex_node_mask(cfg.vortices, domain,
                                                               halo=3))
    rep.max_principle = diag.max_principle_check(big_u, big_v, exclude=mask)
    cs = info["c_solve"]
    m1, m2 = admissibility_margins(state.u_prime, state.v_prime, bg, params)
    rep.extra["admissible_margin_1"] = m1
    rep.extra["admissible_margin_2"] = m2
    rep.extra["c1"] = state.c1
    rep.extra["c2"] = state.c2
    rep.extra["constraint_residual_1"] = cs.residual_1
    rep.extra["constraint_residual_2"] = cs.residual_2
    if "energy_J" in info:
        rep.extra["energy_J"] = info["energy_J"]
    if "separation" in info:
        rep.extra["separation"] = info["separation"]
        rep.extra["energy_first"] = info["energy_first"]
        rep.extra["path_max_energy"] = info["path_max_energy"]
    _solver_counts(rep, info)
    return rep


def _emit(report: diag.SolveReport, out: str, name: str, timing: bool = True) -> None:
    with open(os.path.join(out, name), "w") as fh:
        fh.write(report.to_text(include_timing=timing))


def cmd_solve_plane(cfg: RunConfig) -> int:
    out = resolve_out_dir(cfg.opts)
    opts = PlaneSolveOpts(tol=cfg.opts.tol, max_iter=cfg.opts.max_iter)
    state, info = solve_plane(cfg.params, cfg.vortices, cfg.domain, opts)
    u, u_list = info["u"], info["u_list"]
    write_field(os.path.join(out, "f.bin"), ScalarField(cfg.domain, state.f))
    write_field(os.path.join(out, "u.bin"), ScalarField(cfg.domain, u))
    for i, (fi, ui) in enumerate(zip(state.f_i, u_list)):
        write_field(os.path.join(out, f"f_{i}.bin"), ScalarField(cfg.domain, fi))
        write_field(os.path.join(out, f"u_{i}.bin"), ScalarField(cfg.domain, ui))
    rep = _plane_report(cfg, state, info)
    _emit(rep, out, "report.txt")
    write_csv(os.path.join(out, "u.csv"), ScalarField(cfg.domain, u))
    if rep.decay is not None:
        _write_rays_csv(os.path.join(out, "decay_rays.csv"), rep.decay)
    bad = rep.failures(cfg.quantized_tol, max(cfg.opts.residual_tol,
                                              10.0 * cfg.opts.tol))
    if bad:
        print("FAIL: " + ", ".join(bad))
        return EXIT_DIAGNOSTIC
    print(f"ok: report written to {out}")
    return EXIT_OK


def cmd_solve_torus(cfg: RunConfig) -> int:
    out = resolve_out_dir(cfg.opts)
    opts = TorusSolveOpts(tol=cfg.opts.tol, max_iter=cfg.opts.max_iter,
                          lam_t=cfg.opts.lam_t, separation=cfg.opts.separation)
    state, info = minimize_torus(cfg.params, cfg.vortices, cfg.domain, opts)
    big_u, big_v = reconstruct_original(state, info["bg"])
    for name, arr in (("u", state.u), ("v", state.v), ("U", big_u), ("V", big_v)):
        write_field(os.path.join(out, f"{name}.bin"), ScalarField(cfg.domain, arr))
    rep = _torus_report(cfg, state, info)
    _emit(rep, out, "report.txt")
    codes = [EXIT_OK]
    bad = rep.failures(cfg.quantized_tol, max(cfg.opts.residual_tol,
                                              10.0 * cfg.opts.tol))
    if bad:
        print("FAIL(first): " + ", ".join(bad))
        codes.append(EXIT_DIAGNOSTIC)
    if cfg.opts.second_solution:
        second, info2 = mountain_pass(cfg.params, state, opts, bg=info["bg"])
        big_u2, big_v2 = reconstruct_original(second, info2["bg"])
        for name, arr in (("u2", second.u), ("v2", second.v),
                          ("U2", big_u2), ("V2", big_v2)):
            write_field(os.path.join(out, f"{name}.bin"), ScalarField(cfg.domain, arr))
        rep2 = _torus_report(cfg, second, info2, label="-second")
        _emit(rep2, out, "report_second.txt")
        bad2 = rep2.failures(cfg.quantized_tol, max(cfg.opts.residual_tol,
                                                    10.0 * cfg.opts.tol))
        if info2["energy_I"] <= info2["energy_first"]:
            bad2.append("energy_ordering")
        if bad2:
            print("FAIL(second): " + ", ".join(bad2))
            codes.append(EXIT_DIAGNOSTIC)
    print(f"ok: reports written to {out}" if max(codes) == EXIT_OK else "diagnostics failed")
    return max(codes)


def cmd_verify(cfg: RunConfig) -> int:
    """Recompute diagnostics from stored fields; byte-stable for fixed inputs."""
    out = resolve_out_dir(cfg.opts)

    def load(name: str) -> np.ndarray:
        return _read_values(os.path.join(out, name), cfg.domain)

    try:
        if cfg.mode == "plane":
            u = load("u.bin")
            f = load("f.bin")
            f_list = [load(f"f_{i}.bin") for i in range(cfg.params.species)]
            u_list = [load(f"u_{i}.bin") for i in range(cfg.params.species)]
        else:
            u = load("u.bin")
            v = load("v.bin")
    except (FileNotFoundError, DomainError) as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG
    mask = vortex_node_mask(cfg.vortices, cfg.domain)
    rep = diag.SolveReport(mode=f"{cfg.mode}-verify")
    if cfg.mode == "plane":
        bg = plane_background(cfg.vortices, cfg.params.lambda_bg, cfg.domain)
        op = PlaneOperator(bg, cfg.params)
        state = PlaneState(cfg.domain, f, tuple(f_list))
        rep.energy = op.energy(state)
        rep.grad_norm = float(np.max(np.abs(op.gradient(state).pack())))
        rep.quantized = diag.quantized_integrals_plane(u, u_list, cfg.params,
                                                       cfg.domain, cfg.vortices.counts)
        rep.pde_residual_same = pde_residual_same_op(state, op)
        rep.pde_residual_fourth = pde_residual_fourth(state, op, exclude=mask)
        neg = diag.max_principle_check(u, np.zeros_like(u), exclude=mask)[0]
        rep.max_principle = [diag.BoundCheck("u", neg.status, neg.worst, neg.node)]
    else:
        bg = torus_background(cfg.vortices, cfg.domain)
        op = TorusOperator(bg, cfg.params)
        rep.energy = op.energy(u, v)
        gu, gv = op.gradient(u, v)
        rep.pde_residual_same = max(float(np.max(np.abs(gu))),
                                    float(np.max(np.abs(gv))))
        rep.grad_norm = rep.pde_residual_same
        state = TorusState.from_full(u, v, cfg.domain)
        big_u, big_v = reconstruct_original(state, bg)
        rep.feasibility_margin = feasibility(cfg.params, bg.n, cfg.domain.area).margin
        rep.quantized = diag.quantized_integrals_torus(big_u, big_v, cfg.params,
                                                       cfg.domain, bg.n)
        rep.max_principle = diag.max_principle_check(big_u, big_v, exclude=mask)
    _emit(rep, out, "verify_report.txt", timing=False)
    bad = rep.failures(cfg.quantized_tol, max(cfg.opts.residual_tol,
                                              10.0 * cfg.opts.tol))
    if bad:
        print("FAIL: " + ", ".join(bad))
        return EXIT_DIAGNOSTIC
    print("verify ok")
    return EXIT_OK


def cmd_decay_fit(cfg: RunConfig) -> int:
    out = resolve_out_dir(cfg.opts)
    try:
        u = _read_values(os.path.join(out, "u.bin"), cfg.domain)
        u_list = [_read_values(os.path.join(out, f"u_{i}.bin"), cfg.domain)
                  for i in range(cfg.params.species)]
    except (FileNotFoundError, DomainError) as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG
    fit = diag.decay_fit(u, u_list, cfg.params, cfg.domain, center=cfg.decay_center)
    rep = diag.SolveReport(mode="decay-fit")
    rep.decay = fit
    _emit(rep, out, "decay_report.txt", timing=False)
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
        return EXIT_CONFIG if exc.code else EXIT_OK
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
    except InfeasibleError as exc:
        print(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except (NonConvergenceError, BoundaryTrappingError,
            MountainPassCollapseError, AdmissibilityError) as exc:
        print(f"solver failure: {exc}")
        return EXIT_NONCONVERGENCE
    except DiagnosticFailure as exc:
        print(f"diagnostic failure: {exc}")
        return EXIT_DIAGNOSTIC
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
