"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Seed 0 gives the acceptance suite's vortex positions.  Any other seed moves
them by an exact symmetry of the discrete problem, so every seed poses the
same problem and, except for ``cli_plane``, has the same energy.  The work
differs only where round-off steers the solver (the mountain pass, by up to
15% in L-BFGS iterations):

- box workloads: one of the eight rotations/reflections of the square grid,
  which the cell-centred nodes and the bilinear vortex loads respect exactly;
- torus workloads: a translation by whole grid cells (the spectral operators
  and the node-centred vortex load commute with it).

``cli_plane`` has a single vortex at the centre, which the box symmetries
leave in place, so its seed translates the vortex by up to four whole cells.
That moves the energy by the box-boundary effect (under 4e-6 relative), hence
its looser reference tolerance.

Grids are smaller than the acceptance grids so a run holds several
operations.  The box grid keeps N + 1 a product of small primes (225), for
which the type-I sine transform is fast; N = 256 (N + 1 = 257, prime) costs
as much as N = 512.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
from contextlib import redirect_stdout

import numpy as np

from csvortex import cli, diagnostics
from csvortex.background import VortexSet, vortex_node_mask
from csvortex.fields import GridDomain
from csvortex.model import ModelParams
from csvortex.plane import PlaneSolveOpts, solve_plane
from csvortex.torus import (
    TorusSolveOpts,
    minimize_torus,
    mountain_pass,
    reconstruct_original,
)

# Energies recorded at the commit that introduced this benchmark, with one
# BLAS thread.  An optimization that changes the answer fails these.
REFERENCE = {
    "plane_m2": (309.938494726939,),
    "torus_pair": (0.6455886687543072, 2834.8228906882605),
    "cli_plane": (53.27391396378328,),
}
ENERGY_RTOL = {"plane_m2": 1e-9, "torus_pair": 1e-9, "cli_plane": 1e-5}


def _d4(points, k):
    """Image of (x, y, m) points under the k-th symmetry of the square (k < 8)."""
    sx = -1.0 if k & 1 else 1.0
    sy = -1.0 if k & 2 else 1.0
    swap = bool(k & 4)
    return tuple(((y if swap else x) * sx, (x if swap else y) * sy, m)
                 for x, y, m in points)


def _torus_vortex(seed, n):
    """The acceptance vortex (pi, pi), translated by whole cells for seed > 0."""
    shift = (0, 0) if seed == 0 else np.random.default_rng(seed).integers(0, n, 2)
    h = 2.0 * math.pi / n
    return VortexSet.single([((math.pi + shift[0] * h) % (2.0 * math.pi),
                              (math.pi + shift[1] * h) % (2.0 * math.pi))])


def _flux_error(quant):
    return max(q.rel_error for q in quant)


def _check_torus(problems, tag, params, dom, vs, state, bg, grad_inf, tol):
    big_u, big_v = reconstruct_original(state, bg)
    quant = diagnostics.quantized_integrals_torus(big_u, big_v, params, dom, bg.n)
    if _flux_error(quant) > 0.01:
        problems.append(f"{tag}: flux error {_flux_error(quant):.3e} > 1%")
    if not grad_inf <= tol:
        problems.append(f"{tag}: gradient max-norm {grad_inf:.3e} > {tol:g}")
    checks = diagnostics.max_principle_check(big_u, big_v,
                                             exclude=vortex_node_mask(vs, dom))
    for chk in checks:
        if chk.status != "pass":
            problems.append(f"{tag}: max principle {chk.label} {chk.status}")


class PlaneM2:
    """solve_plane, M=2, (n1, n2) = (1, 2), alpha=beta=1, L=20, N=224, tol 1e-9."""

    name = "plane_m2"
    kernel = "plane"
    tol = 1e-9

    def __init__(self, seed, workdir):
        base = (((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1)))
        k = 0 if seed == 0 else int(np.random.default_rng(seed).integers(0, 8))
        self.vortices = VortexSet(tuple(_d4(pts, k) for pts in base))
        self.params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
        self.domain = GridDomain.box(20.0, 224)

    def run(self):
        return solve_plane(self.params, self.vortices, self.domain,
                           PlaneSolveOpts(tol=self.tol))

    def check(self, out):
        _, info = out
        problems = []
        quant = diagnostics.quantized_integrals_plane(
            info["u"], info["u_list"], self.params, self.domain, self.vortices.counts)
        if _flux_error(quant) > 0.03:
            problems.append(f"flux error {_flux_error(quant):.3e} > 3%")
        if not info["grad_inf"] <= self.tol:
            problems.append(f"gradient max-norm {info['grad_inf']:.3e} > {self.tol:g}")
        neg = diagnostics.max_principle_check(info["u"], np.zeros_like(info["u"]),
                                              exclude=info["vortex_mask"])[0]
        if neg.status != "pass":
            problems.append(f"max principle u<0 {neg.status}")
        return (info["energy"],), (info["iterations"],), problems

    def close(self):
        pass


class TorusPair:
    """Both torus solutions at alpha=30, beta=45, N=32: minimize_torus (tol 1e-10),
    then mountain_pass from it (tol 1e-9), as ``solve-torus --second-solution`` does.

    At alpha=120 (N=64) the saddle-branch L-BFGS run (1400-2000 iterations)
    amplifies round-off so much that exact translations of the input change
    its work by up to 40%; at alpha=30, N=32 they change it by under 15%
    (335-382 iterations).
    """

    name = "torus_pair"
    kernel = "torus"
    tol_first = 1e-10
    tol_second = 1e-9

    def __init__(self, seed, workdir):
        self.domain = GridDomain.torus(2 * math.pi, 2 * math.pi, 32, 32)
        self.vortices = _torus_vortex(seed, 32)
        self.params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)

    def run(self):
        first, info = minimize_torus(self.params, self.vortices, self.domain,
                                     TorusSolveOpts(tol=self.tol_first))
        second, info2 = mountain_pass(self.params, first,
                                      TorusSolveOpts(tol=self.tol_second), bg=info["bg"])
        return first, info, second, info2

    def check(self, out):
        first, info, second, info2 = out
        problems = []
        _check_torus(problems, "first", self.params, self.domain, self.vortices,
                     first, info["bg"], info["grad_inf"], self.tol_first)
        _check_torus(problems, "second", self.params, self.domain, self.vortices,
                     second, info["bg"], info2["grad_inf"], self.tol_second)
        if not info2["separation"] >= 1e-3:
            problems.append(f"separation {info2['separation']:.3e} < 1e-3")
        if not info2["energy_I"] > info2["energy_first"]:
            problems.append("I2 <= I1")
        return ((info["energy_I"], info2["energy_I"]),
                (info["iterations"], len(info2["relax_trace"])), problems)

    def close(self):
        pass


def _report_values(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key] = value.strip()
    return out


class CliPlane:
    """csvortex.cli.main: solve-plane, verify, decay-fit; M=1, L=20, N=224, tol 1e-10."""

    name = "cli_plane"
    kernel = "cli"
    tol = 1e-10

    def __init__(self, seed, workdir):
        n = 224
        h = 40.0 / n
        dx, dy = (0, 0) if seed == 0 else np.random.default_rng(seed).integers(-4, 5, 2)
        x, y = float(dx * h), float(dy * h)
        self.root = os.path.join(workdir, f"cli_plane-{os.getpid()}")
        os.makedirs(self.root, exist_ok=True)
        self.out = os.path.join(self.root, "out")
        self.config = os.path.join(self.root, "config.json")
        with open(self.config, "w") as fh:
            json.dump({
                "schema_version": 1,
                "mode": "plane",
                "params": {"alpha": 1.0, "beta": 1.0, "species": 1, "lambda_bg": 10.0},
                "domain": {"kind": "box", "half_width": 20.0, "n": n},
                "vortices": [{"species": 0, "x": x, "y": y}],
                "decay_center": [x, y],
                "opts": {"tol": self.tol},
            }, fh)
        self.verify_bytes = None

    def run(self):
        args = ["--config", self.config, "--out", self.out]
        log = io.StringIO()
        with redirect_stdout(log):
            codes = tuple(cli.main([cmd] + args)
                          for cmd in ("solve-plane", "verify", "decay-fit"))
        return codes, log.getvalue()

    def check(self, out):
        try:
            return self._check(*out)
        finally:
            # the next operation must not find this one's files
            shutil.rmtree(self.out, ignore_errors=True)

    def _check(self, codes, log):
        problems = []
        if codes != (0, 0, 0):
            return (), codes, [f"exit codes {codes}: {log.strip()!r}"]
        with open(os.path.join(self.out, "verify_report.txt"), "rb") as fh:
            verify = fh.read()
        if self.verify_bytes is None:
            self.verify_bytes = verify
        elif verify != self.verify_bytes:
            problems.append("verify_report.txt differs from the first operation's")
        rep = _report_values(os.path.join(self.out, "report.txt"))
        ver = _report_values(os.path.join(self.out, "verify_report.txt"))
        decay = _report_values(os.path.join(self.out, "decay_report.txt"))
        flux = max(float(v) for k, v in ver.items() if k.endswith(".rel_error"))
        if flux > 0.02:
            problems.append(f"flux error {flux:.3e} > 2%")
        if not float(rep["grad_norm"]) <= self.tol:
            problems.append(f"gradient max-norm {rep['grad_norm']} > {self.tol:g}")
        if ver.get("max_principle.u") != "pass":
            problems.append(f"max principle u<0 {ver.get('max_principle.u')}")
        # the decay theorem's one-sided bound: rate at least 0.85 m
        if not float(decay["decay.slope"]) <= -0.85 * float(decay["decay.expected_m"]):
            problems.append(f"decay slope {decay['decay.slope']} above -0.85 m")
        return (float(ver["energy"]),), codes + (int(rep["iterations"]),), problems

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PlaneM2, TorusPair, CliPlane)}


def energy_problems(name, energies):
    """Mismatches between computed energies and the recorded references."""
    ref, rtol = REFERENCE[name], ENERGY_RTOL[name]
    return [f"energy {e!r} differs from reference {r!r} (rtol {rtol:g})"
            for e, r in zip(energies, ref) if not abs(e - r) <= rtol * abs(r)]
