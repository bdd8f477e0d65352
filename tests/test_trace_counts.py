"""The benchmark's tracer sees every plane and torus kernel call.

bench/spans.py counts a kernel only where the solver looks it up through a
patched name.  A kernel routed around those names would leave its layer
silently empty; here it fails the counts instead.
"""

import math

import pytest

from csvortex.background import VortexSet
from csvortex.fields import GridDomain
from csvortex.model import ModelParams
import csvortex.plane as plane
from csvortex.plane import PlaneSolveOpts, solve_plane
from csvortex.torus import (
    _PROFILE_SHIFTS,
    TorusOperator,
    TorusSolveOpts,
    minimize_torus,
    mountain_pass,
)

from test_bench_hooks import _load_spans


def _traced_plane_solve(n):
    tracer = _load_spans().Tracer()
    dom = GridDomain.box(6.0, n)
    params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
    vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
    with tracer.operation() as timed:
        _, info = timed(lambda: solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-9)))
    return tracer.summary(), info


def _assert_plane_counts(counts, levels):
    assert counts["plane.hess_vec.calls"] > 0
    # one stencil per evaluation and Hessian product, one sine-transform pair
    # per preconditioner application; each grid's background solve adds one
    # of each
    assert counts["fields.box_stencil.calls"] == (
        counts["plane.fun_grad.calls"] + counts["plane.grad.calls"]
        + counts["plane.hess_vec.calls"] + levels)
    assert counts["fields.dst.calls"] == counts["plane.precond.calls"] + levels


def test_plane_kernels_go_through_traced_names():
    counts, info = _traced_plane_solve(32)
    assert info["coarse_iterations"] == 0
    _assert_plane_counts(counts, levels=1)


def test_nested_plane_solve_goes_through_traced_names(monkeypatch):
    # the coarse grid's run goes through the same traced names, and the
    # tracer's L-BFGS counts hold both grids'
    monkeypatch.setattr(plane, "_COARSE_FLOOR", 64)
    counts, info = _traced_plane_solve(64)
    assert info["coarse_iterations"] > 0
    _assert_plane_counts(counts, levels=2)
    assert counts["minimize.lbfgs.evals"] == info["coarse_lbfgs_evals"] + info["lbfgs_evals"]


def test_torus_kernels_go_through_traced_names():
    tracer = _load_spans().Tracer()
    dom = GridDomain.torus(2 * math.pi, 2 * math.pi, 16, 16)
    params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
    vs = VortexSet.single([(math.pi, math.pi)])

    def both():
        first, info = minimize_torus(params, vs, dom, TorusSolveOpts(tol=1e-10))
        mountain_pass(params, first, TorusSolveOpts(tol=1e-9), bg=info["bg"])

    profiles = []
    profile = TorusOperator.energy_profile

    def counted(self, u, v, shifts):
        profiles.append(len(shifts))
        return profile(self, u, v, shifts)

    with pytest.MonkeyPatch.context() as mp, tracer.operation() as timed:
        mp.setattr(TorusOperator, "energy_profile", counted)
        timed(both)
    counts = tracer.summary()
    minres_iters = counts["minimize.minres.iters"]
    assert minres_iters > 0
    # one preconditioner application per L-BFGS iteration, per MINRES
    # iteration and per MINRES start
    assert counts["torus.precond.calls"] == (
        counts["minimize.lbfgs.iters"] + minres_iters + counts["minimize.minres.calls"])
    assert counts["torus.reduced.hess_vec.calls"] == minres_iters
    # every constraint root comes from one set of state integrals, and no
    # trial step left the admissible set
    assert counts["torus.c_root.calls"] == counts["torus.state_integrals.calls"]
    assert counts["torus.feasible.rejected"] == 0
    # every reduced evaluation, L-BFGS's and the polish's, is admissibility-tested
    assert counts["torus.feasible.calls"] == counts["torus.reduced.fun_grad.calls"]
    # the mountain pass takes the energies it reports (the first solution,
    # the sampled path and its endpoint) from one profile pass, which the
    # tracer does not patch, and calls energy nowhere
    assert counts["torus.energy.calls"] == 0
    assert profiles == [1 + _PROFILE_SHIFTS]
