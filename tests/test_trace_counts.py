"""The benchmark's tracer sees every plane and torus kernel call.

bench/spans.py counts a kernel only where the solver looks it up through a
patched name.  A kernel routed around those names would leave its layer
silently empty; here it fails the counts instead.
"""

import math

from csvortex.background import VortexSet
from csvortex.fields import GridDomain
from csvortex.model import ModelParams
from csvortex.plane import PlaneSolveOpts, solve_plane
from csvortex.torus import _PROFILE_SHIFTS, TorusSolveOpts, minimize_torus, mountain_pass

from test_bench_hooks import _load_spans


def test_plane_kernels_go_through_traced_names():
    tracer = _load_spans().Tracer()
    dom = GridDomain.box(6.0, 32)
    params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
    vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
    with tracer.operation() as timed:
        timed(lambda: solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-9)))
    counts = tracer.summary()
    assert counts["plane.hess_vec.calls"] > 0
    # one stencil per evaluation and Hessian product, one sine-transform pair
    # per preconditioner application; the background solve adds one of each
    assert counts["fields.box_stencil.calls"] == (
        counts["plane.fun_grad.calls"] + counts["plane.grad.calls"]
        + counts["plane.hess_vec.calls"] + 1)
    assert counts["fields.dst.calls"] == counts["plane.precond.calls"] + 1


def test_torus_kernels_go_through_traced_names():
    tracer = _load_spans().Tracer()
    dom = GridDomain.torus(2 * math.pi, 2 * math.pi, 16, 16)
    params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
    vs = VortexSet.single([(math.pi, math.pi)])

    def both():
        first, info = minimize_torus(params, vs, dom, TorusSolveOpts(tol=1e-10))
        mountain_pass(params, first, TorusSolveOpts(tol=1e-9), bg=info["bg"])

    with tracer.operation() as timed:
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
    # every L-BFGS evaluation but each branch solve's start is feasibility-tested
    assert counts["torus.feasible.calls"] == counts["minimize.lbfgs.evals"] - 2
    # the mountain pass evaluates the energy at the first solution, at one
    # endpoint and along the sampled path, and nowhere it does not report
    assert counts["torus.energy.calls"] == 2 + _PROFILE_SHIFTS
