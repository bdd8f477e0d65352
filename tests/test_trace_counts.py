"""The benchmark's tracer sees every plane kernel call.

bench/spans.py counts a kernel only where the solver looks it up through a
patched name.  A kernel routed around those names would leave its layer
silently empty; here it fails the counts instead.
"""

from csvortex.background import VortexSet
from csvortex.fields import GridDomain
from csvortex.model import ModelParams
from csvortex.plane import PlaneSolveOpts, solve_plane

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
