"""The doubly periodic story: one vortex, two distinct solutions.

On the torus the constrained minimization produces the first solution; a
mountain-pass saddle search then finds a second critical point with the
same prescribed vortex, the same quantized flux integrals, and strictly
higher energy.  Also demonstrates the feasibility gate and the
maximum-principle bounds both solutions obey.

Run:  python demos/torus_two_solutions.py
"""

import numpy as np

from csvortex import (
    GridDomain,
    ModelParams,
    SolveOpts,
    VortexSet,
    feasibility,
    max_principle_check,
    minimize_torus,
    mountain_pass,
    quantized_integrals_torus,
)
from csvortex.background import vortex_node_mask
from csvortex.torus import reconstruct_original

domain = GridDomain.torus(2 * np.pi, 2 * np.pi, 128, 128)
vortices = VortexSet.single([(np.pi, np.pi)])
params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)

print("necessary condition 8*pi*n <= alpha*beta*|Omega|:")
feas = feasibility(params, vortices.total, domain.area)
print(f"  margin alpha*beta*|Omega| - 8*pi*n = {feas.margin:.2f}  "
      f"({'feasible' if feas.feasible else 'infeasible'})")
weak = ModelParams(alpha=0.5, beta=1.0, sigma=3.0)
print(f"  at alpha*beta = 0.5 the margin is "
      f"{feasibility(weak, 1, domain.area).margin:.2f}: the solver refuses")

print("\nfirst solution: constrained minimization over the admissible set")
first, info = minimize_torus(params, vortices, domain, SolveOpts(tol=1e-10))
print(f"  I = {info['energy_I']:.8f}  (reduced functional J agrees to "
      f"{abs(info['energy_J'] - info['energy_I']):.1e})")
print(f"  constants c1 = {first.c1:+.6f}, c2 = {first.c2:+.6f}  (both <= 0)")
print(f"  constraint-root residuals {info['c_solve'].residual_1:.1e}, "
      f"{info['c_solve'].residual_2:.1e}")

print("\nsecond solution: mountain pass from the first")
second, info2 = mountain_pass(params, first, SolveOpts(tol=1e-9),
                              bg=info["bg"])
print(f"  I(second) = {info2['energy_I']:.4f} > I(first) = "
      f"{info2['energy_first']:.4f}")
print(f"  separation in the Sobolev norm: {info2['separation']:.2f}")
print(f"  PDE residual of the second solution: {info2['grad_inf']:.1e}")
print(f"  constants c1 = {second.c1:+.4f}, c2 = {second.c2:+.4f}")

mask = vortex_node_mask(vortices, domain)
print("\nboth solutions carry the same quantized flux integrals (-4*pi*n):")
for label, st in (("first", first), ("second", second)):
    big_u, big_v = reconstruct_original(st, info["bg"])
    qs = quantized_integrals_torus(big_u, big_v, params, domain, vortices.total)
    errs = ", ".join(f"{q.rel_error:.1e}" for q in qs)
    checks = max_principle_check(big_u, big_v, exclude=mask)
    flags = " ".join(f"{c.label}:{c.status}" for c in checks)
    print(f"  {label:>6}: relative errors {errs};  bounds {flags}")
