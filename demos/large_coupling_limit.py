"""Large-coupling behavior of the doubly periodic first solution.

As alpha grows (with beta/alpha fixed below sigma), the first solution's
amplitudes approach the vacuum: the vacuum deficits integrate to smaller and
smaller values, collapsing onto the vortex cores.

Run:  python demos/large_coupling_limit.py
"""

import numpy as np

from csvortex import GridDomain, ModelParams, SolveOpts, VortexSet, minimize_torus
from csvortex.fields import integrate_values

domain = GridDomain.torus(2 * np.pi, 2 * np.pi, 128, 128)
vortices = VortexSet.single([(np.pi, np.pi)])

print(f"{'alpha':>7} {'beta':>7} {'I':>14} {'deficit':>12} {'c1':>12}")
for alpha in (15.0, 30.0, 60.0, 120.0):
    params = ModelParams(alpha=alpha, beta=1.5 * alpha, sigma=2.0)
    state, info = minimize_torus(params, vortices, domain,
                                 SolveOpts(tol=1e-10))
    bg = info["bg"]
    P = np.exp(bg.u0 + state.u)
    R = np.exp(state.v)
    deficit = (integrate_values((P - 1.0) ** 2, domain)
               + integrate_values((R - 1.0) ** 2, domain))
    print(f"{alpha:7.0f} {1.5 * alpha:7.0f} {info['energy_I']:14.8f} "
          f"{deficit:12.3e} {state.c1:12.2e}")

print("\nthe deficit integral decreases monotonically: e^{u0+u} -> 1 and "
      "e^{v} -> 1\nalmost everywhere as the coupling grows.")
