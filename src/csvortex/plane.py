"""Topological multi-species solver on the truncated plane.

The unknowns are the smooth remainders (f, f_1..f_M) of the substitution
u = Σ_k u_k0 + f, u_j = u_j0 + f_j.  Since the true remainders approach
-Σ_k u_k0 (resp. -u_j0) algebraically at infinity while u, u_j vanish
exponentially, the Dirichlet data on the truncation box is lifted to the
background trace: the ghost ring outside the grid carries -Σ_k u_k0 / -u_j0,
so the reconstructed u, u_j vanish at the wall.  The energy, its gradient and
its Hessian-vector product are built from the same discrete operators, so the
gradient is the exact derivative of the discrete energy.

Minimization: preconditioned L-BFGS (strong Wolfe, strictly decreasing
energy) from the zero state, followed by a Newton/MINRES polish that drives
the gradient max-norm to the requested tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .background import BackgroundPlane, VortexSet, plane_background, vortex_node_mask
from .errors import DomainError, NonConvergenceError, NonFiniteFieldError
from .fields import (
    EXP_CLAMP,
    GridDomain,
    box_dirichlet_ring,
    box_laplacian_ring,
    box_shifted_inverse,
    exp_clip,
    integrate_values,
    laplacian4_values,
    laplacian_values,
)
from .minimize import minimize_lbfgs, newton_polish
from .model import ModelParams


@dataclass(frozen=True)
class PlaneState:
    """Remainder fields (f, f_1..f_M) on a box domain."""

    domain: GridDomain
    f: np.ndarray
    f_i: Tuple[np.ndarray, ...]

    @property
    def species(self) -> int:
        return len(self.f_i)

    def pack(self) -> np.ndarray:
        return np.concatenate([self.f.ravel()] + [fi.ravel() for fi in self.f_i])

    @staticmethod
    def unpack(x: np.ndarray, domain: GridDomain, species: int) -> "PlaneState":
        n = domain.n1 * domain.n2
        f = x[:n].reshape(domain.shape)
        f_i = tuple(
            x[(k + 1) * n:(k + 2) * n].reshape(domain.shape) for k in range(species)
        )
        return PlaneState(domain, f, f_i)

    @staticmethod
    def zero(domain: GridDomain, species: int) -> "PlaneState":
        z = np.zeros(domain.shape)
        return PlaneState(domain, z, tuple(z.copy() for _ in range(species)))


_LBFGS_HANDOVER = 1e3  # L-BFGS hands over to Newton at this multiple of tol


@dataclass(frozen=True)
class PlaneSolveOpts:
    tol: float = 1e-8
    max_iter: int = 4000


def _ring_only(padded: np.ndarray) -> np.ndarray:
    out = padded.copy()
    out[1:-1, 1:-1] = 0.0
    return out


class PlaneOperator:
    """Discrete energy/gradient/Hessian of the plane functional."""

    def __init__(self, bg: BackgroundPlane, params: ModelParams):
        if params.species != len(bg.u0):
            raise DomainError("params.species does not match the background")
        self.bg = bg
        self.params = params
        self.domain = bg.domain
        pad_shape = (self.domain.n1 + 2, self.domain.n2 + 2)
        u0_sum_pad = np.sum(bg.u0_pad, axis=0) if bg.u0_pad else np.zeros(pad_shape)
        self.ring_f = _ring_only(-u0_sum_pad)
        self.ring_fi = tuple(_ring_only(-u) for u in bg.u0_pad)
        self.h_sum = np.sum(bg.h, axis=0) if bg.h else np.zeros(self.domain.shape)
        self.clamp_hit = False

    # -- pointwise exponential blocks ------------------------------------
    def _blocks(self, st: PlaneState):
        bg, m = self.bg, self.params.species
        A, B = [], []
        tot = np.zeros(self.domain.shape)
        for i in range(m):
            ep = bg.u0_grid_sum + bg.u0_grid[i] + st.f + st.f_i[i]
            em = bg.u0_grid_sum - bg.u0_grid[i] + st.f - st.f_i[i]
            if np.max(ep) > EXP_CLAMP or np.max(em) > EXP_CLAMP:
                self.clamp_hit = True
            a = exp_clip(ep)
            b = exp_clip(em)
            A.append(a)
            B.append(b)
            tot = tot + a + b
        return A, B, tot - 2.0 * m, tot

    def energy(self, st: PlaneState) -> float:
        p, bg = self.params, self.bg
        m = p.species
        A, B, sum_a, sum_b = self._blocks(st)
        pot = (p.alpha / m) * sum_a**2
        for a, b in zip(A, B):
            pot = pot + p.beta * (a - b) ** 2
        lin = np.zeros(self.domain.shape)
        for i in range(m):
            lin = lin + (2.0 * m / p.alpha) * st.f * bg.h[i] \
                + (2.0 / p.beta) * st.f_i[i] * bg.h[i]
        val = (m / p.alpha) * box_dirichlet_ring(st.f, self.ring_f, st.f, self.ring_f,
                                                 self.domain)
        for i in range(m):
            val += (1.0 / p.beta) * box_dirichlet_ring(
                st.f_i[i], self.ring_fi[i], st.f_i[i], self.ring_fi[i], self.domain)
        val += integrate_values(pot + lin, self.domain)
        if not np.isfinite(val):
            bad = ~np.isfinite(pot + lin)
            node = tuple(int(k) for k in np.argwhere(bad)[0]) if bad.any() else None
            raise NonFiniteFieldError("non-finite energy integrand", node=node)
        return float(val)

    def gradient(self, st: PlaneState) -> PlaneState:
        """Pointwise L2 gradient fields (δI/δf, δI/δf_i)."""
        p, bg = self.params, self.bg
        m = p.species
        A, B, sum_a, sum_b = self._blocks(st)
        g_f = -(2.0 * m / p.alpha) * box_laplacian_ring(st.f, self.ring_f, self.domain)
        g_f = g_f + (2.0 * p.alpha / m) * sum_a * sum_b
        for a, b in zip(A, B):
            g_f = g_f + 2.0 * p.beta * (a - b) ** 2
        g_f = g_f + (2.0 * m / p.alpha) * self.h_sum
        g_i: List[np.ndarray] = []
        for i in range(m):
            gi = -(2.0 / p.beta) * box_laplacian_ring(st.f_i[i], self.ring_fi[i],
                                                      self.domain)
            gi = gi + (2.0 * p.alpha / m) * sum_a * (A[i] - B[i])
            gi = gi + 2.0 * p.beta * (A[i] - B[i]) * (A[i] + B[i])
            gi = gi + (2.0 / p.beta) * bg.h[i]
            g_i.append(gi)
        out = PlaneState(self.domain, g_f, tuple(g_i))
        for arr in (out.f, *out.f_i):
            if not np.all(np.isfinite(arr)):
                node = tuple(int(k) for k in np.argwhere(~np.isfinite(arr))[0])
                raise NonFiniteFieldError("non-finite gradient value", node=node)
        return out

    def hess_vec(self, st: PlaneState, dv: PlaneState) -> PlaneState:
        """Second variation applied to a direction (homogeneous ghost data)."""
        p = self.params
        m = p.species
        A, B, sum_a, sum_b = self._blocks(st)
        d_sum = sum_b * dv.f
        for i in range(m):
            d_sum = d_sum + (A[i] - B[i]) * dv.f_i[i]
        h_f = -(2.0 * m / p.alpha) * laplacian_values(dv.f, self.domain)
        h_f = h_f + (2.0 * p.alpha / m) * (d_sum * sum_b + sum_a * d_sum)
        for i in range(m):
            dmin = (A[i] - B[i]) * dv.f + (A[i] + B[i]) * dv.f_i[i]
            h_f = h_f + 4.0 * p.beta * (A[i] - B[i]) * dmin
        h_i: List[np.ndarray] = []
        for i in range(m):
            dmin = (A[i] - B[i]) * dv.f + (A[i] + B[i]) * dv.f_i[i]
            dplus = (A[i] + B[i]) * dv.f + (A[i] - B[i]) * dv.f_i[i]
            hi = -(2.0 / p.beta) * laplacian_values(dv.f_i[i], self.domain)
            hi = hi + (2.0 * p.alpha / m) * (d_sum * (A[i] - B[i]) + sum_a * dmin)
            hi = hi + 2.0 * p.beta * (dmin * (A[i] + B[i]) + (A[i] - B[i]) * dplus)
            h_i.append(hi)
        return PlaneState(self.domain, h_f, tuple(h_i))

    # -- flat-vector interface for the optimizer --------------------------
    def fun_grad_flat(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        st = PlaneState.unpack(x, self.domain, self.params.species)
        f = self.energy(st)
        g = self.gradient(st).pack() * self.domain.cell_area
        return f, g

    def grad_flat(self, x: np.ndarray) -> np.ndarray:
        st = PlaneState.unpack(x, self.domain, self.params.species)
        return self.gradient(st).pack() * self.domain.cell_area

    def hess_vec_flat(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        st = PlaneState.unpack(x, self.domain, self.params.species)
        dv = PlaneState.unpack(v, self.domain, self.params.species)
        return self.hess_vec(st, dv).pack() * self.domain.cell_area

    def precond_flat(self, v: np.ndarray) -> np.ndarray:
        """Inverse of the vacuum Hessian, applied per field via sine transforms."""
        p = self.params
        m = p.species
        st = PlaneState.unpack(v, self.domain, m)
        out_f = box_shifted_inverse(st.f, self.domain, 2.0 * m / p.alpha,
                                    8.0 * p.alpha * m)
        out_i = tuple(
            box_shifted_inverse(fi, self.domain, 2.0 / p.beta, 8.0 * p.beta)
            for fi in st.f_i
        )
        return PlaneState(self.domain, out_f, out_i).pack() / self.domain.cell_area


def plane_energy(state: PlaneState, bg: BackgroundPlane, params: ModelParams) -> float:
    """Discrete energy of a remainder state (ghost ring lifted to -u0 data)."""
    return PlaneOperator(bg, params).energy(state)


def plane_gradient(state: PlaneState, bg: BackgroundPlane,
                   params: ModelParams) -> PlaneState:
    """Pointwise L2-gradient fields of the discrete energy."""
    return PlaneOperator(bg, params).gradient(state)


def reconstruct(state: PlaneState, bg: BackgroundPlane) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Original variables u = Σ u_k0 + f and u_j = u_j0 + f_j.

    Uses the discretely consistent background profiles, matching the
    exponentials inside the energy, so u and u_j vanish cleanly at the wall.
    """
    u = bg.u0_grid_sum + state.f
    u_list = tuple(bg.u0_grid[i] + state.f_i[i] for i in range(state.species))
    return u, u_list


def pde_residual_same_op(state: PlaneState, op: PlaneOperator) -> float:
    """Max-norm residual of the delta-free system under the solver's operators.

    The first equation's residual is (alpha/2M) times the f-gradient, the
    species equations' (beta/2) times the f_i-gradients.
    """
    g = op.gradient(state)
    p = op.params
    m = p.species
    r = np.max(np.abs(g.f)) * p.alpha / (2.0 * m)
    for gi in g.f_i:
        r = max(r, float(np.max(np.abs(gi))) * p.beta / 2.0)
    return float(r)


def pde_residual_fourth(state: PlaneState, op: PlaneOperator,
                        exclude: Optional[np.ndarray] = None) -> float:
    """Residual under an independent 4th-order Laplacian (interior nodes).

    Measures the discretization error of the converged field rather than the
    solver's closure; decreases at 2nd order under grid refinement.
    """
    p = op.params
    m = p.species
    A, B, sum_a, sum_b = op._blocks(state)
    rhs_f = (p.alpha**2 / m**2) * sum_a * sum_b + op.h_sum
    for a, b in zip(A, B):
        rhs_f = rhs_f + (p.alpha * p.beta / m) * (a - b) ** 2
    res = np.abs(laplacian4_values(state.f, op.domain) - rhs_f)
    for i in range(m):
        rhs_i = (p.alpha * p.beta / m) * sum_a * (A[i] - B[i]) \
            + p.beta**2 * (A[i] ** 2 - B[i] ** 2) + op.bg.h[i]
        res = np.maximum(res, np.abs(laplacian4_values(state.f_i[i], op.domain) - rhs_i))
    keep = np.zeros(op.domain.shape, dtype=bool)
    keep[2:-2, 2:-2] = True
    if exclude is not None:
        keep &= ~exclude
    return float(np.max(res[keep]))


def solve_plane(params: ModelParams, vortices: VortexSet, domain: GridDomain,
                opts: PlaneSolveOpts = PlaneSolveOpts()):
    """Minimize the plane energy from the zero state.

    Returns (state, info) where info carries the reconstructed fields and the
    raw convergence record; higher-level reporting lives in diagnostics.
    """
    if domain.kind != "box":
        raise DomainError("plane solve requires a box domain")
    if vortices.num_species != params.species:
        raise DomainError("vortex set species count does not match params")
    vortices.validate_in(domain)
    for pts in vortices.species:
        for x, y, _ in pts:
            if max(abs(x), abs(y)) > 0.75 * domain.extent1:
                raise DomainError(
                    "every vortex must sit at distance >= L/4 from the box boundary"
                )
    t0 = time.perf_counter()
    bg = plane_background(vortices, params.lambda_bg, domain)
    op = PlaneOperator(bg, params)
    tol_flat = opts.tol * domain.cell_area
    x0 = PlaneState.zero(domain, params.species).pack()
    res = minimize_lbfgs(op.fun_grad_flat, x0, precond=op.precond_flat,
                         tol_inf=tol_flat * _LBFGS_HANDOVER, max_iter=opts.max_iter)
    energies = list(res.energies)
    iterations = res.iterations
    minres_unconverged = minres_iters = 0
    if float(np.max(np.abs(res.g))) > tol_flat:
        pol = newton_polish(op.grad_flat, op.hess_vec_flat, res.x,
                            precond=op.precond_flat, tol_inf=tol_flat)
        iterations += pol.iterations
        minres_unconverged = pol.minres_unconverged
        minres_iters = pol.minres_iters
        if pol.converged:
            e_pol = op.fun_grad_flat(pol.x)[0]
            if e_pol <= energies[-1] + 1e-12 * max(1.0, abs(energies[-1])):
                res = pol
                energies.append(e_pol)
    grad_inf = float(np.max(np.abs(res.g))) / domain.cell_area
    state = PlaneState.unpack(res.x, domain, params.species)
    if grad_inf > opts.tol:
        raise NonConvergenceError(
            f"plane solve stalled at gradient max-norm {grad_inf:.3e} "
            f"(target {opts.tol:.3e}) after {iterations} iterations",
            state=state, grad_norm=grad_inf)
    u, u_list = reconstruct(state, bg)
    info = {
        "energy": op.energy(state),
        "grad_inf": grad_inf,
        "iterations": iterations,
        "minres_unconverged": minres_unconverged,
        "minres_iters": minres_iters,
        "energies": energies,
        "wall_time": time.perf_counter() - t0,
        "u": u,
        "u_list": u_list,
        "bg": bg,
        "operator": op,
        "clamp_hit": op.clamp_hit,
        "vortex_mask": vortex_node_mask(vortices, domain),
    }
    return state, info
