"""Topological multi-species solver on the truncated plane.

The unknowns are the smooth remainders (f, f_1..f_M) of the substitution
u = Σ_k u_k0 + f, u_j = u_j0 + f_j.  Since the true remainders approach
-Σ_k u_k0 (resp. -u_j0) algebraically at infinity while u, u_j vanish
exponentially, the Dirichlet data on the truncation box is lifted to the
background trace: the ghost ring outside the grid carries -Σ_k u_k0 / -u_j0,
so the reconstructed u, u_j vanish at the wall.  The energy, its gradient and
its Hessian-vector product are built from the same discrete operators, so the
gradient is the exact derivative of the discrete energy.

The unknowns form one (M+1, n, n) stack, a view of the optimizer's flat
vector.  ``PlaneOperator`` evaluates the energy and gradient in one fused
pass: the exponential blocks of all species at once, one ghost-ring
Laplacian of the stack (the energy's Dirichlet term follows from it by
summation by parts, and the gradient is built in its buffer), and one
batched type-II sine-transform pair for the vacuum preconditioner.  That
pair alone runs in float32: it only shapes search directions, while the
energy, gradient, Hessian products and every convergence test stay in
float64.

Minimization: preconditioned L-BFGS (Wolfe steps; accepted energies are
non-increasing up to 64 ulps of the energy, see ``minimize``), followed by a
Newton/MINRES polish that drives the gradient max-norm to the requested
tolerance.  Each Hessian product of the polish is one stencil of the
direction on a zero ghost ring and about eight array passes against the
pointwise reaction matrix, which is computed once per Newton iterate.

The fine L-BFGS starts from the zero state, or, on a grid of n >=
_COARSE_FLOOR nodes per axis with n a multiple of 4, from a loosely solved
n/2 grid (nested iteration, one level): L-BFGS from zero there, with that
grid's own background, until its gradient max-norm falls to _COARSE_STOP
times its start, then a bilinear prolongation of the remainders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .background import BackgroundPlane, VortexSet, plane_background, vortex_node_mask
from .errors import DomainError, NonFiniteFieldError
# bench/spans.py traces the kernels through the names bound here, including
# box_dirichlet_ring, which the operator no longer calls
from .fields import (  # noqa: F401
    EXP_CLAMP,
    GridDomain,
    box_dirichlet_ring,
    box_laplacian_ring,
    box_ring_edges,
    box_shifted_inverse,
    box_symbol,
    exp_clip,
    laplacian_values,
)
from .minimize import finish_solve, minimize_lbfgs, newton_polish
from .model import ModelParams, SolveOpts


@dataclass(frozen=True)
class PlaneState:
    """Remainder fields (f, f_1..f_M) on a box domain: one (M+1, n1, n2) stack X."""

    domain: GridDomain
    X: np.ndarray

    @property
    def f(self) -> np.ndarray:
        return self.X[0]

    @property
    def f_i(self) -> Tuple[np.ndarray, ...]:
        return tuple(self.X[1:])


# L-BFGS hands over to Newton at this multiple of tol, before its line searches
# reach the energy's round-off; Newton/MINRES is cheaper for the rest
_LBFGS_HANDOVER = 1e5
# nested iteration: a grid of n >= _COARSE_FLOOR nodes per axis, n a multiple
# of 4, starts from the n/2 grid's L-BFGS iterate at gradient max-norm
# _COARSE_STOP times its start.  A tighter stop is wasted: on plane_m2 the
# prolonged start's fine gradient is the same for every stop from 1e-2 down
# to 1e-8, the coarse grid's own discretization error.  The floor is
# measured: the coarse run costs 7-16% more than it saves at n = 64, about
# what it saves at n = 96, and pays from n = 128 on
_COARSE_FLOOR = 128
_COARSE_STOP = 1e-3


# bench/workloads.py imports the solve options under this name
PlaneSolveOpts = SolveOpts


class PlaneOperator:
    """Discrete energy/gradient/Hessian of the plane functional.

    A state is one (M+1, n1, n2) stack X = (f, f_1..f_M), a view of the flat
    vector.  One body evaluates energy and gradient together: one pass over
    the clamped exponentials, stacked over species, and one ghost-ring
    Laplacian of the whole stack, which reads the four ghost edges ``ring``
    in place.  The energy's Dirichlet term comes from that Laplacian by
    summation by parts: over the stack p padded with its ghosts,

        Σ_edges (p_a - p_b)^2 = -Σ_interior p·(h^2 Δ_5 p) + Σ_ghosts g·(g - p_next),

    where p_next is the interior node beside ghost g.  The Hessian action
    memoizes the pointwise reaction matrix (1 + 3M planes) at the last state
    it saw (exact equality), so every MINRES product at one Newton iterate
    shares one exponential pass and costs one stencil on a zero ring plus
    about eight array passes.  The preconditioner's sine symbol is built once.

    The preconditioner inverts the vacuum Hessian with antisymmetric ghosts
    (Dirichlet at the wall face), a type-II sine pair, where the solver's
    operators have zero ghosts (type I).  The two Laplacians differ only by
    the ghost edges, each of weight p_b²/h² at a boundary node p_b, which the
    zero-ghost form already holds once: so A_I <= A_II <= 2·A_I, and the
    preconditioned Hessian's spectrum moves by at most a factor 2.  L-BFGS
    and MINRES need that spectral equivalence only, not an exact inverse.
    A type-II pair of length n is as cheap as the factors of n allow, a
    type-I pair as those of n + 1: 257 is prime at n = 256.

    The pair runs in float32, about twice as fast as in float64.  Its
    rounding, about 1e-7 of the largest entry, keeps that equivalence and
    moves only the search directions: the L-BFGS pairs, the MINRES
    recurrence and every convergence test use the float64 gradient and
    Hessian products, so an accepted state meets the same float64 tolerance.
    """

    def __init__(self, bg: BackgroundPlane, params: ModelParams):
        m = params.species
        if m != len(bg.u0):
            raise DomainError("params.species does not match the background")
        self.bg = bg
        self.params = params
        self.domain = dom = bg.domain
        self.shape = (m + 1,) + dom.shape
        a, b = params.alpha, params.beta
        # the four ghost edges of the stack, the only ghosts the stencil reads
        self.ring = ring = tuple(_ghost_values(e) for e in box_ring_edges(bg.u0_pad))
        # the energy holds (M/α)|∇f|^2 + (1/β)Σ|∇f_i|^2 and the linear terms
        # (2M/α) f Σ_i h_i + (2/β) Σ f_i h_i, whose weights are the sources
        c_dir = np.array([m / a] + [1.0 / b] * m)
        # the L2 gradient is -S·Δ_h X + p(X) with stiffness S = 2c_k on field k,
        # and an equation's residual is divided by its own 2c_k
        self._stiff = self.residual_scale = 2.0 * c_dir[:, None, None]
        self.source = np.empty(self.shape)
        np.multiply(np.sum(bg.h, axis=0), 2.0 * m / a, out=self.source[0])
        np.multiply(bg.h, 2.0 / b, out=self.source[1:])
        # ghost edges of the summation by parts, weighted by c_dir: g·g is a
        # constant, -g·p_next a dot product with the boundary nodes of X
        h1, h2 = dom.h1, dom.h2
        ghosts = ((np.s_[:, 0, :], ring[0], h2 / h1),
                  (np.s_[:, -1, :], ring[1], h2 / h1),
                  (np.s_[:, :, 0], ring[2], h1 / h2),
                  (np.s_[:, :, -1], ring[3], h1 / h2))
        self._ghosts = tuple((side, g * (ratio * c_dir[:, None]))
                             for side, g, ratio in ghosts)
        self._ghost_energy = float(sum(np.vdot(g, w) for (_, g, _), (_, w)
                                       in zip(ghosts, self._ghosts)))
        # vacuum Hessian c_lap(-Δ) + c_id per field, in the flat inner product,
        # with antisymmetric ghosts (type II); held in float32, each plane
        # divided by the power of two 2^s that brings its largest entry below 1
        symbol = box_symbol(dom, 2.0 * c_dir * dom.cell_area,
                            np.array([8.0 * a * m] + [8.0 * b] * m) * dom.cell_area,
                            _type=2)
        self._symbol_exp = np.frexp(np.max(symbol, axis=(1, 2)))[1][:, None, None]
        self._symbol = np.ldexp(symbol, -self._symbol_exp).astype(np.float32)
        self.clamp_hit = False
        self._memo: Optional[tuple] = None  # (x, reaction matrix) of the last Hessian state

    # -- pointwise exponential blocks ------------------------------------
    def _blocks(self, X: np.ndarray):
        """(A + B, A - B, Σ_i (A_i + B_i)) with A_i, B_i stacked over species.

        A_i = e^{S + u0_i + f + f_i} and B_i = e^{S - u0_i + f - f_i}, where S
        is the species sum of the discretely consistent backgrounds u0_i.
        """
        bg = self.bg
        c = bg.u0_grid_sum + X[0]
        ea = c + bg.u0_grid
        ea += X[1:]
        eb = np.subtract(c, bg.u0_grid)
        eb -= X[1:]
        if np.max(ea) > EXP_CLAMP or np.max(eb) > EXP_CLAMP:
            self.clamp_hit = True
        exp_clip(ea, out=ea)
        exp_clip(eb, out=eb)
        dp = ea + eb
        dm = np.subtract(ea, eb, out=ea)
        return dp, dm, np.sum(dp, axis=0)

    def _reaction(self, dp: np.ndarray, dm: np.ndarray, sum_b: np.ndarray,
                  out: np.ndarray):
        """Pointwise part of the L2 gradient stack, sources included, added
        into the stack ``out`` in place.

        Each field's part is summed with its source before it is added, so
        the sum rounds as out + (source + part).  Also returns sum_a =
        Σ_i (A_i + B_i) - 2M and Σ_i (A_i - B_i)^2, which the energy
        integrates.
        """
        p = self.params
        m = p.species
        sum_a = sum_b - 2.0 * m
        dm2 = np.einsum("kij,kij->ij", dm, dm)
        t0 = (2.0 * p.alpha / m) * sum_a * sum_b + (2.0 * p.beta) * dm2
        t0 += self.source[0]
        out[0] += t0
        t = (2.0 * p.beta) * dp
        t += (2.0 * p.alpha / m) * sum_a
        t *= dm
        t += self.source[1:]
        out[1:] += t
        return out, sum_a, dm2

    # an overflow is named at the end, at its first non-finite node
    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(self, X: np.ndarray, energy: bool = True):
        """(energy or None, L2 gradient stack) at the state stack X.

        The gradient is built in the Laplacian's buffer, after the energy's
        Dirichlet term has read the Laplacian.
        """
        p = self.params
        G = box_laplacian_ring(X, self.ring, self.domain)
        G *= -self._stiff
        dirichlet = 0.5 * np.vdot(X, G) if energy else None
        G, sum_a, dm2 = self._reaction(*self._blocks(X), out=G)
        val = None
        if energy:
            val = self._ghost_energy - sum(np.vdot(w, X[side]) for side, w in self._ghosts)
            val += self.domain.cell_area * (
                dirichlet + np.vdot(X, self.source)
                + (p.alpha / p.species) * np.vdot(sum_a, sum_a) + p.beta * np.sum(dm2))
            if not np.isfinite(val):
                pot = (p.alpha / p.species) * sum_a**2 + p.beta * dm2
                bad = ~np.isfinite(pot + np.sum(X * self.source, axis=0))
                node = tuple(int(k) for k in np.argwhere(bad)[0]) if bad.any() else None
                raise NonFiniteFieldError("non-finite energy integrand", node=node)
            val = float(val)
        if not np.all(np.isfinite(G)):
            node = tuple(int(k) for k in np.argwhere(~np.isfinite(G))[0][1:])
            raise NonFiniteFieldError("non-finite gradient value", node=node)
        return val, G

    def _reaction_matrix(self, X: np.ndarray):
        """The pointwise second variation of the reaction terms at state X.

        At each node it is the symmetric (M+1)×(M+1) matrix
        [[a00, a0ᵀ], [a0, diag(b) + (2α/M)·dm dmᵀ]], returned as the planes
        (a00, a0, b, dm): 1 + 3M planes in all.
        """
        p = self.params
        m = p.species
        dp, dm, sum_b = self._blocks(X)
        ka = 2.0 * p.alpha / m
        coupling = ka * (2.0 * sum_b - 2.0 * m)  # (2α/M)(sum_a + sum_b)
        a00 = coupling * sum_b
        a00 += (4.0 * p.beta) * np.einsum("kij,kij->ij", dm, dm)
        a0 = (4.0 * p.beta) * dp
        a0 += coupling
        a0 *= dm
        b = (ka * (sum_b - 2.0 * m)) * dp
        b += (2.0 * p.beta) * (dp * dp + dm * dm)
        return a00, a0, b, dm

    def _hess(self, x: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Second variation at flat state x applied to a direction stack V.

        Directions carry homogeneous ghost data.  The reaction matrix is
        memoized per state, so each product is one stencil and about eight
        array passes.
        """
        memo = self._memo
        if memo is None or not np.array_equal(memo[0], x):
            memo = self._memo = (x.copy(),
                                 self._reaction_matrix(x.reshape(self.shape)))
        a00, a0, b, dm = memo[1]
        df, dF = V[0], V[1:]
        H = laplacian_values(V, self.domain)
        H *= -self._stiff
        H[0] += a00 * df
        H[0] += np.einsum("kij,kij->ij", a0, dF)
        rank1 = np.einsum("kij,kij->ij", dm, dF)
        rank1 *= 2.0 * self.params.alpha / self.params.species
        H[1:] += a0 * df
        H[1:] += b * dF
        H[1:] += dm * rank1
        return H

    def stiffness(self, Y: np.ndarray) -> np.ndarray:
        """S·Y for a stack Y: each field times its 2c_k."""
        return self._stiff * Y

    # -- flat-vector interface for the optimizer --------------------------
    def fun_grad_flat(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        val, G = self._evaluate(x.reshape(self.shape))
        G *= self.domain.cell_area
        return val, G.ravel()

    def grad_flat(self, x: np.ndarray) -> np.ndarray:
        G = self._evaluate(x.reshape(self.shape), energy=False)[1]
        G *= self.domain.cell_area
        return G.ravel()

    def hess_vec_flat(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        H = self._hess(x, v.reshape(self.shape))
        H *= self.domain.cell_area
        return H.ravel()

    def precond_flat(self, v: np.ndarray) -> np.ndarray:
        """Inverse of the vacuum Hessian with antisymmetric ghosts: one batched
        type-II sine-transform pair in float32 (see the class docstring).

        Each plane of v is divided by the power of two 2^e that brings its
        largest entry below 1 before the cast, so no finite input overflows
        float32 and no plane is flushed by a larger one; the exact scale
        2^(e - s) is put back in float64.
        """
        V = v.reshape(self.shape)
        e = np.frexp(np.max(np.abs(V), axis=(1, 2)))[1][:, None, None]
        V32 = np.ldexp(V, -e, out=np.empty(self.shape, np.float32), casting="same_kind")
        out = box_shifted_inverse(V32, self._symbol, _type=2)
        return np.ldexp(out, e - self._symbol_exp, dtype=np.float64).ravel()


def reconstruct(state: PlaneState, bg: BackgroundPlane) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Original variables u = Σ u_k0 + f and u_j = u_j0 + f_j.

    Uses the discretely consistent background profiles, matching the
    exponentials inside the energy, so u and u_j vanish cleanly at the wall.
    """
    u = bg.u0_grid_sum + state.f
    u_list = tuple(bg.u0_grid + state.X[1:])
    return u, u_list


def _prolong(padded: np.ndarray) -> np.ndarray:
    """Cell-centred bilinear prolongation to the grid of twice the resolution.

    ``padded`` is a (k, n + 2, n + 2) stack whose outer ring holds the ghost
    values; the result is (k, 2n, 2n).  Each fine node lies a quarter of a
    coarse cell from its coarse node, so along each axis it takes 3/4 of that
    node and 1/4 of the next one outward: in 2-D the weights are 9/16, 3/16,
    3/16 and 1/16, and bilinear data is reproduced exactly.
    """
    out = padded
    for axis in (-2, -1):
        c = np.moveaxis(out, axis, 0)
        mid = 0.75 * c[1:-1]
        fine = np.empty((2 * (c.shape[0] - 2),) + c.shape[1:])
        np.add(mid, 0.25 * c[:-2], out=fine[0::2])
        np.add(mid, 0.25 * c[2:], out=fine[1::2])
        out = np.moveaxis(fine, 0, axis)
    return out


def _ghost_values(u0_pad: np.ndarray) -> np.ndarray:
    """The remainders' ghost data where the backgrounds u0_pad are given:
    -Σ_k u_k0 for f, then -u_i0 for each f_i, stacked on a new leading axis."""
    return np.concatenate((-np.sum(u0_pad, axis=0, keepdims=True), -u0_pad))


def _coarse_start(params: ModelParams, vortices: VortexSet, domain: GridDomain,
                  max_iter: int) -> Tuple[np.ndarray, int, int]:
    """(padded coarse state, coarse iterations, coarse evaluations) for the
    fine solve on ``domain``; the fine start is ``_prolong`` of that state.

    L-BFGS from zero on the n/2 grid, with its own consistent background,
    until the gradient max-norm falls to _COARSE_STOP times its start.  The
    remainders (f, f_i) are returned padded with that grid's ghost ring,
    corners included, which the prolongation reads.  The remainders, not u,
    are prolonged: each grid's background differs at the discretization
    level.  A coarse run that stops short is only a start.  Only the padded
    state, a quarter of the fine stack, and the counts outlive the call, so
    the coarse operator and history are released before the fine background
    is built.
    """
    coarse = GridDomain.box(domain.extent1, domain.n1 // 2)
    op = PlaneOperator(plane_background(vortices, params.lambda_bg, coarse), params)
    res = minimize_lbfgs(op.fun_grad_flat, np.zeros(op.shape).ravel(),
                         precond=op.precond_flat, tol_inf=0.0, tol_rel=_COARSE_STOP,
                         max_iter=max_iter)
    padded = _ghost_values(op.bg.u0_pad)
    padded[:, 1:-1, 1:-1] = res.x.reshape(op.shape)
    return padded, res.iterations, res.evals


def solve_plane(params: ModelParams, vortices: VortexSet, domain: GridDomain,
                opts: SolveOpts = SolveOpts()):
    """Minimize the plane energy, from a loosely solved n/2 grid if there is one.

    On a grid of n >= _COARSE_FLOOR nodes per axis, n a multiple of 4, the
    fine L-BFGS starts from ``_coarse_start``'s prolongation, and the coarse
    iterations are spent from opts.max_iter; otherwise it starts from zero.
    L-BFGS hands over at gradient max-norm _LBFGS_HANDOVER·opts.tol to a
    Newton/MINRES polish, which returns at once when L-BFGS already met
    opts.tol.  The polished point is taken as it is, as on the torus; the
    energy and gradient there come from one evaluation, and a gradient
    max-norm above opts.tol raises NonConvergenceError carrying that state.
    Returns (state, info) where info carries the reconstructed fields and the
    raw convergence record; higher-level reporting lives in diagnostics.
    ``energies``, ``iterations`` and ``lbfgs_evals`` are the fine grid's
    record; ``coarse_iterations`` and ``coarse_lbfgs_evals`` count the coarse
    L-BFGS run (0 without one).
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
    coarse = None
    coarse_iterations = coarse_evals = 0
    if domain.n1 >= _COARSE_FLOOR and domain.n1 % 4 == 0:
        coarse, coarse_iterations, coarse_evals = _coarse_start(params, vortices, domain,
                                                                opts.max_iter)
    bg = plane_background(vortices, params.lambda_bg, domain)
    op = PlaneOperator(bg, params)
    tol_flat = opts.tol * domain.cell_area
    # the fine start is named by nothing here: it is freed once
    # minimize_lbfgs has copied it
    res = minimize_lbfgs(op.fun_grad_flat,
                         (np.zeros(op.shape) if coarse is None else _prolong(coarse)).ravel(),
                         precond=op.precond_flat,
                         tol_inf=tol_flat * _LBFGS_HANDOVER,
                         max_iter=opts.max_iter - coarse_iterations)
    pol = newton_polish(op.grad_flat, op.hess_vec_flat, res.x, g0=res.g,
                        precond=op.precond_flat, tol_inf=tol_flat)
    state = PlaneState(domain, pol.x.reshape(op.shape))
    energy, g = op.fun_grad_flat(pol.x)
    info = finish_solve("plane solve", res, pol, energy,
                        float(np.max(np.abs(g))) / domain.cell_area, opts.tol, state)
    u, u_list = reconstruct(state, bg)
    info.update({
        "energy": energy,
        "wall_time": time.perf_counter() - t0,
        "u": u,
        "u_list": u_list,
        "bg": bg,
        "operator": op,
        "clamp_hit": op.clamp_hit,
        "vortex_mask": vortex_node_mask(vortices, domain),
        "coarse_iterations": coarse_iterations,
        "coarse_lbfgs_evals": coarse_evals,
    })
    return state, info
