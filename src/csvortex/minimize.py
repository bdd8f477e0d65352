"""Descent and critical-point machinery shared by both solvers.

``minimize_lbfgs`` is a limited-memory quasi-Newton loop with a strong-Wolfe
line search: accepted iterates strictly decrease the objective.  A caller may
install a feasibility predicate; trial points outside the feasible set are
treated as infinitely costly, which makes the line search reject them and
halve the step — the rejection semantics required at the admissible-set
boundary of the constrained torus problem.

``newton_polish`` drives the gradient to a tight max-norm tolerance with a
damped Newton iteration whose linear systems are solved by preconditioned
MINRES; the Hessian may be indefinite, so the same routine refines both
minima and mountain-pass saddle points.  Inner solves that stop short of their
tolerance are still tried as steps, and are counted in
``OptResult.minres_unconverged``; ``OptResult.minres_iters`` counts the inner
MINRES iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres


_HISTORY = 12  # L-BFGS correction pairs kept


class LineSearchError(RuntimeError):
    def __init__(self, message, feasibility_blocked=False):
        super().__init__(message)
        self.feasibility_blocked = feasibility_blocked


@dataclass
class OptResult:
    x: np.ndarray
    f: float
    g: np.ndarray
    iterations: int
    converged: bool
    energies: List[float] = field(default_factory=list)
    message: str = ""
    boundary_trapped: bool = False
    minres_unconverged: int = 0  # newton_polish inner solves that missed rtol
    minres_iters: int = 0        # newton_polish inner MINRES iterations


class _Wolfe:
    """Strong-Wolfe search along a fixed direction; +inf encodes rejection."""

    c1, c2 = 1e-4, 0.9   # sufficient-decrease and curvature constants
    max_evals = 60

    def __init__(self, fun_grad, x, f0, g0, d, feasible):
        self.fun_grad = fun_grad
        self.x, self.f0, self.d = x, f0, d
        self.gd0 = float(np.dot(g0, d))
        self.feasible = feasible
        self.evals = 0
        self.saw_infeasible = False
        self.best = None  # (t, f, g, xt) with sufficient decrease

    def phi(self, t):
        self.evals += 1
        xt = self.x + t * self.d
        if self.feasible is not None and not self.feasible(xt):
            self.saw_infeasible = True
            return np.inf, None, np.nan, xt
        ft, gt = self.fun_grad(xt)
        if not np.isfinite(ft):
            return np.inf, None, np.nan, xt
        return ft, gt, float(np.dot(gt, self.d)), xt

    def _suff(self, t, ft):
        return ft <= self.f0 + self.c1 * t * self.gd0

    def run(self, t0=1.0):
        if self.gd0 >= 0:
            raise LineSearchError("search direction is not a descent direction")
        t_prev, f_prev = 0.0, self.f0
        f_lo = self.f0
        t = t0
        while self.evals < self.max_evals:
            ft, gt, gdt, xt = self.phi(t)
            if not self._suff(t, ft) or (t_prev > 0.0 and ft >= f_prev):
                return self.zoom(t_prev, f_lo if t_prev > 0.0 else self.f0, t)
            self.best = (t, ft, gt, xt)
            if abs(gdt) <= -self.c2 * self.gd0:
                return t, ft, gt, xt
            if gdt >= 0:
                return self.zoom(t, ft, t_prev)
            t_prev, f_prev, f_lo = t, ft, ft
            t *= 2.0
        return self._fallback("line search bracketing budget exhausted")

    def zoom(self, lo, f_lo, hi):
        while self.evals < self.max_evals:
            if abs(hi - lo) <= 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
            t = 0.5 * (lo + hi)
            ft, gt, gdt, xt = self.phi(t)
            if not self._suff(t, ft) or ft >= f_lo:
                hi = t
                continue
            self.best = (t, ft, gt, xt)
            if abs(gdt) <= -self.c2 * self.gd0:
                return t, ft, gt, xt
            if gdt * (hi - lo) >= 0:
                hi = lo
            lo, f_lo = t, ft
        return self._fallback("line search interval collapsed")

    def _fallback(self, why):
        # accept the best strict-decrease point if one was found
        if self.best is not None and self.best[1] < self.f0:
            return self.best
        raise LineSearchError(why, feasibility_blocked=self.saw_infeasible)


def minimize_lbfgs(fun_grad: Callable, x0: np.ndarray, *,
                   precond: Optional[Callable] = None,
                   feasible: Optional[Callable] = None,
                   tol_inf: float = 1e-8,
                   max_iter: int = 2000) -> OptResult:
    """Preconditioned L-BFGS with strong-Wolfe steps and strict energy decrease.

    Converges when the gradient max-norm drops to ``tol_inf``.  ``precond``
    applies a fixed symmetric positive-definite initial inverse Hessian.
    """
    apply_p = precond if precond is not None else (lambda v: v.copy())
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    energies = [f]
    s_list: List[np.ndarray] = []
    y_list: List[np.ndarray] = []
    rho: List[float] = []
    gamma = 1.0
    boundary = False
    it = 0
    for it in range(1, max_iter + 1):
        if float(np.max(np.abs(g))) <= tol_inf:
            return OptResult(x, f, g, it - 1, True, energies,
                             "gradient tolerance met", boundary)
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, r in zip(reversed(s_list), reversed(y_list), reversed(rho)):
            a = r * float(np.dot(s, q))
            alphas.append(a)
            q -= a * y
        z = gamma * apply_p(q)
        for (s, y, r), a in zip(zip(s_list, y_list, rho), reversed(alphas)):
            b = r * float(np.dot(y, z))
            z += (a - b) * s
        d = -z
        if float(np.dot(g, d)) >= 0:
            s_list.clear(); y_list.clear(); rho.clear()
            gamma = 1.0
            d = -apply_p(g)
        try:
            t, f_new, g_new, x_new = _Wolfe(fun_grad, x, f, g, d, feasible).run()
        except LineSearchError as exc:
            boundary = boundary or exc.feasibility_blocked
            if not s_list:
                return OptResult(x, f, g, it, False, energies, str(exc), boundary)
            # retry once along the preconditioned steepest descent
            s_list.clear(); y_list.clear(); rho.clear()
            gamma = 1.0
            d = -apply_p(g)
            try:
                t, f_new, g_new, x_new = _Wolfe(fun_grad, x, f, g, d, feasible).run()
            except LineSearchError as exc2:
                boundary = boundary or exc2.feasibility_blocked
                return OptResult(x, f, g, it, False, energies, str(exc2), boundary)
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho.append(1.0 / sy)
            py = apply_p(y)
            gamma = sy / max(float(np.dot(y, py)), 1e-300)
            if len(s_list) > _HISTORY:
                s_list.pop(0); y_list.pop(0); rho.pop(0)
        x, f, g = x_new, f_new, g_new
        energies.append(f)
    converged = float(np.max(np.abs(g))) <= tol_inf
    return OptResult(x, f, g, it, converged, energies,
                     "" if converged else "iteration budget exhausted", boundary)


def newton_polish(grad: Callable, hess_vec: Callable, x0: np.ndarray, *,
                  precond: Optional[Callable] = None,
                  tol_inf: float = 1e-10,
                  max_iter: int = 60,
                  minres_maxiter: int = 500) -> OptResult:
    """Damped Newton on grad(x) = 0 with MINRES inner solves.

    The merit function is the gradient 2-norm, so the iteration also converges
    to saddle points; ``precond`` must apply an SPD approximate inverse.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = grad(x)
    n = x.size
    merits = [float(np.linalg.norm(g))]
    unconverged = 0
    inner = 0

    def count(xk: np.ndarray) -> None:
        nonlocal inner
        inner += 1

    for it in range(1, max_iter + 1):
        ginf = float(np.max(np.abs(g)))
        if ginf <= tol_inf:
            return OptResult(x, np.nan, g, it - 1, True, merits,
                             "residual tolerance met", minres_unconverged=unconverged,
                             minres_iters=inner)
        H = LinearOperator((n, n), matvec=lambda v: hess_vec(x, v))
        M = LinearOperator((n, n), matvec=precond) if precond is not None else None
        rtol = float(np.clip(merits[-1] * 1e-2, 1e-12, 1e-4))
        delta, status = minres(H, -g, rtol=rtol, maxiter=minres_maxiter, M=M,
                               callback=count)
        if status != 0:
            unconverged += 1
        m0 = merits[-1]
        t = 1.0
        accepted = False
        while t >= 1e-8:
            xt = x + t * delta
            gt = grad(xt)
            if np.all(np.isfinite(gt)) and float(np.linalg.norm(gt)) < (1.0 - 1e-4 * t) * m0:
                x, g = xt, gt
                merits.append(float(np.linalg.norm(g)))
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # steepest-descent fallback on the merit; if even that stalls, stop
            direction = -(precond(g) if precond is not None else g)
            t = 1.0
            while t >= 1e-10:
                xt = x + t * direction
                gt = grad(xt)
                if np.all(np.isfinite(gt)) and float(np.linalg.norm(gt)) < m0:
                    x, g = xt, gt
                    merits.append(float(np.linalg.norm(g)))
                    accepted = True
                    break
                t *= 0.25
            if not accepted:
                return OptResult(x, np.nan, g, it, False, merits,
                                 "newton polish stalled", minres_unconverged=unconverged,
                                 minres_iters=inner)
    ginf = float(np.max(np.abs(g)))
    return OptResult(x, np.nan, g, max_iter, ginf <= tol_inf, merits,
                     "" if ginf <= tol_inf else "newton iteration budget exhausted",
                     minres_unconverged=unconverged, minres_iters=inner)
