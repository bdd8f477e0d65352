"""Descent and critical-point machinery shared by both solvers.

``minimize_lbfgs`` is a limited-memory quasi-Newton loop with a strong-Wolfe
line search.  Its direction comes from the compact form of the inverse
Hessian (Byrd, Nocedal and Schnabel 1994): matrix-vector products with two
fixed buffers of kept pairs and one small triangular solve, and one
application of the preconditioner per iteration.  Accepted energies never
increase, and they decrease strictly wherever the decrease is resolvable:
once the predicted decrease of a step falls below 64 ulps of the energy, the
line search accepts on the approximate-Wolfe slope test of Hager and Zhang
(2005) instead.  A caller may install a feasibility predicate; trial points
outside the feasible set are treated as infinitely costly, which makes the
line search reject them and halve the step — the rejection semantics
required at the admissible-set boundary of the constrained torus problem.

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
from scipy.linalg import solve_triangular
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
        self.resolvable = 64.0 * float(np.spacing(abs(f0)))
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

    def _rejected(self, t, ft, gdt, f_ref):
        """Trial t fails sufficient decrease, or does not improve on f_ref.

        Where the predicted decrease c1·t·|gᵀd| is below 64 ulps of |f0| the
        energies cannot resolve it: the trial then passes on f(t) <= f0 and
        the approximate-Wolfe slope test gᵀ(t)d <= (2c1 - 1)gᵀd (Hager and
        Zhang), without comparing f against f_ref.
        """
        if -self.c1 * t * self.gd0 < self.resolvable:
            return not (ft <= self.f0 and gdt <= (2.0 * self.c1 - 1.0) * self.gd0)
        return ft > self.f0 + self.c1 * t * self.gd0 or ft >= f_ref

    def run(self, t0=1.0):
        if self.gd0 >= 0:
            raise LineSearchError("search direction is not a descent direction")
        t_prev, f_prev = 0.0, self.f0
        f_lo = self.f0
        t = t0
        while self.evals < self.max_evals:
            ft, gt, gdt, xt = self.phi(t)
            if self._rejected(t, ft, gdt, f_prev if t_prev > 0.0 else np.inf):
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
            if self._rejected(t, ft, gdt, f_lo):
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


class _Pairs:
    """The kept correction pairs in the compact form of the inverse Hessian.

    With H0 = γP the L-BFGS inverse Hessian is (Byrd, Nocedal and Schnabel)

        H = γP + [S, γPY] [[R⁻ᵀ(D + γYᵀPY)R⁻¹, -R⁻ᵀ], [-R⁻¹, 0]] [Sᵀ; γYᵀP],

    where R is the upper triangle of SᵀY and D its diagonal.  The pairs live
    in two fixed (_HISTORY, n) buffers, S and PY = P·Y, filled in order and
    then overwritten oldest first; SᵀY and YᵀPY are kept by buffer slot.
    """

    def __init__(self, n: int):
        self.s = np.zeros((_HISTORY, n))
        self.py = np.zeros((_HISTORY, n))
        self.sy = np.zeros((_HISTORY, _HISTORY))   # s_i·y_j, by slot
        self.ypy = np.zeros((_HISTORY, _HISTORY))  # y_i·P y_j, by slot
        self.clear()

    def clear(self) -> None:
        self.k = 0      # pairs kept
        self.head = 0   # slot of the oldest pair once the buffers are full
        self.gamma = 1.0

    def push(self, s: np.ndarray, y: np.ndarray, py: np.ndarray) -> None:
        if self.k < _HISTORY:
            slot = self.k
            self.k += 1
        else:
            slot = self.head
            self.head = (self.head + 1) % _HISTORY
        k = self.k
        self.s[slot] = s
        self.py[slot] = py
        self.sy[:k, slot] = self.s[:k] @ y
        self.ypy[:k, slot] = self.ypy[slot, :k] = self.py[:k] @ y
        self.gamma = float(self.sy[slot, slot]) / max(float(self.ypy[slot, slot]), 1e-300)

    def direction(self, g: np.ndarray, pg: np.ndarray) -> np.ndarray:
        """-H g, given P g."""
        d = pg * -self.gamma
        k = self.k
        if k == 0:
            return d
        order = (self.head + np.arange(k)) % _HISTORY  # slots, oldest first
        cols = np.ix_(order, order)
        r = np.triu(self.sy[cols])
        a = (self.s[:k] @ g)[order]
        b = (self.py[:k] @ g)[order]
        p = solve_triangular(r, a)
        w = np.diag(r) * p + self.gamma * (self.ypy[cols] @ p - b)
        q = solve_triangular(r, w, trans="T")
        qs = np.empty(k)
        qs[order] = q
        ps = np.empty(k)
        ps[order] = p * self.gamma
        d -= qs @ self.s[:k]
        d += ps @ self.py[:k]
        return d


def _curvature_pair(s: np.ndarray, y: np.ndarray):
    """(s, y) if the step passes the curvature test, else None."""
    if float(np.dot(s, y)) > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
        return s, y
    return None


def minimize_lbfgs(fun_grad: Callable, x0: np.ndarray, *,
                   precond: Optional[Callable] = None,
                   feasible: Optional[Callable] = None,
                   tol_inf: float = 1e-8,
                   max_iter: int = 2000) -> OptResult:
    """Preconditioned L-BFGS with Wolfe steps; energies never increase.

    Converges when the gradient max-norm drops to ``tol_inf``.  ``precond``
    applies a fixed symmetric positive-definite initial inverse Hessian P; it
    is applied once per iteration, to the new gradient, and P y comes from
    the difference of consecutive preconditioned gradients.
    """
    apply_p = precond if precond is not None else (lambda v: v.copy())
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    energies = [f]
    pairs = _Pairs(x.size)
    pg = None       # P g at the current iterate
    pending = None  # (s, y) of the last step, kept once P y is known
    boundary = False
    it = 0
    for it in range(1, max_iter + 1):
        if float(np.max(np.abs(g))) <= tol_inf:
            return OptResult(x, f, g, it - 1, True, energies,
                             "gradient tolerance met", boundary)
        pg_new = apply_p(g)
        if pending is not None:
            pairs.push(*pending, pg_new - pg)
            pending = None
        pg = pg_new
        d = pairs.direction(g, pg)
        if float(np.dot(g, d)) >= 0:
            pairs.clear()
            d = -pg
        try:
            t, f_new, g_new, x_new = _Wolfe(fun_grad, x, f, g, d, feasible).run()
        except LineSearchError as exc:
            boundary = boundary or exc.feasibility_blocked
            if pairs.k == 0:
                return OptResult(x, f, g, it, False, energies, str(exc), boundary)
            # retry once along the preconditioned steepest descent
            pairs.clear()
            try:
                t, f_new, g_new, x_new = _Wolfe(fun_grad, x, f, g, -pg,
                                                feasible).run()
            except LineSearchError as exc2:
                boundary = boundary or exc2.feasibility_blocked
                return OptResult(x, f, g, it, False, energies, str(exc2), boundary)
        pending = _curvature_pair(x_new - x, g_new - g)
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
