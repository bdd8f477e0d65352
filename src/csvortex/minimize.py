"""Descent and critical-point machinery shared by both solvers.

``minimize_lbfgs`` is a limited-memory quasi-Newton loop with a strong-Wolfe
line search.  Its direction comes from the compact form of the inverse
Hessian (Byrd, Nocedal and Schnabel 1994): four sweeps of two fixed buffers
of kept pairs, one small triangular solve, and one application of the
preconditioner per iteration.  Accepted energies never
increase, and they decrease strictly wherever the decrease is resolvable:
once the predicted decrease of a step falls below 64 ulps of the energy, the
line search accepts on the approximate-Wolfe slope test of Hager and Zhang
(2005) instead.  A caller may install a feasibility predicate; trial points
outside the feasible set are treated as infinitely costly, which makes the
line search reject them and halve the step — the rejection semantics
required at the admissible-set boundary of the constrained torus problem.

``newton_polish`` drives the gradient to a tight max-norm tolerance with a
damped Newton iteration whose linear systems are solved by ``minres``, the
preconditioned MINRES recurrence of Paige and Saunders (1975) on plain
callables; the Hessian may be indefinite, so the same routine refines both
minima and mountain-pass saddle points.  ``minres`` stops on the
preconditioned residual the recurrence holds, ‖r‖_P <= rtol·‖b‖_P, so each
inner solve delivers the reduction it was asked for, and each is sized to the
tolerance still to be met, never tighter than the outer step needs
(Eisenstat and Walker 1996).  Inner solves that stop short of their
tolerance, or break down, are still tried as steps, kept if the merit falls,
and counted in ``OptResult.minres_unconverged``; ``OptResult.minres_iters``
counts the inner MINRES iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
from scipy.linalg import solve_triangular


_HISTORY = 12  # L-BFGS correction pairs kept
# newton_polish's MINRES forcing term: the larger of _FORCING_GAIN·‖g‖₂ and
# _FORCING_TARGET·tol_inf/‖g‖∞, clipped to [_RTOL_MIN, _RTOL_MAX]
_FORCING_GAIN, _FORCING_TARGET = 1e-2, 0.1
_RTOL_MIN, _RTOL_MAX = 1e-12, 1e-2
_MINRES_MAXITER = 500  # iteration cap of each of newton_polish's inner solves
_EPS = float(np.finfo(float).eps)


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


def _slope(g: np.ndarray, d: np.ndarray) -> float:
    """gᵀd.  One that overflows reads ±inf: the direction is then refused,
    or its trials fail sufficient decrease, unless the next evaluation
    already raises on its non-finite field."""
    with np.errstate(over="ignore"):
        return float(np.dot(g, d))


class _Wolfe:
    """Strong-Wolfe search along a fixed direction; +inf encodes rejection."""

    c1, c2 = 1e-4, 0.9   # sufficient-decrease and curvature constants
    max_evals = 60

    def __init__(self, fun_grad, x, f0, g0, d, feasible):
        self.fun_grad = fun_grad
        self.x, self.f0, self.d = x, f0, d
        self.gd0 = _slope(g0, d)
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
        return ft, gt, _slope(gt, self.d), xt

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

    def run(self):
        if self.gd0 >= 0:
            raise LineSearchError("search direction is not a descent direction")
        t_prev, f_prev = 0.0, self.f0
        f_lo = self.f0
        t = 1.0
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

    A direction sweeps the buffers four times: Sᵀg and (PY)ᵀg, kept by slot,
    and the two products that assemble -H g.  The column a new pair adds to
    SᵀY and YᵀPY costs no sweep of its own.  Its y is g - g_prev, so
    s_i·y = s_i·g - s_i·g_prev and (P y_i)·y = (P y_i)·g - (P y_i)·g_prev: the
    difference of the kept products at consecutive gradients.  ``push``
    computes only the new diagonal entries s·y and y·P y; the next
    ``direction``, at the gradient g the pair ends at, fills in the rest.
    Every direction refreshes the kept products of all kept pairs, so after
    ``clear`` none from before it is ever read.
    """

    def __init__(self, n: int):
        self.s = np.zeros((_HISTORY, n))
        self.py = np.zeros((_HISTORY, n))
        self.sy = np.zeros((_HISTORY, _HISTORY))   # s_i·y_j, by slot
        self.ypy = np.zeros((_HISTORY, _HISTORY))  # y_i·P y_j, by slot
        self.sg = np.zeros(_HISTORY)               # s_i·g at the last direction
        self.pyg = np.zeros(_HISTORY)              # (P y_i)·g at the last direction
        self.clear()

    def clear(self) -> None:
        self.k = 0          # pairs kept
        self.head = 0       # slot of the oldest pair once the buffers are full
        self.gamma = 1.0
        self.fresh = None   # slot whose column waits for the next direction

    def push(self, s: np.ndarray, y: np.ndarray, py: np.ndarray) -> None:
        if self.k < _HISTORY:
            slot = self.k
            self.k += 1
        else:
            slot = self.head
            self.head = (self.head + 1) % _HISTORY
        self.s[slot] = s
        self.py[slot] = py
        self.sy[slot, slot] = sy = float(np.dot(s, y))
        self.ypy[slot, slot] = ypy = float(np.dot(y, py))
        self.gamma = sy / max(ypy, 1e-300)
        self.fresh = slot

    def direction(self, g: np.ndarray, pg: np.ndarray) -> np.ndarray:
        """-H g, given P g."""
        d = pg * -self.gamma
        k = self.k
        if k == 0:
            return d
        sg = self.s[:k] @ g
        pyg = self.py[:k] @ g
        if self.fresh is not None:
            j = self.fresh
            old = np.arange(k) != j
            self.sy[:k, j][old] = sg[old] - self.sg[:k][old]
            self.ypy[:k, j][old] = self.ypy[j, :k][old] = pyg[old] - self.pyg[:k][old]
            self.fresh = None
        self.sg[:k] = sg
        self.pyg[:k] = pyg
        order = (self.head + np.arange(k)) % _HISTORY  # slots, oldest first
        cols = np.ix_(order, order)
        r = np.triu(self.sy[cols])
        a = sg[order]
        b = pyg[order]
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
        if _slope(g, d) >= 0:
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


def minres(A: Callable, b: np.ndarray, *, rtol: float, maxiter: int,
           M: Optional[Callable] = None,
           callback: Optional[Callable] = None):
    """Preconditioned MINRES (Paige and Saunders 1975) for A x = b from x = 0.

    A is symmetric, possibly indefinite or singular; M applies an SPD
    preconditioner P (the identity if None).  Both are plain callables that
    return fresh arrays, which the recurrence then updates in place; its own
    vectors (x, two search directions, one scratch) are allocated once per
    solve.  ``callback(x)`` runs once per iteration.  Returns (x, info):

    - info 0: the preconditioned residual φ̄ = ‖b - A x‖_P, which the
      recurrence holds, fell to rtol·‖b‖_P; or, for a singular A, the
      least-squares test ‖A r‖/(‖A‖‖r‖) <= rtol passed, ‖A‖ estimated from
      the Lanczos tridiagonal; or b = 0, and x = 0.
    - info ``maxiter``: the cap bit first.
    - info -1: breakdown, x the last finite iterate.  bᵀPb or a Lanczos β²
      was negative or not finite: P is not SPD, or A returned non-finite
      values.  A zero β² is not a breakdown: the Krylov space is invariant,
      φ̄ falls to zero and x is exact.
    """
    apply_m = M if M is not None else np.copy
    n = b.size
    x = np.zeros(n)
    y = apply_m(b)
    beta1 = float(np.dot(b, y))
    if not 0.0 < beta1 < math.inf:
        return x, 0 if beta1 == 0.0 else -1
    beta1 = math.sqrt(beta1)
    r1 = r2 = b          # read only: the Lanczos vectors A and M hand back replace them
    w_old, w, tmp = np.zeros(n), np.zeros(n), np.empty(n)
    oldb, beta, tnorm2 = 0.0, beta1, 0.0
    dbar = epsln = sn = 0.0
    cs, phibar = -1.0, beta1
    for itn in range(1, maxiter + 1):
        v = y
        v *= 1.0 / beta
        y = A(v)
        if itn > 1:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = float(np.dot(v, y))
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        y = apply_m(r2)
        oldb = beta
        beta2 = float(np.dot(r2, y))
        if not 0.0 <= beta2 < math.inf:
            return x, -1
        beta = math.sqrt(beta2)
        tnorm2 += alfa * alfa + oldb * oldb + beta2
        # apply the previous plane rotation, then form the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)        # ‖A r_{k-1}‖/‖r_{k-1}‖
        gamma = max(math.hypot(gbar, beta), _EPS)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar *= sn
        # w_k = (v - ε w_{k-2} - δ w_{k-1})/γ, formed in w_{k-2}'s buffer
        w_old *= -oldeps
        w_old += v
        w_old -= np.multiply(w, delta, out=tmp)
        w_old *= 1.0 / gamma
        w_old, w = w, w_old
        x += np.multiply(w, phi, out=tmp)
        if callback is not None:
            callback(x)
        if phibar <= rtol * beta1 or root <= rtol * math.sqrt(tnorm2):
            return x, 0
    return x, maxiter


def _backtrack(grad: Callable, x: np.ndarray, d: np.ndarray, m0: float,
               shrink: float, t_min: float, c: float):
    """The first step t = 1, shrink, shrink², ... (down to t_min) along d at
    which the gradient is finite and its 2-norm is below (1 - c·t)·m0;
    (x + t d, grad there), or None if there is none."""
    t = 1.0
    while t >= t_min:
        xt = x + t * d
        gt = grad(xt)
        if np.all(np.isfinite(gt)) and float(np.linalg.norm(gt)) < (1.0 - c * t) * m0:
            return xt, gt
        t *= shrink
    return None


def newton_polish(grad: Callable, hess_vec: Callable, x0: np.ndarray, *,
                  g0: Optional[np.ndarray] = None,
                  precond: Optional[Callable] = None,
                  tol_inf: float = 1e-10,
                  max_iter: int = 60) -> OptResult:
    """Damped Newton on grad(x) = 0 with MINRES inner solves.

    The merit function is the gradient 2-norm, so the iteration also converges
    to saddle points; ``precond`` must apply an SPD approximate inverse.
    ``g0``, if given, is grad(x0), which the caller already holds.

    Each inner solve is only as accurate as the outer step needs (Eisenstat
    and Walker 1996).  ``minres`` gets the larger of _FORCING_GAIN·‖g‖₂, for
    fast local convergence, and _FORCING_TARGET·tol_inf/‖g‖∞, the reduction
    that meets the target with a margin of ten; it stops on ‖r‖_P/‖b‖_P, so
    that is the reduction it delivers.  Each Hessian product is one MINRES
    iteration, and so is each preconditioner application but the one that
    starts a solve (and the one of a steepest-descent fallback).

    Policy for inner solves that miss rtol or break down (counted in
    ``minres_unconverged``): their steps are treated like any other, kept
    when the merit falls by the sufficient-decrease factor, halved when it
    does not.  If halving fails, or the solve broke down before its first
    step, a preconditioned steepest-descent step is tried, and if that fails
    the polish stops unconverged.  Every accepted merit is below the one
    before.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = grad(x) if g0 is None else g0
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
        target = _FORCING_TARGET * tol_inf / ginf
        rtol = float(np.clip(max(_FORCING_GAIN * merits[-1], target), _RTOL_MIN, _RTOL_MAX))
        delta, status = minres(lambda v: hess_vec(x, v), -g, rtol=rtol,
                               maxiter=_MINRES_MAXITER, M=precond, callback=count)
        if status != 0:
            unconverged += 1
        m0 = merits[-1]
        step = _backtrack(grad, x, delta, m0, 0.5, 1e-8, 1e-4) if np.any(delta) else None
        if step is None:
            # steepest-descent fallback on the merit; if even that stalls, stop
            step = _backtrack(grad, x, -(precond(g) if precond is not None else g),
                              m0, 0.25, 1e-10, 0.0)
        if step is None:
            return OptResult(x, np.nan, g, it, False, merits,
                             "newton polish stalled", minres_unconverged=unconverged,
                             minres_iters=inner)
        x, g = step
        merits.append(float(np.linalg.norm(g)))
    ginf = float(np.max(np.abs(g)))
    return OptResult(x, np.nan, g, max_iter, ginf <= tol_inf, merits,
                     "" if ginf <= tol_inf else "newton iteration budget exhausted",
                     minres_unconverged=unconverged, minres_iters=inner)
