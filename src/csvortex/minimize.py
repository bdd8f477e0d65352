"""Descent and critical-point machinery shared by both solvers.

``minimize_lbfgs`` is a limited-memory quasi-Newton loop with a strong-Wolfe
line search.  Its direction comes from the compact form of the inverse
Hessian (Byrd, Nocedal and Schnabel 1994): two single-precision sweeps of
one fixed float32 buffer of kept pairs, each row under its own power of two,
one inverse of a small k×k triangle in float64, and one application of the
preconditioner per iteration.  Accepted energies are non-increasing up to
ε_k, 64 ulps of the energy at the step's start, and they decrease strictly
wherever the decrease is resolvable: once the predicted decrease of a step
falls below ε_k, the line search accepts on the ε-approximate Wolfe
conditions of Hager and Zhang (2005) instead, f(t) <= f(0) + ε_k and the
slope test, so a search at the energy's round-off does not halve down to a
collapsed interval.  A state outside the problem's domain costs +inf, with a
non-finite gradient: the line search rejects such a trial and halves the
step, and ``newton_polish`` rejects it by the same rule.  That is how the
constrained torus problem keeps its iterates in the admissible set.

``newton_polish`` drives the gradient to a tight max-norm tolerance with a
damped Newton iteration whose linear systems are solved by ``minres``, the
preconditioned MINRES recurrence of Paige and Saunders (1975) on plain
callables; the Hessian may be indefinite, so the same routine refines both
minima and mountain-pass saddle points.  ``minres`` stops on the
preconditioned residual the recurrence holds, ‖r‖_P <= rtol·‖b‖_P, so each
inner solve delivers the reduction it was asked for, and each is sized to the
tolerance still to be met, never tighter than the outer step needs
(Eisenstat and Walker 1996): a step that starts within a few times the
tolerance is asked for the reduction that meets it with a margin of two.
Inner solves that stop short of their tolerance, or break down, are still
tried as steps, kept if the merit falls, and counted in
``OptResult.minres_unconverged``; on a singular, incompatible
system ``minres`` returns a least-squares iterate with its own status, whose
step is tried once.  ``OptResult.minres_iters`` counts the inner MINRES
iterations, and ``OptResult.evals`` the L-BFGS evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import NonConvergenceError


_HISTORY = 12  # L-BFGS correction pairs kept
# newton_polish's MINRES forcing term: the largest of the progress term
# min(_FORCING_GAIN·‖g‖₂, _RTOL_MAX), the over-solving safeguard
# min(_FORCING_TARGET·tol_inf/‖g‖∞, _FORCING_TARGET) and _RTOL_MIN
_FORCING_GAIN, _FORCING_TARGET = 1e-2, 0.5
_RTOL_MIN, _RTOL_MAX = 1e-12, 1e-2
_MINRES_MAXITER = 500  # iteration cap of each of newton_polish's inner solves
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
MINRES_SINGULAR = -2  # minres's info on a singular, incompatible system
# slots oldest first, one row per position of the ring's head, and the upper
# triangle that R keeps of SᵀY
_ORDER = (np.arange(_HISTORY)[:, None] + np.arange(_HISTORY)) % _HISTORY
_UPPER = np.triu(np.ones((_HISTORY, _HISTORY), bool))


def _times_pow2(v: np.ndarray, e: int, **kwargs) -> np.ndarray:
    """np.ldexp(v, e, **kwargs), by one multiplication where 2^e is a normal
    double: a correctly rounded product by an exact power of two is the same
    number, at about half the cost of ldexp."""
    if -1022 <= e <= 1023:
        return np.multiply(v, math.ldexp(1.0, e), **kwargs)
    return np.ldexp(v, e, **kwargs)


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
    evals: int = 0               # minimize_lbfgs fun_grad evaluations


def _slope(g: np.ndarray, d: np.ndarray) -> float:
    """gᵀd.  One that overflows reads ±inf: the direction is then refused,
    or its trials fail sufficient decrease, unless the next evaluation
    already raises on its non-finite field."""
    with np.errstate(over="ignore"):
        return float(np.dot(g, d))


class _Wolfe:
    """Strong-Wolfe search along a fixed direction; +inf encodes rejection.

    One trial state is held at a time: ``phi`` drops the last trial's x and
    g before it builds the next x, and ``best`` keeps (t, f, g) only.  The
    fallback rebuilds its x as x + t·d, the expression ``phi`` evaluated, so
    it is the trial's x bit for bit.
    """

    c1, c2 = 1e-4, 0.9   # sufficient-decrease and curvature constants
    max_evals = 60

    def __init__(self, fun_grad, x, f0, g0, d):
        self.fun_grad = fun_grad
        self.x, self.f0, self.d = x, f0, d
        self.gd0 = _slope(g0, d)
        self.resolvable = 64.0 * float(np.spacing(abs(f0)))
        self.evals = 0
        self.saw_infeasible = False
        self.best = None    # (t, f, g) with sufficient decrease
        self.xt = self.gt = None  # the last trial's state

    def phi(self, t):
        """(f, gᵀd) at x + t·d; the trial's x and g are left in xt and gt."""
        self.evals += 1
        self.xt = self.gt = None
        self.xt = self.x + t * self.d
        ft, self.gt = self.fun_grad(self.xt)
        if not np.isfinite(ft):
            self.saw_infeasible = True
            self.gt = None
            return np.inf, np.nan
        return ft, _slope(self.gt, self.d)

    def _rejected(self, t, ft, gdt, f_ref):
        """Trial t fails sufficient decrease, or does not improve on f_ref.

        Where the predicted decrease c1·t·|gᵀd| is below ε_k = 64 ulps of |f0|
        the energies cannot resolve it: the trial then passes on Hager and
        Zhang's ε-approximate Wolfe conditions, f(t) <= f0 + ε_k and the slope
        test gᵀ(t)d <= (2c1 - 1)gᵀd, without comparing f against f_ref.  The
        slope carries the decrease there; f(t) <= f0 alone rejects every trial
        once the energy's round-off exceeds the true decrease.
        """
        if -self.c1 * t * self.gd0 < self.resolvable:
            return not (ft <= self.f0 + self.resolvable
                        and gdt <= (2.0 * self.c1 - 1.0) * self.gd0)
        return ft > self.f0 + self.c1 * t * self.gd0 or ft >= f_ref

    def run(self):
        if self.gd0 >= 0:
            raise LineSearchError("search direction is not a descent direction")
        t_prev, f_prev = 0.0, self.f0
        f_lo = self.f0
        t = 1.0
        while self.evals < self.max_evals:
            ft, gdt = self.phi(t)
            if self._rejected(t, ft, gdt, f_prev if t_prev > 0.0 else np.inf):
                return self.zoom(t_prev, f_lo if t_prev > 0.0 else self.f0, t)
            self.best = (t, ft, self.gt)
            if abs(gdt) <= -self.c2 * self.gd0:
                return t, ft, self.gt, self.xt
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
            ft, gdt = self.phi(t)
            if self._rejected(t, ft, gdt, f_lo):
                hi = t
                continue
            self.best = (t, ft, self.gt)
            if abs(gdt) <= -self.c2 * self.gd0:
                return t, ft, self.gt, self.xt
            if gdt * (hi - lo) >= 0:
                hi = lo
            lo, f_lo = t, ft
        return self._fallback("line search interval collapsed")

    def _fallback(self, why):
        # accept the best strict-decrease point if one was found
        if self.best is not None and self.best[1] < self.f0:
            t, ft, gt = self.best
            return t, ft, gt, self.x + t * self.d
        raise LineSearchError(why, feasibility_blocked=self.saw_infeasible)


class _Pairs:
    """The kept correction pairs in the compact form of the inverse Hessian.

    With H0 = γP the L-BFGS inverse Hessian is (Byrd, Nocedal and Schnabel)

        H = γP + [S, γPY] [[R⁻ᵀ(D + γYᵀPY)R⁻¹, -R⁻ᵀ], [-R⁻¹, 0]] [Sᵀ; γYᵀP],

    where R is the upper triangle of SᵀY and D its diagonal.  Slot i holds
    s_i and P y_i as rows 2i and 2i+1 of one (2·_HISTORY, n) float32 buffer,
    filled in order and then overwritten oldest first; SᵀY and YᵀPY are kept
    by slot in float64.  Each row is stored divided by its own power of two
    2^e (``exp``), taken from ‖s‖₂ or max|P y|, so its entries are at most 1:
    no finite pair overflows float32, and none is flushed by another's scale.
    Scaling a problem by a power of two then changes the exponents only.

    A direction sweeps the buffer twice, in single precision: once for Sᵀg
    and (PY)ᵀg, with g cast under the power of two of max|g|, and once for
    the combination of rows that assembles -H g, put back into float64 with
    the exact scales.  The k×k algebra, the diagonal entries s·y and y·P y,
    and γ stay float64.  The column a new pair adds to SᵀY and YᵀPY costs no
    sweep of its own.  Its y is g - g_prev, so s_i·y = s_i·g - s_i·g_prev and
    (P y_i)·y = (P y_i)·g - (P y_i)·g_prev: the difference of the kept
    products at consecutive gradients.  ``push`` computes only the new
    diagonal entries; the next ``direction``, at the gradient g the pair ends
    at, fills in the rest.  Every direction refreshes the kept products of
    all kept pairs, so after ``clear`` none from before it is ever read.
    """

    def __init__(self, n: int):
        self.rows = np.zeros((2 * _HISTORY, n), np.float32)  # s_i, P y_i over 2^exp
        self.exp = np.zeros(2 * _HISTORY, int)
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

    def _store(self, row: int, v: np.ndarray, bound: float) -> None:
        """Row ``row`` := v/2^e in float32, for the exponent e of ``bound`` >= max|v|."""
        self.exp[row] = e = math.frexp(bound)[1]
        _times_pow2(v, -e, out=self.rows[row], casting="same_kind")

    def push(self, s: np.ndarray, y: np.ndarray, sy: float, s_norm: float,
             py: np.ndarray) -> None:
        """Keep the pair (s, y) with s·y and ‖s‖₂ already known, given P y."""
        if self.k < _HISTORY:
            slot = self.k
            self.k += 1
        else:
            slot = self.head
            self.head = (self.head + 1) % _HISTORY
        self._store(2 * slot, s, s_norm)
        self._store(2 * slot + 1, py, max(float(py.max()), -float(py.min())))
        self.sy[slot, slot] = sy
        self.ypy[slot, slot] = ypy = float(np.dot(y, py))
        self.gamma = sy / max(ypy, 1e-300)
        self.fresh = slot

    def direction(self, g: np.ndarray, pg: np.ndarray, g_max: float) -> np.ndarray:
        """-H g, given P g and max|g|."""
        d = pg * -self.gamma
        k = self.k
        if k == 0:
            return d
        rows, exp = self.rows[:2 * k], self.exp[:2 * k]
        e_g = math.frexp(g_max)[1]
        g32 = _times_pow2(g, -e_g, out=np.empty(g.size, np.float32), casting="same_kind")
        prod = np.ldexp(rows @ g32, exp + e_g, dtype=float)
        sg, pyg = prod[0::2], prod[1::2]
        if self.fresh is not None:
            # the new slot's column, all but its diagonal (s·y and y·P y from push)
            j = self.fresh
            diag = self.sy[j, j], self.ypy[j, j]
            np.subtract(sg, self.sg[:k], out=self.sy[:k, j])
            self.ypy[j, :k] = np.subtract(pyg, self.pyg[:k], out=self.ypy[:k, j])
            self.sy[j, j], self.ypy[j, j] = diag
            self.fresh = None
        self.sg[:k] = sg
        self.pyg[:k] = pyg
        if self.head == 0:   # slots in chronological order
            order, cols = slice(None), (slice(k), slice(k))
        else:                # the ring has wrapped: k = _HISTORY
            order = _ORDER[self.head]
            cols = np.ix_(order, order)
        # one inverse of R: p = R⁻¹ Sᵀg and q = R⁻ᵀ(D p + γ(YᵀPY p - (PY)ᵀg))
        r = np.where(_UPPER[:k, :k], self.sy[cols], 0.0)
        r_inv = np.linalg.inv(r)
        p = r_inv @ sg[order]
        w = r.diagonal() * p + self.gamma * (self.ypy[cols] @ p - pyg[order])
        coef = np.empty((k, 2))   # weights of the rows (s_i, P y_i), by slot
        coef[order, 0] = -(w @ r_inv)
        coef[order, 1] = p * self.gamma
        coef = np.ldexp(coef.ravel(), exp)
        e_c = math.frexp(float(np.abs(coef).max()))[1]
        c32 = np.ldexp(coef, -e_c, out=np.empty(2 * k, np.float32), casting="same_kind")
        d += _times_pow2(c32 @ rows, e_c, dtype=float)
        return d


def _curvature_pair(s: np.ndarray, y: np.ndarray):
    """(s, y, s·y, ‖s‖₂) if the step passes the curvature test, else None."""
    sy = float(np.dot(s, y))
    s_norm = float(np.linalg.norm(s))
    if sy > 1e-10 * s_norm * float(np.linalg.norm(y)):
        return s, y, sy, s_norm
    return None


def minimize_lbfgs(fun_grad: Callable, x0: np.ndarray, *,
                   precond: Optional[Callable] = None,
                   tol_inf: float = 1e-8,
                   tol_rel: float = 0.0,
                   max_iter: int = 2000) -> OptResult:
    """Preconditioned L-BFGS with Wolfe steps; each accepted energy is at most
    the one before plus 64 ulps of it (see ``_Wolfe._rejected``).

    Converges when the gradient max-norm drops to ``tol_inf``, or to
    ``tol_rel`` times its value at x0, whichever is larger.  ``precond``
    applies a fixed symmetric positive-definite initial inverse Hessian P; it
    is applied once per iteration, to the new gradient, and P y comes from
    the difference of consecutive preconditioned gradients.  A non-finite
    energy rejects its trial, and a search that then fails sets
    ``boundary_trapped``; ``evals`` counts the calls of ``fun_grad``, the
    start's included.
    """
    apply_p = precond if precond is not None else (lambda v: v.copy())
    evals = 0

    def counted(xt: np.ndarray):
        nonlocal evals
        evals += 1
        return fun_grad(xt)

    def result(*args) -> OptResult:
        return OptResult(*args, evals=evals)

    x = np.asarray(x0, dtype=float).copy()
    del x0  # a start the caller does not hold is freed here
    f, g = counted(x)
    tol_inf = max(tol_inf, tol_rel * float(np.max(np.abs(g))))
    energies = [f]
    pairs = _Pairs(x.size)
    pg = None       # P g at the current iterate
    pending = None  # (s, y) of the last step, kept once P y is known
    boundary = False
    it = 0
    for it in range(1, max_iter + 1):
        g_max = float(np.max(np.abs(g)))
        if g_max <= tol_inf:
            return result(x, f, g, it - 1, True, energies,
                          "gradient tolerance met", boundary)
        pg_new = apply_p(g)
        if pending is not None:
            pairs.push(*pending, pg_new - pg)
            pending = None
        pg = pg_new
        d = pairs.direction(g, pg, g_max)
        if _slope(g, d) >= 0:
            pairs.clear()
            d = -pg
        try:
            t, f_new, g_new, x_new = _Wolfe(counted, x, f, g, d).run()
        except LineSearchError as exc:
            boundary = boundary or exc.feasibility_blocked
            if pairs.k == 0:
                return result(x, f, g, it, False, energies, str(exc), boundary)
            # retry once along the preconditioned steepest descent
            pairs.clear()
            try:
                t, f_new, g_new, x_new = _Wolfe(counted, x, f, g, -pg).run()
            except LineSearchError as exc2:
                boundary = boundary or exc2.feasibility_blocked
                return result(x, f, g, it, False, energies, str(exc2), boundary)
        pending = _curvature_pair(x_new - x, g_new - g)
        x, f, g = x_new, f_new, g_new
        energies.append(f)
    converged = float(np.max(np.abs(g))) <= tol_inf
    return result(x, f, g, it, converged, energies,
                  "" if converged else "iteration budget exhausted", boundary)


def minres(A: Callable, b: np.ndarray, *, rtol: float, maxiter: int,
           M: Optional[Callable] = None,
           callback: Optional[Callable] = None):
    """Preconditioned MINRES (Paige and Saunders 1975) for A x = b from x = 0.

    A is symmetric, possibly indefinite or singular; M applies an SPD
    preconditioner P (the identity if None).  Both are plain callables whose
    results the recurrence updates in place; a result that is the callable's
    own input array (``lambda v: v``) is copied first, so neither b nor a
    Lanczos vector is overwritten.  Its own vectors (x, two search
    directions, one scratch) are allocated once per solve.  ``callback(x)``
    runs once per iteration.  Returns (x, info):

    - info 0: the preconditioned residual φ̄ = ‖b - A x‖_P, which the
      recurrence holds, fell to rtol·‖b‖_P; or, for a nearly singular A, the
      least-squares test ‖A r‖/(‖A‖‖r‖) <= rtol passed, ‖A‖ estimated by the
      Frobenius norm of the Lanczos tridiagonal T_k; or b = 0, and x = 0.
    - info ``maxiter``: the cap bit first.
    - info -1: breakdown, x the last finite iterate.  bᵀPb or a Lanczos β²
      was negative or not finite: P is not SPD, or A returned non-finite
      values.  A zero β² is not a breakdown: the Krylov space is invariant,
      φ̄ falls to zero and x is exact.
    - info ``MINRES_SINGULAR``: A is singular and b is not in its range.
      ‖A r‖/(‖A‖‖r‖) fell to √ε while ‖r‖_P stays above rtol·‖b‖_P: x is
      a least-squares solution to round-off.  The next step, whose pivot
      is then at round-off too, would run along a null direction of A with
      a length of order 1/ε; without this exit an exactly singular,
      incompatible system returned such a step (about 1e15) with info 0.
      The test runs before that step and returns the iterate it certifies.
      A nonsingular A takes this exit only if its condition number exceeds
      1/√ε.

    T_k holds the Lanczos coefficients alone, not ‖b‖_P, so every test is
    invariant under a scaling of b: minres(A, s·b) is s·minres(A, b), bit
    for bit when s is a power of two and nothing overflows or underflows.
    """
    def fresh(op: Callable, v: np.ndarray) -> np.ndarray:
        y = op(v)
        return y.copy() if y is v else y

    apply_m = M if M is not None else np.copy
    n = b.size
    x = np.zeros(n)
    y = fresh(apply_m, b)
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
        y = fresh(A, v)
        if itn > 1:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = float(np.dot(v, y))
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        y = fresh(apply_m, r2)
        oldb = beta
        beta2 = float(np.dot(r2, y))
        if not 0.0 <= beta2 < math.inf:
            return x, -1
        beta = math.sqrt(beta2)
        # ‖T_k‖_F²: β_1 = ‖b‖_P starts the recurrence but is no entry of T_k
        tnorm2 += alfa * alfa + beta2 + (oldb * oldb if itn > 1 else 0.0)
        # apply the previous plane rotation, then form the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)        # ‖A r_{k-1}‖/‖r_{k-1}‖
        a_norm = math.sqrt(tnorm2)
        # at round-off the test certifies x_{k-1}, returned without step k:
        # that step's pivot γ >= root, so it would run along a null direction
        if root <= _SQRT_EPS * a_norm:
            if callback is not None:
                callback(x)
            return x, MINRES_SINGULAR
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
        if phibar <= rtol * beta1 or root <= rtol * a_norm:
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
    and Walker 1996).  ``minres`` gets the largest of the progress term
    min(_FORCING_GAIN·‖g‖₂, _RTOL_MAX), which holds a large gradient's solve
    to _RTOL_MAX, the safeguard min(_FORCING_TARGET·tol_inf/‖g‖∞,
    _FORCING_TARGET), the reduction that meets the target with a margin of
    two, and _RTOL_MIN; it stops on ‖r‖_P/‖b‖_P, so that is the reduction
    it delivers.  The safeguard is bounded by _FORCING_TARGET < 1, not by
    _RTOL_MAX, so the step that can finish the solve is not over-solved.
    Each Hessian product is one MINRES iteration, and so is each
    preconditioner application but the one that starts a solve (and the one
    of a steepest-descent fallback).

    Policy for inner solves that miss rtol or break down (counted in
    ``minres_unconverged``): their steps are treated like any other, kept
    when the merit falls by the sufficient-decrease factor, halved when it
    does not.  The least-squares step of a singular system (info
    ``MINRES_SINGULAR``) costs one gradient: it is tried at t = 1 only.  If
    that or the halving fails, or the solve broke down before its first
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
        rtol = max(min(_FORCING_GAIN * merits[-1], _RTOL_MAX),
                   min(_FORCING_TARGET * tol_inf / ginf, _FORCING_TARGET), _RTOL_MIN)
        delta, status = minres(lambda v: hess_vec(x, v), -g, rtol=rtol,
                               maxiter=_MINRES_MAXITER, M=precond, callback=count)
        if status != 0:
            unconverged += 1
        m0 = merits[-1]
        # a least-squares step of a singular system is tried at t = 1 only
        t_min = 1.0 if status == MINRES_SINGULAR else 1e-8
        step = _backtrack(grad, x, delta, m0, 0.5, t_min, 1e-4) if np.any(delta) else None
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


def finish_solve(what: str, lbfgs: OptResult, polish: OptResult, energy: float,
                 grad_inf: float, tol: float, state) -> dict:
    """The end of a solve on either domain: L-BFGS, then the polish from its
    last point, whose result is taken as it is.  A gradient max-norm grad_inf
    at the polished point above tol raises NonConvergenceError carrying state;
    otherwise returns the record keys both domains share, energy being the
    energy at the polished point; ``iterations`` counts both stages and
    ``newton_iterations`` the polish's own steps."""
    iterations = lbfgs.iterations + polish.iterations
    if not grad_inf <= tol:
        raise NonConvergenceError(
            f"{what} stalled at gradient max-norm {grad_inf:.3e} (target {tol:.3e}) "
            f"after {iterations} iterations", state=state, grad_norm=grad_inf)
    return {"energies": list(lbfgs.energies) + [energy], "grad_inf": grad_inf,
            "iterations": iterations, "newton_iterations": polish.iterations,
            "minres_unconverged": polish.minres_unconverged,
            "minres_iters": polish.minres_iters, "lbfgs_evals": lbfgs.evals}
