"""Doubly periodic single-species solver: constrained minimization plus a
mountain-pass second solution.

Working variables: the substitution U = u0/2 + (u+v)/2, V = u0/2 + (u-v)/2
turns the original pair (U, V) into smooth unknowns (u, v), decomposed into
mean-zero parts and constants, u = u' + c1, v = v' + c2.  On the admissible
set (two integral inequalities, each the discriminant of its quadratic at
zero coupling) the constants solve a pair of quadratic constraint equations,
each branch of which has a unique consistent root, found here by safeguarded
Newton inside a sign-change bracket; _CMaps holds this algebra for one
mean-zero state.  Both solutions are minima of a reduced functional, the
constants eliminated through one branch, and are found by one solve
(_branch_solve: L-BFGS, then a Newton/MINRES polish on the Schur Hessian,
whose 2x2 block in the constants is the integrals of the pointwise Hessian
coefficients).  The first solution minimizes J, with the upper roots, over
the admissible set, from the vacuum lift (u', v') = (-u0, 0), which lies
inside that set whenever the set is nonempty.  The second is a mountain-pass
saddle of the full functional I: eliminating the constants through the
saddle branch (lower root of the first quadratic) turns it into a plain
minimum, reached from the barrier point -- the first solution's mean-zero
part with the saddle-branch constants.  Both solves are preconditioned by a
frozen-coefficient inverse Hessian, 2x2 per Fourier mode: frozen at the
vacuum for the first, at the barrier point for the second.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.fft import irfftn, rfftn

from .background import BackgroundTorus, VortexSet, torus_background, vortex_node_mask
from .errors import (
    AdmissibilityError,
    BoundaryTrappingError,
    ConfigError,
    InfeasibleError,
    MountainPassCollapseError,
    NonConvergenceError,
)
# bench/spans.py traces the kernels through the names bound here, including
# laplacian_values, which the solver no longer calls
from .fields import (  # noqa: F401
    EXP_CLAMP,
    GridDomain,
    _k2,
    _k2_weighted,
    dirichlet_inner_values,
    exp_clip,
    integrate_values,
    laplacian_values,
)
from .minimize import minimize_lbfgs, newton_polish
from .model import ModelParams

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# scalar structure: gamma, feasibility, constraint coefficients
# ---------------------------------------------------------------------------


def gamma(params: ModelParams) -> float:
    """Coupling asymmetry (beta - alpha)/(beta + alpha), in (0, 1)."""
    if not params.beta > params.alpha > 0:
        raise ConfigError("gamma requires beta > alpha > 0")
    return (params.beta - params.alpha) / (params.beta + params.alpha)


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    margin: float  # alpha*beta*|Omega| - 8*pi*n, either sign


def feasibility(params: ModelParams, n: int, area: float) -> Feasibility:
    """Necessary existence condition alpha*beta*|Omega| >= 8*pi*n."""
    if n < 0 or area <= 0:
        raise ConfigError("need n >= 0 and a positive cell area")
    margin = params.alpha * params.beta * area - 8.0 * math.pi * n
    return Feasibility(margin >= 0.0, margin)


@dataclass(frozen=True)
class StateIntegrals:
    """The five quadratures the constraint algebra is built from."""

    e1: float  # ∫ e^{2u0+2u'}
    e2: float  # ∫ e^{2v'}
    j1: float  # ∫ e^{u0+u'}
    j2: float  # ∫ e^{v'}
    g: float   # ∫ e^{u0+u'+v'}


def state_integrals(u_prime: np.ndarray, v_prime: np.ndarray,
                    bg: BackgroundTorus) -> StateIntegrals:
    dom = bg.domain
    eu = exp_clip(bg.u0 + u_prime)
    ev = exp_clip(v_prime)
    return StateIntegrals(
        e1=integrate_values(eu * eu, dom),
        e2=integrate_values(ev * ev, dom),
        j1=integrate_values(eu, dom),
        j2=integrate_values(ev, dom),
        g=integrate_values(eu * ev, dom),
    )


# ---------------------------------------------------------------------------
# the constraint algebra of one mean-zero state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CSolve:
    c1: float
    c2: float
    root: float          # X0 = e^{c1}
    residual_1: float    # relative residual of the first constraint quadratic
    residual_2: float
    iterations: int


class _CMaps:
    """The constraint algebra of one mean-zero state (u', v').

    With X1 = e^{c1}, X2 = e^{c2} and the integrals s of state_integrals, the
    constraints are the quadratics e1 X1² - q1(X2) X1 + 2πn/(αβ) = 0 and
    e2 X2² - q2(X1) X2 + 2γπn/(αβ) = 0, where q1 = (1-γ) j1 + γ g X2 and
    q2 = (1-γ) j2 + γ g X1; their discriminants are q1² - d1 and q2² - d2.
    g2 is always the upper root of the second quadratic; g1 takes the upper
    (sign +1) or lower (sign -1) root of the first.  The lower root is formed
    as d/(2e(q + √(q² - d))), the product of the roots over the upper one,
    so it does not cancel.

    margins are the two admissibility margins (>= 0 inside the admissible
    set).  margin_k (1-γ)² = q_k(0)² - d_k: each is the discriminant of its
    quadratic at zero coupling, and q_k only grows with the other root, so
    nonnegative margins keep both quadratics solvable on either branch.
    """

    def __init__(self, u_prime: np.ndarray, v_prime: np.ndarray,
                 bg: BackgroundTorus, params: ModelParams):
        s = self.s = state_integrals(u_prime, v_prime, bg)
        gam = self.gam = gamma(params)
        ab = self.ab = params.alpha * params.beta
        n = self.n = bg.n
        self.d1 = 8.0 * math.pi * n / ab * s.e1
        self.d2 = 8.0 * gam * math.pi * n / ab * s.e2
        thr = 8.0 * math.pi * n / ((1.0 - gam) ** 2 * ab)
        self.margins = (s.j1**2 - thr * s.e1, s.j2**2 - gam * thr * s.e2)

    def require_admissible(self) -> None:
        """Raise AdmissibilityError naming the first violated inequality."""
        m1, m2 = self.margins
        if not (m1 >= 0.0 and m2 >= 0.0):
            which = "first" if m1 < 0 else "second"
            raise AdmissibilityError(
                f"state violates the {which} admissibility inequality "
                f"(margins {m1:.3e}, {m2:.3e})", constraint=which)

    def solve(self, saddle: bool, newton: bool = True) -> CSolve:
        """The branch root (_solve_c_branch) and the relative residuals of
        both quadratics there; AdmissibilityError outside the admissible set."""
        self.require_admissible()
        c1, c2, x1, it = _solve_c_branch(self, saddle, newton)
        x2 = math.exp(c2)
        s = self.s
        t1 = (x1 * x1 * s.e1, -x1 * self.q1(x2), 2.0 * math.pi * self.n / self.ab)
        t2 = (x2 * x2 * s.e2, -x2 * self.q2(x1),
              2.0 * self.gam * math.pi * self.n / self.ab)
        r1 = abs(sum(t1)) / max(max(abs(v) for v in t1), 1e-300)
        r2 = abs(sum(t2)) / max(max(abs(v) for v in t2), 1e-300)
        return CSolve(c1, c2, x1, r1, r2, it)

    @staticmethod
    def _sqrt_disc(q: float, d: float) -> float:
        disc = q * q - d
        if disc < 0.0:
            if disc < -1e-10 * q * q:
                raise AdmissibilityError(
                    "constraint discriminant went negative mid-iteration",
                    constraint="discriminant")
            disc = 0.0
        return math.sqrt(disc)

    @staticmethod
    def _root(q: float, r: float, d: float, e: float, sign: float) -> float:
        """Root of e X² - q X + d/(4e) with r = √(q² - d): upper or lower."""
        if sign > 0.0:
            return (q + r) / (2.0 * e)
        return d / (2.0 * e * (q + r))

    def _branch(self, q: float, d: float, e: float, sign: float) -> float:
        return self._root(q, self._sqrt_disc(q, d), d, e, sign)

    def q1(self, x2: float) -> float:
        return (1.0 - self.gam) * self.s.j1 + self.gam * x2 * self.s.g

    def q2(self, x1: float) -> float:
        return (1.0 - self.gam) * self.s.j2 + self.gam * x1 * self.s.g

    def g1(self, x2: float, sign: float = 1.0) -> float:
        return self._branch(self.q1(x2), self.d1, self.s.e1, sign)

    def g2(self, x1: float, sign: float = 1.0) -> float:
        return self._branch(self.q2(x1), self.d2, self.s.e2, sign)

    def f(self, x: float, sign: float = 1.0) -> float:
        return x - self.g1(self.g2(x), sign)

    def f_df(self, x: float, sign: float = 1.0) -> Tuple[float, float]:
        """F(X) = X - g1(g2(X)) on the given g1 branch, and F'(X).

        F' = 1 - sign * (γ g X2 / √(q2² - d2)) * (γ g g1 / √(q1² - d1)),
        positive on both branches; 0 is returned where a discriminant
        vanishes and the derivative is unbounded.
        """
        q2 = self.q2(x)
        r2 = self._sqrt_disc(q2, self.d2)
        x2 = self._root(q2, r2, self.d2, self.s.e2, 1.0)
        q1 = self.q1(x2)
        r1 = self._sqrt_disc(q1, self.d1)
        x1 = self._root(q1, r1, self.d1, self.s.e1, sign)
        if r1 > 0.0 and r2 > 0.0:
            gg = self.gam * self.s.g
            dfx = 1.0 - sign * (gg * x2 / r2) * (gg * x1 / r1)
        else:
            dfx = 0.0
        return x - x1, dfx

    def bracket(self, saddle: bool) -> Tuple[float, float]:
        """Closed-form [lo, hi] with F(lo) <= 0 <= F(hi) on the given branch.

        Upper branch: g1 >= q1/(2 e1) >= (1-γ) j1/(2 e1) = lo, and
        g1(g2(X)) <= A + B X with A = (1-γ)(j1 + γ g j2/e2)/e1 and
        B = γ² g²/(e1 e2) <= γ² < 1 (Cauchy-Schwarz), so F >= 0 from A/(1-B)
        on; hi = 2A/(1-B), because without vortices the root is A/(1-B).
        Saddle branch: q1 >= (1-γ) j1 > 0, so the lower root
        d1/(2 e1 (q1 + r1)) never exceeds hi = d1/(2 e1 (1-γ) j1).
        """
        s, gam = self.s, self.gam
        if saddle:
            if self.n == 0 or self.d1 <= 0.0:
                raise AdmissibilityError(
                    "the saddle branch needs a positive vortex number")
            lo, hi = 1e-300, self.d1 / (2.0 * s.e1 * (1.0 - gam) * s.j1)
        else:
            a = (1.0 - gam) * (s.j1 + gam * s.g * s.j2 / s.e2) / s.e1
            b = gam * gam * s.g * s.g / (s.e1 * s.e2)
            lo, hi = 0.5 * (1.0 - gam) * s.j1 / s.e1, 2.0 * a / (1.0 - b)
        if self.f(hi, -1.0 if saddle else 1.0) < 0.0:
            raise AdmissibilityError("constraint root not bracketed")
        return lo, hi


def _solve_c_branch(maps: _CMaps, saddle: bool,
                    newton: bool = True) -> Tuple[float, float, float, int]:
    """Root of the branch fixed-point equation; returns (c1, c2, X0, iters).

    saddle=False: X = g1(g2(X)) with both upper roots (the constrained
    minimizer's constants; F(X)/X strictly increasing makes the root unique).
    saddle=True: lower root for the first constraint, upper for the second --
    the index-1 combination whose c1-curvature is negative.  Both brackets
    are closed-form (_CMaps.bracket).

    Safeguarded Newton runs inside the bracket: every evaluation shrinks it,
    and a step that leaves it is replaced by the bisection midpoint.  The
    loop stops when the step or the bracket is within 4 ulp of X.
    newton=False bisects only (the cross-check of the Newton root).
    """
    sign1 = -1.0 if saddle else 1.0
    lo, hi = maps.bracket(saddle)
    it = 0
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx, dfx = maps.f_df(x, sign1)
        it += 1
        if fx == 0.0:
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
        x_new = 0.5 * (lo + hi)
        if newton and dfx > 0.0 and lo < x - fx / dfx < hi:
            x_new = x - fx / dfx
        done = abs(x_new - x) <= 4.0 * _EPS * x_new or hi - lo <= 4.0 * _EPS * hi
        x = x_new
        if done:
            break
    return math.log(x), math.log(maps.g2(x)), x, it


def admissibility_margins(u_prime: np.ndarray, v_prime: np.ndarray,
                          bg: BackgroundTorus, params: ModelParams) -> Tuple[float, float]:
    """Left-minus-right of the two admissibility inequalities (>= 0 inside)."""
    return _CMaps(u_prime, v_prime, bg, params).margins


# ---------------------------------------------------------------------------
# the functional, its gradient, Hessian action and preconditioner
# ---------------------------------------------------------------------------


# Eigenvalue magnitudes of a preconditioner symbol are floored at this fraction
# of the largest one, so a mode whose eigenvalue crosses zero stays bounded.
_SYMBOL_FLOOR = 1e-8


class TorusOperator:
    """Discrete functional I on full fields (u, v) = (u'+c1, v'+c2).

    Every evaluation transforms the pair (u, v) once, in one batched real
    FFT: the Dirichlet energy and the stiffness terms -aΔu - bΔv, -bΔu - aΔv
    are both read off (û, v̂), and the stiffness terms come back in one
    inverse real FFT.  The fields are real, so the spectra are the half rfftn
    keeps, (2, n1, n2/2 + 1), and every symbol lives on that half; the
    Dirichlet energy sums it with the Hermitian weights of fields._k2_weighted.

    The preconditioner is a frozen-coefficient inverse Hessian, a symmetric
    2x2 symbol per Fourier mode (see _inverse_symbol).  It starts at the
    vacuum P = R = 1, where it is the exact inverse Hessian; precondition_at
    refreezes it at the mean coefficients of a given state.
    """

    def __init__(self, bg: BackgroundTorus, params: ModelParams):
        params.require_torus_mode()
        self.bg = bg
        self.params = params
        self.domain = bg.domain
        p = params
        self.a = 0.5 * (1.0 / p.alpha + 1.0 / p.beta)
        self.b = 0.5 * (1.0 / p.alpha - 1.0 / p.beta)
        self.source = 4.0 * math.pi * bg.n / self.domain.area
        self.clamp_hit = False
        # Fourier symbols [[s11, s12], [s12, s22]] acting on (û, v̂): the
        # stiffness terms, and the preconditioner, frozen at the vacuum Hessian
        # coefficients (h_uu, h_uv, h_vv) = (2(α+β), 2(α-β), 2(α+β))
        k2 = _k2(self.domain)
        self._k2w = _k2_weighted(self.domain)
        self._stiff = (self.a * k2, self.b * k2, self.a * k2)
        self._vacuum = (2.0 * (p.alpha + p.beta), 2.0 * (p.alpha - p.beta),
                        2.0 * (p.alpha + p.beta))
        self._precond = self._inverse_symbol(*self._vacuum)

    def _inverse_symbol(self, huu: float, huv: float, hvv: float):
        """|M|^{-1} per Fourier mode, M = [[a k² + huu, b k² + huv], [·, a k² + hvv]].

        M is inverted through the absolute values of its two eigenvalues, so
        the result is SPD even where M is indefinite; the magnitudes are
        floored at _SYMBOL_FLOOR times the largest.  The k = 0 mode takes the
        vacuum coefficients: the reduced problems have no mean mode, and the
        full one is preconditioned there as at the vacuum.
        """
        m11 = self._stiff[0] + huu
        m12 = self._stiff[1] + huv
        m22 = self._stiff[2] + hvv
        m11[0, 0], m12[0, 0], m22[0, 0] = self._vacuum
        mid = 0.5 * (m11 + m22)
        half = 0.5 * (m11 - m22)
        r = np.hypot(half, m12)
        lam = np.abs(np.stack((mid + r, mid - r)))
        f1, f2 = 1.0 / np.maximum(lam, _SYMBOL_FLOOR * np.max(lam))
        # eigenvector angle θ of mid + r: cos 2θ = half/r, sin 2θ = m12/r
        cos2 = np.divide(half, r, out=np.ones_like(r), where=r > 0.0)
        sin2 = np.divide(m12, r, out=np.zeros_like(r), where=r > 0.0)
        mean, dev = 0.5 * (f1 + f2), 0.5 * (f1 - f2)
        return mean + dev * cos2, dev * sin2, mean - dev * cos2

    def precondition_at(self, u: np.ndarray, v: np.ndarray) -> None:
        """Freeze the preconditioner at the mean Hessian coefficients of (u, v)."""
        self._precond = self._inverse_symbol(
            *(float(np.mean(h)) for h in self.hess_coeffs(u, v)))

    def _pr(self, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        eu = self.bg.u0 + u
        if np.max(eu) > EXP_CLAMP or np.max(v) > EXP_CLAMP:
            self.clamp_hit = True
        return exp_clip(eu), exp_clip(v)

    @staticmethod
    def _spectra(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Half spectra (û, v̂) stacked on a leading axis, from one batched rfftn."""
        return rfftn(np.stack((u, v)), axes=(1, 2))

    def _apply_symbol(self, wh: np.ndarray, symbol) -> np.ndarray:
        """Inverse real FFT of [[s11, s12], [s12, s22]] (û, v̂), both rows in one batch."""
        s11, s12, s22 = symbol
        out = np.empty_like(wh)
        out[0] = s11 * wh[0] + s12 * wh[1]
        out[1] = s12 * wh[0] + s22 * wh[1]
        return irfftn(out, s=self.domain.shape, axes=(1, 2), overwrite_x=True)

    def _dirichlet(self, wh: np.ndarray) -> float:
        """a/2 (∫|∇u|² + ∫|∇v|²) + b ∫∇u·∇v from (û, v̂)."""
        uh, vh = wh
        dens = self.a * 0.5 * (np.real(uh * np.conj(uh)) + np.real(vh * np.conj(vh))) \
            + self.b * np.real(uh * np.conj(vh))
        dom = self.domain
        return float(np.sum(self._k2w * dens)) * dom.cell_area / (dom.n1 * dom.n2)

    def _potential(self, u: np.ndarray, v: np.ndarray, P: np.ndarray,
                   R: np.ndarray) -> float:
        p, dom = self.params, self.domain
        val = p.alpha * integrate_values((P + R - 2.0) ** 2, dom)
        val += p.beta * integrate_values((P - R) ** 2, dom)
        val += self.source * (2.0 * self.a) * integrate_values(u, dom)
        val += self.source * (2.0 * self.b) * integrate_values(v, dom)
        return val

    def _gradient(self, wh: np.ndarray, P: np.ndarray,
                  R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        p = self.params
        su, sv = self._apply_symbol(wh, self._stiff)
        common = 2.0 * p.alpha * (P + R - 2.0)
        diff = 2.0 * p.beta * (P - R)
        gu = su + (common + diff) * P + self.source * 2.0 * self.a
        gv = sv + (common - diff) * R + self.source * 2.0 * self.b
        return gu, gv

    def energy(self, u: np.ndarray, v: np.ndarray) -> float:
        P, R = self._pr(u, v)
        return float(self._dirichlet(self._spectra(u, v)) + self._potential(u, v, P, R))

    def gradient(self, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        P, R = self._pr(u, v)
        return self._gradient(self._spectra(u, v), P, R)

    def fun_grad(self, u: np.ndarray,
                 v: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """(energy, gu, gv) from one forward transform of the pair."""
        P, R = self._pr(u, v)
        wh = self._spectra(u, v)
        val = float(self._dirichlet(wh) + self._potential(u, v, P, R))
        gu, gv = self._gradient(wh, P, R)
        return val, gu, gv

    def hess_coeffs(self, u: np.ndarray,
                    v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pointwise second derivatives (h_uu, h_uv, h_vv) of the potential."""
        p = self.params
        P, R = self._pr(u, v)
        huu = (2.0 * p.alpha * (2.0 * P + R - 2.0) + 2.0 * p.beta * (2.0 * P - R)) * P
        hvv = (2.0 * p.alpha * (P + 2.0 * R - 2.0) - 2.0 * p.beta * (P - 2.0 * R)) * R
        huv = 2.0 * (p.alpha - p.beta) * P * R
        return huu, huv, hvv

    def hess_vec(self, u: np.ndarray, v: np.ndarray, du: np.ndarray,
                 dv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.hess_apply(self.hess_coeffs(u, v), du, dv)

    def hess_apply(self, coeffs: Tuple[np.ndarray, np.ndarray, np.ndarray],
                   du: np.ndarray, dv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Second variation with the pointwise coefficients already formed."""
        huu, huv, hvv = coeffs
        su, sv = self._apply_symbol(self._spectra(du, dv), self._stiff)
        return su + huu * du + huv * dv, sv + huv * du + hvv * dv

    # -- flat interface ---------------------------------------------------
    def pack(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate([u.ravel(), v.ravel()])

    def unpack(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n = self.domain.n1 * self.domain.n2
        return (x[:n].reshape(self.domain.shape), x[n:].reshape(self.domain.shape))

    def fun_grad_flat(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        u, v = self.unpack(x)
        val, gu, gv = self.fun_grad(u, v)
        return val, self.pack(gu, gv) * self.domain.cell_area

    def precond_flat(self, w: np.ndarray) -> np.ndarray:
        """Apply the held inverse symbol: SPD, 2x2 per Fourier mode.

        The vacuum Hessian's exact inverse until precondition_at freezes the
        symbol at a state.
        """
        wh = rfftn(w.reshape((2,) + self.domain.shape), axes=(1, 2))
        return self._apply_symbol(wh, self._precond).ravel() / self.domain.cell_area


def pde_residual_fourth_torus(u: np.ndarray, v: np.ndarray, op: TorusOperator,
                              exclude: Optional[np.ndarray] = None) -> float:
    """Residual of the transformed system under an independent 4th-order stencil.

    Measures the discretization error of the converged fields rather than the
    solver's closure; vortex patches are excluded (the background dip is only
    C^1-resolved there).
    """
    from .fields import laplacian4_values

    p = op.params
    P, R = op._pr(u, v)
    common = 2.0 * p.alpha * (P + R - 2.0)
    diff = 2.0 * p.beta * (P - R)
    l4u = laplacian4_values(u, op.domain)
    l4v = laplacian4_values(v, op.domain)
    res_u = op.a * l4u + op.b * l4v - (common + diff) * P - op.source * 2.0 * op.a
    res_v = op.b * l4u + op.a * l4v - (common - diff) * R - op.source * 2.0 * op.b
    res = np.maximum(np.abs(res_u), np.abs(res_v))
    if exclude is not None:
        res = res[~exclude]
    return float(np.max(res))


# ---------------------------------------------------------------------------
# reduced functionals: constants eliminated through a constraint branch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusState:
    """Mean-zero pair plus the constants solving the constraint equations."""

    domain: GridDomain
    u_prime: np.ndarray
    v_prime: np.ndarray
    c1: float
    c2: float

    @property
    def u(self) -> np.ndarray:
        return self.u_prime + self.c1

    @property
    def v(self) -> np.ndarray:
        return self.v_prime + self.c2

    @staticmethod
    def from_full(u: np.ndarray, v: np.ndarray, domain: GridDomain) -> "TorusState":
        c1 = float(np.mean(u))
        c2 = float(np.mean(v))
        return TorusState(domain, u - c1, v - c2, c1, c2)


def reconstruct_original(state: TorusState, bg: BackgroundTorus) -> Tuple[np.ndarray, np.ndarray]:
    """Original amplitudes: U = u0/2 + (u+v)/2 and V = u0/2 + (u-v)/2."""
    u, v = state.u, state.v
    big_u = 0.5 * bg.u0 + 0.5 * (u + v)
    big_v = 0.5 * bg.u0 + 0.5 * (u - v)
    return big_u, big_v


def w12_norm(du: np.ndarray, dv: np.ndarray, domain: GridDomain) -> float:
    """Sobolev norm of a field pair: sqrt(||.||_2^2 + ||grad .||_2^2)."""
    val = integrate_values(du * du + dv * dv, domain)
    val += dirichlet_inner_values(du, du, domain)
    val += dirichlet_inner_values(dv, dv, domain)
    return math.sqrt(val)


def _project0(arr: np.ndarray) -> np.ndarray:
    return arr - arr.mean()


class _BranchReduced:
    """Energy over mean-zero pairs with constants pinned to a constraint branch.

    saddle=False eliminates (c1, c2) through the upper/upper roots (the
    reduced functional of the constrained minimization); saddle=True through
    the lower/upper combination, turning the mountain-pass saddle of the full
    functional into a plain minimum of the reduced one.  Gradients need no
    chain-rule terms: the constraint equations are exactly stationarity of
    the energy in the constants, on every branch.
    """

    def __init__(self, op: TorusOperator, saddle: bool = False):
        self.op = op
        self.saddle = saddle
        # (u', v', maps, CSolve) of the last state whose constants were
        # solved: the line search asks feasible() and then fun_grad() at one
        # trial point, and MINRES asks hess_vec() many times at one Newton
        # iterate
        self._memo: Optional[tuple] = None
        # (memo, pointwise Hessian coefficients, 2x2 Hessian in the constants)
        # at that state, shared by the products there
        self._hess: Optional[tuple] = None
        # the inequality (AdmissibilityError.constraint) of the last rejection
        self.rejected: Optional[str] = None

    def split(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        u, v = self.op.unpack(x)
        return _project0(u), _project0(v)

    def _solve(self, up: np.ndarray, vp: np.ndarray) -> Tuple[_CMaps, CSolve]:
        """The constraint algebra at (u', v') and its root on this branch."""
        memo = self._memo
        if memo is not None and np.array_equal(memo[0], up) and np.array_equal(memo[1], vp):
            return memo[2:]
        maps = _CMaps(up, vp, self.op.bg, self.op.params)
        self._memo = (up.copy(), vp.copy(), maps, maps.solve(self.saddle))
        return self._memo[2:]

    def feasible(self, x: np.ndarray) -> bool:
        """Admissible, with constants on this branch (solved once, remembered)."""
        try:
            self._solve(*self.split(x))
        except AdmissibilityError as err:
            self.rejected = err.constraint
            return False
        return True

    def lift(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        up, vp = self.split(x)
        cs = self._solve(up, vp)[1]
        return up + cs.c1, vp + cs.c2

    def fun_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        u, v = self.lift(x)
        val, gu, gv = self.op.fun_grad(u, v)
        g = self.op.pack(_project0(gu), _project0(gv)) * self.op.domain.cell_area
        return val, g

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.fun_grad(x)[1]

    def hess_vec(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Schur-reduced second variation via implicit differentiation.

        The Laplacian annihilates constants, so the constants' 2x2 Hessian is
        the integrals of the pointwise coefficients.  Both are formed once per
        state and shared by every product there.
        """
        dom = self.op.domain
        up, vp = self.split(x)
        cs = self._solve(up, vp)[1]
        if self._hess is None or self._hess[0] is not self._memo:
            coeffs = self.op.hess_coeffs(up + cs.c1, vp + cs.c2)
            huu, huv, hvv = (integrate_values(h, dom) for h in coeffs)
            self._hess = (self._memo, coeffs, np.array([[huu, huv], [huv, hvv]]))
        _, coeffs, hc = self._hess
        du, dv = self.op.unpack(w)
        hu, hv = self.op.hess_apply(coeffs, du, dv)
        rhs = -np.array([integrate_values(hu, dom), integrate_values(hv, dom)])
        det = hc[0, 0] * hc[1, 1] - hc[0, 1] * hc[1, 0]
        if abs(det) < 1e-14 * (abs(hc[0, 0] * hc[1, 1]) + 1.0):
            dc = np.zeros(2)
        else:
            dc = np.linalg.solve(hc, rhs)
        # H(du + dc1, dv + dc2) = H(du, dv) + H(dc1, dc2), and the Laplacian
        # annihilates the constant shift: only the pointwise terms act on it
        huu, huv, hvv = coeffs
        hu = hu + huu * dc[0] + huv * dc[1]
        hv = hv + huv * dc[0] + hvv * dc[1]
        return self.op.pack(_project0(hu), _project0(hv)) * dom.cell_area


def reduced_energy_J(u_prime: np.ndarray, v_prime: np.ndarray, bg: BackgroundTorus,
                     params: ModelParams) -> float:
    """Closed-form reduced energy after eliminating the constants.

    Agrees with TorusOperator.energy(u'+c1, v'+c2) to the root-solve residual.
    """
    p = params
    dom = bg.domain
    maps = _CMaps(u_prime, v_prime, bg, params)
    cs, s = maps.solve(saddle=False), maps.s
    a = 0.5 * (1.0 / p.alpha + 1.0 / p.beta)
    b = 0.5 * (1.0 / p.alpha - 1.0 / p.beta)
    val = a * 0.5 * (dirichlet_inner_values(u_prime, u_prime, dom)
                     + dirichlet_inner_values(v_prime, v_prime, dom))
    val += b * dirichlet_inner_values(u_prime, v_prime, dom)
    val += 2.0 * p.alpha * ((dom.area - math.exp(cs.c1) * s.j1)
                            + (dom.area - math.exp(cs.c2) * s.j2))
    val -= 4.0 * math.pi * bg.n / p.alpha
    val += 4.0 * math.pi * bg.n * (2.0 * a) * cs.c1
    val += 4.0 * math.pi * bg.n * (2.0 * b) * cs.c2
    return float(val)


# ---------------------------------------------------------------------------
# the branch-reduced solve; first solution: constrained minimization of J
# ---------------------------------------------------------------------------


_LBFGS_HANDOVER = 1e4    # the first solution's L-BFGS hands over at this multiple of tol
_NEWTON_MAX_ITER = 120   # Newton steps of either branch's polish
_ENDPOINT_MARGIN = 1.0   # extra drop of the endpoint below the affine bound
_PROBE_RADIUS, _PROBE_SEED = 1e-2, 0   # the local-minimality probe's sphere
# Constant shifts u1 + s, geometric in |s| from 0.25 to |c_tilde|, at which the
# energy profile of the straight path to the endpoint is sampled; its maximum
# bounds the mountain-pass level from above.
_PROFILE_SHIFTS = 16
_SEPARATION = 1e-3   # least Sobolev distance of the second solution from the first


@dataclass(frozen=True)
class TorusSolveOpts:
    tol: float = 1e-8       # gradient max-norm target of each torus solve
    max_iter: int = 4000    # L-BFGS iteration cap of each torus solve


def _branch_solve(red: _BranchReduced, x0: np.ndarray, opts: TorusSolveOpts,
                  lbfgs_tol: float) -> Tuple[TorusState, dict]:
    """Minimize red's reduced energy from the mean-zero pair x0.

    L-BFGS, with steps leaving the admissible set rejected, hands over at
    gradient max-norm lbfgs_tol to a Newton/MINRES polish on the Schur Hessian
    until the max-norm meets opts.tol; both use the operator's preconditioner
    as it stands.  The constants sit on red's branch root at every iterate,
    and the returned state's residuals (info["c_solve"]) are those of that
    root.  A descent trapped at the admissible-set boundary raises
    BoundaryTrappingError naming the inequality that rejected its last step
    and describing the last accepted iterate; a polish that misses opts.tol
    on the full gradient raises NonConvergenceError carrying the state.
    """
    op = red.op
    dom = op.domain
    what = "saddle descent" if red.saddle else "first-solution descent"
    res = minimize_lbfgs(red.fun_grad, x0, precond=op.precond_flat,
                         feasible=red.feasible, tol_inf=lbfgs_tol * dom.cell_area,
                         max_iter=opts.max_iter)
    if res.boundary_trapped and not res.converged:
        hint = "" if red.saddle else (
            "; alpha is likely below the existence threshold for this vortex number")
        maps, cs = red._solve(*red.split(res.x))
        q1 = maps.q1(math.exp(cs.c2))
        raise BoundaryTrappingError(
            f"{what} trapped at the admissible-set boundary by the {red.rejected} "
            f"admissibility inequality after {res.iterations} iterations "
            f"({res.message}); at the last accepted iterate: margins {maps.margins[0]:.3e}, "
            f"{maps.margins[1]:.3e} (j1² = {maps.s.j1 ** 2:.1e}), real discriminant "
            f"q1(X2)² - d1 at {(q1 * q1 - maps.d1) / (q1 * q1):.1%} of q1(X2)², reduced "
            f"gradient max-norm {float(np.max(np.abs(res.g))) / dom.cell_area:.3e}{hint}",
            constraint=red.rejected)
    pol = newton_polish(red.grad, red.hess_vec, res.x, g0=res.g, precond=op.precond_flat,
                        tol_inf=opts.tol * dom.cell_area, max_iter=_NEWTON_MAX_ITER)
    up, vp = red.split(pol.x)
    cs = red._solve(up, vp)[1]
    u, v = up + cs.c1, vp + cs.c2
    state = TorusState.from_full(u, v, dom)
    gu, gv = op.gradient(u, v)
    grad_inf = max(float(np.max(np.abs(gu))), float(np.max(np.abs(gv))))
    if grad_inf > opts.tol:
        raise NonConvergenceError(
            f"{what} stalled at gradient max-norm {grad_inf:.3e} "
            f"(target {opts.tol:.3e})", state=state, grad_norm=grad_inf)
    energy = op.energy(u, v)
    return state, {
        "energy_I": energy,
        "energies": list(res.energies) + [energy],
        "grad_inf": grad_inf,
        "iterations": res.iterations + pol.iterations,
        "minres_unconverged": pol.minres_unconverged,
        "minres_iters": pol.minres_iters,
        "c_solve": cs,
        "clamp_hit": op.clamp_hit,
    }


def minimize_torus(params: ModelParams, vortices: VortexSet, domain: GridDomain,
                   opts: TorusSolveOpts = TorusSolveOpts()):
    """Constrained first solution on the torus.

    From the vacuum lift (u', v') = (-u0 made mean-zero, 0), minimizes the
    reduced energy J over mean-zero pairs, the constants on the upper-branch
    root at every iterate (_branch_solve: L-BFGS, then a Newton/MINRES
    polish until the gradient max-norm meets opts.tol).  By Cauchy-Schwarz
    (j1² <= |Ω| e1, j2² <= |Ω| e2, equal for constant e^{u0+u'}, e^{v'}) that
    start maximizes both normalized margins margin_k/e_k, so it is admissible
    exactly when the admissible set is nonempty, (1-γ)²αβ|Ω| >= 8πn; below
    that, AdmissibilityError (constraint "first") reports the ratio.
    info["iterations"] counts L-BFGS and Newton steps; info["energy_J"] is the
    closed-form reduced energy, an independent check of info["energy_I"].
    """
    params.require_torus_mode()
    if domain.kind != "torus":
        raise ConfigError("torus solve requires a torus domain")
    t0 = time.perf_counter()
    bg = torus_background(vortices, domain)
    feas = feasibility(params, bg.n, domain.area)
    if not feas.feasible:
        raise InfeasibleError(
            f"necessary condition fails: alpha*beta*|Omega| - 8*pi*n = {feas.margin:.6g} < 0",
            margin=feas.margin)
    op = TorusOperator(bg, params)

    # red remembers the start's constants for the descent's first evaluation
    red = _BranchReduced(op, saddle=False)
    x0 = op.pack(_project0(-bg.u0), np.zeros(domain.shape))
    try:
        red.lift(x0)
    except AdmissibilityError as err:
        ratio = ((1.0 - gamma(params)) ** 2 * params.alpha * params.beta * domain.area
                 / (8.0 * math.pi * bg.n))
        raise AdmissibilityError(
            f"the admissible set is empty: (1-gamma)^2*alpha*beta*|Omega|/(8*pi*n) = "
            f"{ratio:.6g} < 1 ({err})", constraint="first") from err

    state, info = _branch_solve(red, x0, opts, opts.tol * _LBFGS_HANDOVER)
    info.update({
        "bg": bg,
        "operator": op,
        "feasibility": feas,
        "energy_J": reduced_energy_J(state.u_prime, state.v_prime, bg, params),
        "wall_time": time.perf_counter() - t0,
        "vortex_mask": vortex_node_mask(vortices, domain),
    })
    return state, info


# ---------------------------------------------------------------------------
# second solution: saddle-branch descent from the barrier point
# ---------------------------------------------------------------------------

def mountain_pass(params: ModelParams, first: TorusState, opts: TorusSolveOpts,
                  bg: BackgroundTorus):
    """Second critical point: the mountain-pass saddle of the full functional.

    The endpoint (u1 + c_tilde, v1) is fixed by the affine upper bound for
    constant shifts, so that it sits more than one unit below the first
    solution's energy.  The saddle is the plain minimum of the saddle-branch
    reduced energy (see _BranchReduced), found by _branch_solve from the
    barrier point, the first solution's mean-zero part lifted by the
    saddle-branch constants; info["c_solve"] certifies those constants.  The
    solve uses the operator's preconditioner frozen once at the lifted
    barrier point (TorusOperator.precondition_at), where P = e^{u0+u} is far
    from the vacuum value 1 that preconditions the first solution.  A descent
    trapped at the admissible-set boundary raises BoundaryTrappingError.
    Certificates in info: probe_margin (> 0 when the first solution is a local minimum),
    endpoint_energy, and path_max_energy, the highest sampled energy on the
    straight path of constant shifts to the endpoint, which bounds the
    mountain-pass level from above.
    """
    if bg.n == 0:
        raise MountainPassCollapseError(
            "no second solution without vortices: the functional has a unique critical point")
    params.require_torus_mode()
    t0 = time.perf_counter()
    op = TorusOperator(bg, params)
    dom = op.domain
    p = params
    u1, v1 = first.u, first.v
    e_first = op.energy(u1, v1)

    # local-minimality probe on a sphere around the first solution
    rng = np.random.default_rng(_PROBE_SEED)
    probe_min = np.inf
    for _ in range(8):
        du = rng.standard_normal(dom.shape)
        dv = rng.standard_normal(dom.shape)
        scale = _PROBE_RADIUS / w12_norm(du, dv, dom)
        probe_min = min(probe_min, op.energy(u1 + scale * du, v1 + scale * dv))
    probe_margin = probe_min - e_first

    # endpoint from the affine bound for constant shifts
    slope = 4.0 * math.pi * bg.n * (1.0 / p.alpha + 1.0 / p.beta)
    c_tilde = -((4.0 * p.alpha + p.beta) * dom.area + 1.0 + _ENDPOINT_MARGIN) / slope
    e_end = op.energy(u1 + c_tilde, v1)
    while e_end > e_first - 1.0:
        c_tilde *= 2.0
        e_end = op.energy(u1 + c_tilde, v1)
    path_max = max(op.energy(u1 - s, v1)
                   for s in np.geomspace(0.25, -c_tilde, _PROFILE_SHIFTS))

    # descend the saddle-branch reduced energy from the barrier point, with
    # the preconditioner frozen at the lifted barrier point for the descent
    # and the polish; the descent starts from the mean-zero pair itself, so
    # its first evaluation reuses the constants solved for the lift
    saddle = _BranchReduced(op, saddle=True)
    x_barrier = op.pack(first.u_prime, first.v_prime)
    op.precondition_at(*saddle.lift(x_barrier))
    second, info = _branch_solve(saddle, x_barrier, opts, max(opts.tol, 1e-6) * 100.0)
    sep = w12_norm(second.u - u1, second.v - v1, dom)
    if sep < _SEPARATION:
        raise MountainPassCollapseError(
            f"saddle descent collapsed onto the first solution (separation {sep:.3e} < "
            f"{_SEPARATION:g}): no second solution found at these parameters")
    info.update({
        "bg": bg,
        "operator": op,
        "energy_first": e_first,
        "separation": sep,
        "probe_margin": probe_margin,
        "endpoint_energy": e_end,
        "path_max_energy": path_max,
        # always empty; bench/workloads.py reads its length
        "relax_trace": [],
        "wall_time": time.perf_counter() - t0,
    })
    return second, info
