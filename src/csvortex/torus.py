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
vacuum for the first, at the barrier point for the second.  The energies the
mountain pass reports along the straight path of constant shifts (the first
solution, the sampled path, the endpoint) come from one profile pass
(TorusOperator.energy_profile): constants carry no gradient, so its
Dirichlet term is formed once, and the shifted potentials in batches.

A state is one (2, n1, n2) stack (u, v), a view of the optimizer's flat
vector, as on the plane: TorusOperator evaluates it in one body and
_BranchReduced projects, lifts and differentiates it with one broadcast per
step.  The solves make hundreds of these calls on grids of 32² to 128², where
each numpy call costs more than its arithmetic, so no evaluation splits the
stack into fields and joins them again; the (u, v) methods are thin views.
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
)
# bench/spans.py traces the kernels through the names bound here, including
# laplacian_values and dirichlet_inner_values, which the solver no longer calls
from .fields import (  # noqa: F401
    EXP_CLAMP,
    GridDomain,
    _k2,
    _k2_weighted,
    dirichlet_inner_values,
    exp_clip,
    laplacian_values,
)
from .minimize import finish_solve, minimize_lbfgs, newton_polish
from .model import ModelParams, SolveOpts

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
    ca = bg.domain.cell_area
    eu = exp_clip(bg.u0 + u_prime)
    ev = exp_clip(v_prime)
    return StateIntegrals(
        e1=float((eu * eu).sum()) * ca,
        e2=float((ev * ev).sum()) * ca,
        j1=float(eu.sum()) * ca,
        j2=float(ev.sum()) * ca,
        g=float((eu * ev).sum()) * ca,
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


class _CMaps:
    """The constraint algebra of one mean-zero state (u', v').

    With X1 = e^{c1}, X2 = e^{c2} and the integrals s of state_integrals, the
    constraints are the quadratics e1 X1² - q1(X2) X1 + 2πn/(αβ) = 0 and
    e2 X2² - q2(X1) X2 + 2γπn/(αβ) = 0, where q1 = (1-γ) j1 + γ g X2 and
    q2 = (1-γ) j2 + γ g X1; their discriminants are q1² - d1 and q2² - d2.
    g2 is always the upper root of the second quadratic; g1 takes the upper
    (sign +1) or lower (sign -1) root of the first.  The branch map
    F(X) = X - g1(g2(X)) has one evaluator, f_df.  The lower root is formed
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
        c1, c2, x1, _ = _solve_c_branch(self, saddle, newton)
        x2 = math.exp(c2)
        s = self.s
        t1 = (x1 * x1 * s.e1, -x1 * self.q1(x2), 2.0 * math.pi * self.n / self.ab)
        t2 = (x2 * x2 * s.e2, -x2 * self.q2(x1),
              2.0 * self.gam * math.pi * self.n / self.ab)
        r1 = abs(sum(t1)) / max(max(abs(v) for v in t1), 1e-300)
        r2 = abs(sum(t2)) / max(max(abs(v) for v in t2), 1e-300)
        return CSolve(c1, c2, x1, r1, r2)

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

    def q1(self, x2: float) -> float:
        return (1.0 - self.gam) * self.s.j1 + self.gam * x2 * self.s.g

    def q2(self, x1: float) -> float:
        return (1.0 - self.gam) * self.s.j2 + self.gam * x1 * self.s.g

    def g2(self, x1: float) -> float:
        q2 = self.q2(x1)
        return self._root(q2, self._sqrt_disc(q2, self.d2), self.d2, self.s.e2, 1.0)

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
        if self.f_df(hi, -1.0 if saddle else 1.0)[0] < 0.0:
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
_PROFILE_BLOCK = 1 << 16   # values per shifted-field block of energy_profile


class TorusOperator:
    """Discrete functional I on full fields (u, v) = (u'+c1, v'+c2).

    A state is one (2, n1, n2) stack X = (u, v), a view of the optimizer's
    flat vector, as on the plane.  One body (_evaluate) serves energy,
    gradient and fun_grad_flat: the clamped exponentials
    (P, R) = e^{X + (u0, 0)} in one pass over the stack, one batched real FFT
    of X, the Dirichlet and potential terms, and the stiffness terms
    -aΔu - bΔv, -bΔu - aΔv read off (û, v̂) and brought back in one inverse
    real FFT.  The reduced solves call it dozens of times on grids of 32² to
    128², where each numpy call costs more than its arithmetic, so the body
    never splits the stack into fields and joins them again.  The (u, v)
    methods are thin views that join their pair once.  The fields are real,
    so the spectra are the half rfftn keeps, (2, n1, n2/2 + 1), and every
    symbol lives on that half; the Dirichlet energy sums it with the
    Hermitian weights of fields._k2_weighted.

    The preconditioner is a frozen-coefficient inverse Hessian, a symmetric
    2x2 symbol per Fourier mode (see _inverse_symbol).  It starts at the
    vacuum P = R = 1, where it is the exact inverse Hessian; precondition_at
    refreezes it at the mean coefficients of a given state.
    """

    def __init__(self, bg: BackgroundTorus, params: ModelParams):
        params.require_torus_mode()
        self.bg = bg
        self.params = params
        self.domain = dom = bg.domain
        self.shape = (2,) + dom.shape
        p = params
        self.a = 0.5 * (1.0 / p.alpha + 1.0 / p.beta)
        self.b = 0.5 * (1.0 / p.alpha - 1.0 / p.beta)
        self.source = 4.0 * math.pi * bg.n / dom.area
        self.clamp_hit = False
        # the exponents of (P, R) are X + (u0, 0); the linear terms of the
        # energy weigh (u, v) by the sources (2a, 2b)·source
        self._lift = np.stack((bg.u0, np.zeros(dom.shape)))
        self._sources = self.source * np.array([2.0 * self.a, 2.0 * self.b])
        # Fourier symbols [[s11, s12], [s12, s22]] acting on (û, v̂): the
        # stiffness terms, and the preconditioner, frozen at the vacuum Hessian
        # coefficients (h_uu, h_uv, h_vv) = (2(α+β), 2(α-β), 2(α+β))
        k2 = _k2(dom)
        # the weighted |k|² twice per mode, for a spectrum viewed as
        # interleaved (real, imaginary) floats
        self._k2w2 = np.repeat(_k2_weighted(dom), 2, axis=-1)
        self._stiff = (self.a * k2, self.b * k2, self.a * k2)
        self._vacuum = (2.0 * (p.alpha + p.beta), 2.0 * (p.alpha - p.beta),
                        2.0 * (p.alpha + p.beta))
        self._precond = self._inverse_symbol(*self._vacuum)

    def _inverse_symbol(self, huu: float, huv: float, hvv: float):
        """|M|^{-1}/|Ω_h| per Fourier mode, M = [[a k² + huu, b k² + huv], [·, a k² + hvv]].

        M is inverted through the absolute values of its two eigenvalues, so
        the result is SPD even where M is indefinite; the magnitudes are
        floored at _SYMBOL_FLOOR times the largest.  The flat gradient is the
        L2 gradient times the cell area |Ω_h|, so the symbol carries its
        reciprocal.  The k = 0 mode takes the vacuum coefficients: the
        reduced problems have no mean mode, and the full one is
        preconditioned there as at the vacuum.
        """
        m11 = self._stiff[0] + huu
        m12 = self._stiff[1] + huv
        m22 = self._stiff[2] + hvv
        m11[0, 0], m12[0, 0], m22[0, 0] = self._vacuum
        mid = 0.5 * (m11 + m22)
        half = 0.5 * (m11 - m22)
        r = np.hypot(half, m12)
        lam = np.abs(np.stack((mid + r, mid - r)))
        lam = np.maximum(lam, _SYMBOL_FLOOR * np.max(lam))
        f1, f2 = 1.0 / (self.domain.cell_area * lam)
        # eigenvector angle θ of mid + r: cos 2θ = half/r, sin 2θ = m12/r
        cos2 = np.divide(half, r, out=np.ones_like(r), where=r > 0.0)
        sin2 = np.divide(m12, r, out=np.zeros_like(r), where=r > 0.0)
        mean, dev = 0.5 * (f1 + f2), 0.5 * (f1 - f2)
        return mean + dev * cos2, dev * sin2, mean - dev * cos2

    def precondition_at(self, X: np.ndarray) -> None:
        """Freeze the preconditioner at the mean Hessian coefficients of the stack X."""
        self._precond = self._inverse_symbol(*(float(np.mean(h)) for h in self._coeffs(X)))

    # -- the stacked body ----------------------------------------------------
    def _exp(self, X: np.ndarray) -> np.ndarray:
        """The clamped exponentials (P, R) = e^{X + (u0, 0)}, one new stack."""
        return self._clamped_exp(np.add(X, self._lift))

    def _clamped_exp(self, E: np.ndarray) -> np.ndarray:
        """e^E in E's own buffer, clamped as exp_clip clamps; an exponent past
        EXP_CLAMP sets clamp_hit."""
        if E.max() > EXP_CLAMP:
            self.clamp_hit = True
        return exp_clip(E, out=E)

    def _potential(self, P: np.ndarray, R: np.ndarray, sums: np.ndarray):
        """(α Σ(P+R-2)² + β Σ(P-R)² + the linear terms, P+R-2, P-R), every
        sum over the last two axes; sums (..., 2) are the field sums (Σu, Σv)
        the linear terms weigh by the sources.  The energy's sums are
        pairwise (ndarray.sum), not BLAS dots: at 256² a dot's round-off
        stalls the first descent's line search (248 evaluations for 9 L-BFGS
        iterations at alpha=30, against 7 for 6)."""
        p = self.params
        s = P + R
        s -= 2.0
        d = P - R
        pot = (p.alpha * (s * s).sum(axis=(-2, -1)) + p.beta * (d * d).sum(axis=(-2, -1))
               + np.dot(sums, self._sources))
        return pot, s, d

    @staticmethod
    def _spectra(X: np.ndarray) -> np.ndarray:
        """Half spectra (û, v̂) of the stack X, from one batched rfftn."""
        return rfftn(X, axes=(1, 2))

    def _apply_symbol(self, wh: np.ndarray, symbol) -> np.ndarray:
        """Inverse real FFT of [[s11, s12], [s12, s22]] (û, v̂), both rows in one batch."""
        s11, s12, s22 = symbol
        out = np.empty_like(wh)
        np.multiply(s11, wh[0], out=out[0])
        out[0] += s12 * wh[1]
        np.multiply(s22, wh[1], out=out[1])
        out[1] += s12 * wh[0]
        return irfftn(out, s=self.domain.shape, axes=(1, 2), overwrite_x=True)

    def _dirichlet(self, wh: np.ndarray) -> float:
        """a/2 (∫|∇u|² + ∫|∇v|²) + b ∫∇u·∇v from (û, v̂), each spectrum
        viewed as interleaved (real, imaginary) floats."""
        r = wh.view(np.float64)
        q = self._k2w2 * r
        dens = self.a * 0.5 * (q * r).sum() + self.b * (q[0] * r[1]).sum()
        dom = self.domain
        return float(dens) * dom.cell_area / (dom.n1 * dom.n2)

    def _evaluate(self, X: np.ndarray,
                  gradient: bool = True) -> Tuple[float, Optional[np.ndarray]]:
        """(energy, L2 gradient stack or None) at the state stack X."""
        p = self.params
        E = self._exp(X)
        P, R = E
        wh = self._spectra(X)
        pot, s, d = self._potential(P, R, np.add.reduce(X, axis=(1, 2)))
        val = self._dirichlet(wh) + float(pot) * self.domain.cell_area
        G = None
        if gradient:
            G = self._apply_symbol(wh, self._stiff)
            s *= 2.0 * p.alpha
            d *= 2.0 * p.beta
            P *= s + d
            R *= s - d
            G += E
            G += self._sources[:, None, None]
        return val, G

    def _coeffs(self, X: np.ndarray) -> np.ndarray:
        """Pointwise second derivatives of the potential at the stack X, as
        one (3, n1, n2) stack (h_uu, h_uv, h_vv): its first two planes weigh
        du and its last two dv in a Hessian product."""
        p = self.params
        P, R = self._exp(X)
        K = np.empty((3,) + self.domain.shape)
        K[0] = (2.0 * p.alpha * (2.0 * P + R - 2.0) + 2.0 * p.beta * (2.0 * P - R)) * P
        K[1] = 2.0 * (p.alpha - p.beta) * P * R
        K[2] = (2.0 * p.alpha * (P + 2.0 * R - 2.0) - 2.0 * p.beta * (P - 2.0 * R)) * R
        return K

    def _hess(self, K: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Second variation on a direction stack W, coefficients K of _coeffs."""
        H = self._apply_symbol(self._spectra(W), self._stiff)
        H += K[:2] * W[0]
        H += K[1:] * W[1]
        return H

    # the L2 gradient is -S·Δ_h X + p(X) with stiffness S = [[a, b], [b, a]];
    # the residuals are not rescaled
    residual_scale = 1.0

    def stiffness(self, Y: np.ndarray) -> np.ndarray:
        """S·Y for a stack Y = (y_u, y_v): (a y_u + b y_v, b y_u + a y_v)."""
        out = self.a * Y
        out[0] += self.b * Y[1]
        out[1] += self.b * Y[0]
        return out

    # -- (u, v) views ------------------------------------------------------
    def energy(self, u: np.ndarray, v: np.ndarray) -> float:
        return self._evaluate(np.stack((u, v)), gradient=False)[0]

    def energy_profile(self, u: np.ndarray, v: np.ndarray, shifts) -> np.ndarray:
        """energy(u + c, v) for every constant shift c in ``shifts``, from one pass.

        Constants carry no gradient, so the Dirichlet term is formed once, and
        e^v once.  The shifted exponentials e^{u0 + u + c} and their
        potentials come from blocks of shifts stacked (block, n1, n2) and
        reduced together by _potential, as energy reduces one state.  A block
        holds at most _PROFILE_BLOCK values, so its temporaries stay near
        2 MiB on any grid; at 32² the mountain pass's 17 shifts fit in one.
        """
        shifts = np.asarray(shifts, dtype=float)
        R = self._clamped_exp(np.array(v, dtype=float))
        sum_v = np.add.reduce(v, axis=(0, 1))
        pot = np.empty(shifts.size)
        step = max(1, _PROFILE_BLOCK // u.size)
        for i in range(0, shifts.size, step):
            U = np.add.outer(shifts[i:i + step], u)
            sums = np.empty((U.shape[0], 2))
            sums[:, 0] = np.add.reduce(U, axis=(1, 2))
            sums[:, 1] = sum_v
            U += self.bg.u0
            pot[i:i + step] = self._potential(self._clamped_exp(U), R, sums)[0]
        return self._dirichlet(self._spectra(np.stack((u, v)))) + pot * self.domain.cell_area

    def gradient(self, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        G = self._evaluate(np.stack((u, v)))[1]
        return G[0], G[1]

    def hess_vec(self, u: np.ndarray, v: np.ndarray, du: np.ndarray,
                 dv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        H = self._hess(self._coeffs(np.stack((u, v))), np.stack((du, dv)))
        return H[0], H[1]

    # -- flat interface ---------------------------------------------------
    def pack(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.concatenate([u.ravel(), v.ravel()])

    def fun_grad_flat(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        val, G = self._evaluate(x.reshape(self.shape))
        G *= self.domain.cell_area
        return val, G.ravel()

    def precond_flat(self, w: np.ndarray) -> np.ndarray:
        """Apply the held inverse symbol: SPD, 2x2 per Fourier mode.

        The vacuum Hessian's exact inverse until precondition_at freezes the
        symbol at a state.
        """
        wh = self._spectra(w.reshape(self.shape))
        return self._apply_symbol(wh, self._precond).ravel()


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


def w12_norm(D: np.ndarray, domain: GridDomain) -> float:
    """Sobolev norm of a field pair, stacked as D = (du, dv):
    sqrt(||.||_2^2 + ||grad .||_2^2), from one transform of the pair."""
    dh = rfftn(D, axes=(1, 2))
    grad2 = float(np.sum(_k2_weighted(domain) * (dh.real**2 + dh.imag**2)))
    return math.sqrt((float(np.sum(D * D)) + grad2 / D[0].size) * domain.cell_area)


def _field_means(X: np.ndarray) -> np.ndarray:
    """Per-field means of a stack, over its trailing two axes, shaped to
    broadcast against it (X.mean's arithmetic, without its call overhead)."""
    return np.add.reduce(X, axis=(1, 2), keepdims=True) / (X.shape[1] * X.shape[2])


class _BranchReduced:
    """Energy over mean-zero pairs with constants pinned to a constraint branch.

    saddle=False eliminates (c1, c2) through the upper/upper roots (the
    reduced functional of the constrained minimization); saddle=True through
    the lower/upper combination, turning the mountain-pass saddle of the full
    functional into a plain minimum of the reduced one.  Gradients need no
    chain-rule terms: the constraint equations are exactly stationarity of
    the energy in the constants, on every branch.

    Like the operator, it works on the (2, n1, n2) stack of the flat vector:
    the mean projection and the constant lift are one broadcast each, the
    memo holds one stacked state, and the Schur Hessian product acts on the
    direction stack without splitting it into fields.
    """

    def __init__(self, op: TorusOperator, saddle: bool = False):
        self.op = op
        self.saddle = saddle
        # (X', maps, CSolve) of the last mean-zero stack whose constants were
        # solved: fun_grad() asks feasible() and then lift() at one trial
        # point, and MINRES asks hess_vec() many times at one Newton iterate
        self._memo: Optional[tuple] = None
        # (memo, pointwise Hessian coefficients, 2x2 Hessian in the constants)
        # at that state, shared by the products there
        self._hess: Optional[tuple] = None
        # the inequality (AdmissibilityError.constraint) of the last rejection
        self.rejected: Optional[str] = None

    def _solve(self, x: np.ndarray) -> Tuple[np.ndarray, _CMaps, CSolve]:
        """The mean-zero stack X' of x, its constraint algebra and its root
        on this branch."""
        X = x.reshape(self.op.shape)
        Xp = X - _field_means(X)
        memo = self._memo
        if memo is None or not np.array_equal(memo[0], Xp):
            maps = _CMaps(Xp[0], Xp[1], self.op.bg, self.op.params)
            memo = self._memo = (Xp, maps, maps.solve(self.saddle))
        return memo

    def feasible(self, x: np.ndarray) -> bool:
        """Admissible, with constants on this branch (solved once, remembered)."""
        try:
            self._solve(x)
        except AdmissibilityError as err:
            self.rejected = err.constraint
            return False
        return True

    def lift(self, x: np.ndarray) -> np.ndarray:
        """The full stack (u' + c1, v' + c2) of x on this branch."""
        Xp, _, cs = self._solve(x)
        return Xp + np.array([cs.c1, cs.c2])[:, None, None]

    def fun_grad(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        """Energy and projected gradient; +inf and all NaN if x is inadmissible."""
        if not self.feasible(x):
            return math.inf, np.full(x.size, np.nan)
        val, G = self.op._evaluate(self.lift(x))
        G -= _field_means(G)
        G *= self.op.domain.cell_area
        return val, G.ravel()

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.fun_grad(x)[1]

    def hess_vec(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Schur-reduced second variation via implicit differentiation.

        The Laplacian annihilates constants, so the constants' 2x2 Hessian is
        the integrals of the pointwise coefficients.  Both are formed once per
        state and shared by every product there.
        """
        op = self.op
        ca = op.domain.cell_area
        memo = self._solve(x)
        if self._hess is None or self._hess[0] is not memo:
            K = op._coeffs(self.lift(x))
            huu, huv, hvv = (np.add.reduce(K, axis=(1, 2)) * ca).tolist()
            self._hess = (memo, K, (huu, huv, hvv))
        _, K, (huu, huv, hvv) = self._hess
        H = op._hess(K, w.reshape(op.shape))
        r1, r2 = (-np.add.reduce(H, axis=(1, 2)) * ca).tolist()
        # the constants' shift dc solves [[huu, huv], [huv, hvv]] dc = (r1, r2),
        # by Cramer's rule
        det = huu * hvv - huv * huv
        if abs(det) < 1e-14 * (abs(huu * hvv) + 1.0):
            dc1 = dc2 = 0.0
        else:
            dc1, dc2 = (r1 * hvv - huv * r2) / det, (huu * r2 - huv * r1) / det
        # H(dw + dc) = H(dw) + H(dc), and the Laplacian annihilates the
        # constant shift dc: only the pointwise terms act on it
        H += K[:2] * dc1
        H += K[1:] * dc2
        H -= _field_means(H)
        H *= ca
        return H.ravel()


def reduced_energy_J(u_prime: np.ndarray, v_prime: np.ndarray, bg: BackgroundTorus,
                     params: ModelParams) -> float:
    """Closed-form reduced energy after eliminating the constants.

    Agrees with TorusOperator.energy(u'+c1, v'+c2) to the root-solve residual.
    Its Dirichlet term a/2 (|∇u'|² + |∇v'|²) + b ∇u'·∇v' is summed apart from
    the operator's, as |∇(u'+v')|²/(4α) + |∇(u'-v')|²/(4β) from one transform.
    """
    p = params
    dom = bg.domain
    maps = _CMaps(u_prime, v_prime, bg, params)
    cs, s = maps.solve(saddle=False), maps.s
    wh = rfftn(np.stack((u_prime + v_prime, u_prime - v_prime)), axes=(1, 2))
    grad2 = np.sum(_k2_weighted(dom) * (wh.real**2 + wh.imag**2), axis=(1, 2))
    val = ((grad2[0] / (4.0 * p.alpha) + grad2[1] / (4.0 * p.beta))
           * dom.cell_area / (dom.n1 * dom.n2))
    val += 2.0 * p.alpha * ((dom.area - math.exp(cs.c1) * s.j1)
                            + (dom.area - math.exp(cs.c2) * s.j2))
    val -= 4.0 * math.pi * bg.n / p.alpha
    val += 4.0 * math.pi * bg.n * (1.0 / p.alpha + 1.0 / p.beta) * cs.c1
    val += 4.0 * math.pi * bg.n * (1.0 / p.alpha - 1.0 / p.beta) * cs.c2
    return float(val)


# ---------------------------------------------------------------------------
# the branch-reduced solve; first solution: constrained minimization of J
# ---------------------------------------------------------------------------


_LBFGS_HANDOVER = 1e4    # the first solution's L-BFGS hands over at this multiple of tol
_NEWTON_MAX_ITER = 120   # Newton steps of either branch's polish
_ENDPOINT_MARGIN = 1.0   # extra drop of the endpoint below the affine bound
# Constant shifts u1 + s, geometric in |s| from 0.25 to |c_tilde|, at which the
# energy profile of the straight path to the endpoint is sampled; its maximum
# bounds the mountain-pass level from above.
_PROFILE_SHIFTS = 16
_SEPARATION = 1e-3   # least Sobolev distance of the second solution from the first


# bench/workloads.py imports the solve options under this name
TorusSolveOpts = SolveOpts


def _branch_solve(red: _BranchReduced, x0: np.ndarray, opts: SolveOpts,
                  lbfgs_tol: float) -> Tuple[TorusState, dict]:
    """Minimize red's reduced energy from the mean-zero pair x0.

    L-BFGS hands over at gradient max-norm lbfgs_tol to a Newton/MINRES polish
    on the Schur Hessian until the max-norm meets opts.tol; both use the
    operator's preconditioner as it stands, and both halve a step leaving the
    admissible set, where red.fun_grad is +inf.  The constants sit on red's
    branch root at every iterate, and the returned state's residuals
    (info["c_solve"]) are those of that root.  A descent trapped at the admissible-set boundary raises
    BoundaryTrappingError naming the inequality that rejected its last step
    and describing the last accepted iterate; a polish that misses opts.tol
    on the full gradient raises NonConvergenceError carrying the state.
    """
    op = red.op
    dom = op.domain
    what = "saddle descent" if red.saddle else "first-solution descent"
    res = minimize_lbfgs(red.fun_grad, x0, precond=op.precond_flat,
                         tol_inf=lbfgs_tol * dom.cell_area, max_iter=opts.max_iter)
    if res.boundary_trapped and not res.converged:
        hint = "" if red.saddle else (
            "; alpha is likely below the existence threshold for this vortex number")
        _, maps, cs = red._solve(res.x)
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
    cs = red._solve(pol.x)[2]
    X = red.lift(pol.x)
    state = TorusState.from_full(X[0], X[1], dom)
    energy, G = op._evaluate(X)
    info = finish_solve(what, res, pol, energy, float(np.max(np.abs(G))), opts.tol, state)
    info.update(energy_I=energy, c_solve=cs, clamp_hit=op.clamp_hit)
    return state, info


def minimize_torus(params: ModelParams, vortices: VortexSet, domain: GridDomain,
                   opts: SolveOpts = SolveOpts()):
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
    x0 = op.pack(np.mean(bg.u0) - bg.u0, np.zeros(domain.shape))
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
        "energy_J": reduced_energy_J(state.u_prime, state.v_prime, bg, params),
        "wall_time": time.perf_counter() - t0,
        "vortex_mask": vortex_node_mask(vortices, domain),
    })
    return state, info


# ---------------------------------------------------------------------------
# second solution: saddle-branch descent from the barrier point
# ---------------------------------------------------------------------------

def _path_shifts(c_tilde: float) -> np.ndarray:
    """The sampled constant shifts -s of the straight path, s geometric from
    0.25 to -c_tilde; the last is c_tilde, the endpoint, exactly."""
    return -np.geomspace(0.25, -c_tilde, _PROFILE_SHIFTS)


def mountain_pass(params: ModelParams, first: TorusState, opts: SolveOpts,
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
    Certificates in info: separation (>= _SEPARATION), energy_first,
    endpoint_energy, and path_max_energy, the highest sampled energy on the
    straight path of constant shifts to the endpoint, which bounds the
    mountain-pass level from above.  All three energies come from one
    TorusOperator.energy_profile pass over the shifts 0 and _path_shifts,
    whose last is the endpoint; each doubling of c_tilde, where the endpoint
    is not yet low enough, takes one more pass over the new path.
    """
    if bg.n == 0:
        raise MountainPassCollapseError(
            "no second solution without vortices: the functional has a unique critical point")
    params.require_torus_mode()
    t0 = time.perf_counter()
    op = TorusOperator(bg, params)
    dom = op.domain
    p = params
    X1 = np.stack((first.u, first.v))
    u1, v1 = X1

    # endpoint from the affine bound for constant shifts
    slope = 4.0 * math.pi * bg.n * (1.0 / p.alpha + 1.0 / p.beta)
    c_tilde = -((4.0 * p.alpha + p.beta) * dom.area + 1.0 + _ENDPOINT_MARGIN) / slope
    prof = op.energy_profile(u1, v1, np.append(0.0, _path_shifts(c_tilde)))
    e_first = float(prof[0])
    while prof[-1] > e_first - 1.0:
        c_tilde *= 2.0
        prof[1:] = op.energy_profile(u1, v1, _path_shifts(c_tilde))
    e_end, path_max = float(prof[-1]), float(prof[1:].max())

    # descend the saddle-branch reduced energy from the barrier point, with
    # the preconditioner frozen at the lifted barrier point for the descent
    # and the polish; the descent starts from the mean-zero pair itself, so
    # its first evaluation reuses the constants solved for the lift
    saddle = _BranchReduced(op, saddle=True)
    x_barrier = op.pack(first.u_prime, first.v_prime)
    op.precondition_at(saddle.lift(x_barrier))
    second, info = _branch_solve(saddle, x_barrier, opts, max(opts.tol, 1e-6) * 100.0)
    sep = w12_norm(np.stack((second.u, second.v)) - X1, dom)
    if sep < _SEPARATION:
        raise MountainPassCollapseError(
            f"saddle descent collapsed onto the first solution (separation {sep:.3e} < "
            f"{_SEPARATION:g}): no second solution found at these parameters")
    info.update({
        "bg": bg,
        "operator": op,
        "energy_first": e_first,
        "separation": sep,
        "endpoint_energy": e_end,
        "path_max_energy": path_max,
        # always empty; bench/workloads.py reads its length
        "relax_trace": [],
        "wall_time": time.perf_counter() - t0,
    })
    return second, info
