"""Read-only verification of every theorem-level claim against a solution.

All functions are deterministic and take explicit arrays; residuals computed
with the solver's own operators live next to the solvers, while everything
here is independent: quantized flux integrals by direct quadrature, radial
decay fits, and pointwise maximum-principle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DiagnosticFailure
from .fields import GridDomain, exp_clip, integrate_values
from .model import ModelParams

# rays of the radial decay fit
_DECAY_RAYS = 64
# strictness band of the maximum-principle bounds: values above it fail
_STRICT = 1e-12


@dataclass(frozen=True)
class QuantizedIntegral:
    label: str
    computed: float
    target: float

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.target), 1e-300)
        return abs(self.computed - self.target) / scale


def quantized_integrals_plane(u: np.ndarray, u_list: Sequence[np.ndarray],
                              params: ModelParams,
                              domain: GridDomain,
                              counts: Sequence[int]) -> List[QuantizedIntegral]:
    """Flux-type integrals of the plane system versus -4*pi*(vortex numbers).

    The first entry is the aggregate integral (target -4*pi*n), followed by
    one per species (targets -4*pi*n_i).
    """
    m = params.species
    a = params.alpha
    b = params.beta
    A = [exp_clip(u + ui) for ui in u_list]
    B = [exp_clip(u - ui) for ui in u_list]
    sum_a = np.sum([ai + bi for ai, bi in zip(A, B)], axis=0) - 2.0 * m
    sum_b = sum_a + 2.0 * m
    total = (a**2 / m**2) * integrate_values(sum_a * sum_b, domain)
    for ai, bi in zip(A, B):
        total += (a * b / m) * integrate_values((ai - bi) ** 2, domain)
    out = [QuantizedIntegral("total", total, -4.0 * math.pi * sum(counts))]
    for i, (ai, bi) in enumerate(zip(A, B)):
        val = (a * b / m) * integrate_values(sum_a * (ai - bi), domain)
        val += b**2 * integrate_values(ai**2 - bi**2, domain)
        out.append(QuantizedIntegral(f"species_{i}", val, -4.0 * math.pi * counts[i]))
    return out


def quantized_integrals_torus(big_u: np.ndarray, big_v: np.ndarray,
                              params: ModelParams, domain: GridDomain,
                              n: int) -> List[QuantizedIntegral]:
    """The two flux integrals of the doubly periodic system (targets -4*pi*n)."""
    a, b = params.alpha, params.beta
    ep = exp_clip(big_u + big_v)
    em = exp_clip(big_u - big_v)
    first = a**2 * integrate_values((ep + em) * (ep + em - 2.0), domain)
    first += a * b * integrate_values((ep - em) ** 2, domain)
    second = a * b * integrate_values((ep - em) * (ep + em - 2.0), domain)
    second += b**2 * integrate_values(ep**2 - em**2, domain)
    target = -4.0 * math.pi * n
    return [QuantizedIntegral("first", first, target),
            QuantizedIntegral("second", second, target)]


# ---------------------------------------------------------------------------
# radial decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    r_min: float
    r_max: float
    slope: float
    expected_m: float
    ray_slopes: Tuple[float, ...] = field(repr=False, default=())

    @property
    def rel_dev(self) -> float:
        return abs(self.slope + self.expected_m) / self.expected_m


def _bilinear(values: np.ndarray, domain: GridDomain, xs: np.ndarray,
              ys: np.ndarray) -> np.ndarray:
    fi = (xs + domain.extent1) / domain.h1 - 0.5
    fj = (ys + domain.extent2) / domain.h2 - 0.5
    i0 = np.minimum(fi.astype(int), domain.n1 - 2)
    j0 = np.minimum(fj.astype(int), domain.n2 - 2)
    ti = fi - i0
    tj = fj - j0
    v00 = values[i0, j0]
    v10 = values[i0 + 1, j0]
    v01 = values[i0, j0 + 1]
    v11 = values[i0 + 1, j0 + 1]
    return (v00 * (1 - ti) * (1 - tj) + v10 * ti * (1 - tj)
            + v01 * (1 - ti) * tj + v11 * ti * tj)


def decay_fit(u: np.ndarray, u_list: Sequence[np.ndarray], params: ModelParams,
              domain: GridDomain, center: Tuple[float, float] = (0.0, 0.0),
              annulus: Tuple[float, float] = (0.5, 0.8)) -> DecayFit:
    """Least-squares slope of ln(u^2 + Σ u_i^2) versus radius.

    Samples 64 rays across the annulus [annulus[0]*L, annulus[1]*L] about
    ``center`` as one (64, R) grid, takes each ray's least-squares slope in
    closed form, (ln s)·(r - r̄)/|r - r̄|², and averages the slopes; a sample
    outside the node hull [-L + h/2, L - h/2] raises DiagnosticFailure.
    ``expected_m`` (and ``rel_dev`` against it) is the decay theorem's
    one-sided rate m = 2*sqrt(2)*min(alpha, beta): a correct solution has
    slope at most about -m.  It is not the slope's asymptote, which is
    -4*min(alpha, beta) (the linearized masses at the vacuum are 2*alpha and
    2*beta) up to an algebraic 1/r term.
    """
    if domain.kind != "box":
        raise DiagnosticFailure("decay fit requires a box domain")
    big = u**2
    for ui in u_list:
        big = big + ui**2
    L = domain.extent1
    r_min, r_max = annulus[0] * L, annulus[1] * L
    radii = np.arange(r_min, r_max, domain.h1)
    if radii.size < 8:
        raise DiagnosticFailure("annulus too thin for a slope fit")
    th = 2.0 * math.pi * np.arange(_DECAY_RAYS) / _DECAY_RAYS
    xs = center[0] + np.outer(np.cos(th), radii)
    ys = center[1] + np.outer(np.sin(th), radii)
    if not np.abs((xs, ys)).max() <= L - 0.5 * domain.h1:   # the box is square
        raise DiagnosticFailure(f"decay annulus about decay_center {center} leaves the box")
    samples = _bilinear(big, domain, xs, ys)
    if np.any(samples < 1e-280):
        raise DiagnosticFailure("annulus values below 1e-280: shrink the box or the annulus")
    dr = radii - radii.mean()
    slopes = np.log(samples) @ dr / (dr @ dr)
    return DecayFit(r_min, r_max, float(np.mean(slopes)), params.decay_mass,
                    tuple(slopes.tolist()))


# ---------------------------------------------------------------------------
# pointwise maximum-principle bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    label: str
    status: str              # "pass" | "fail" | "n/a"
    worst: float = math.nan
    node: Optional[Tuple[int, int]] = None


def max_principle_check(big_u: np.ndarray, big_v: np.ndarray,
                        exclude: Optional[np.ndarray] = None) -> List[BoundCheck]:
    """Verify U < 0, U+V < 0, U-V < 0 at every non-vortex node.

    Values above the strictness band _STRICT = 1e-12 fail.  The band
    absorbs round-off at nodes where the true margin decays below machine
    precision (the amplitudes approach the vacuum exponentially away from the
    vortices, so far-field margins are smaller than any representable
    threshold).  Vortex patches (3x3 around each point) are excluded via the
    caller's mask.
    """
    keep = np.ones(big_u.shape, dtype=bool) if exclude is None else ~exclude
    out = []
    for label, arr in (("U", big_u), ("U+V", big_u + big_v), ("U-V", big_u - big_v)):
        if not keep.any():
            out.append(BoundCheck(label, "n/a"))
            continue
        vals = arr[keep]
        worst = float(np.max(vals))
        if worst <= _STRICT:
            out.append(BoundCheck(label, "pass", worst))
        else:
            flat = np.argmax(np.where(keep, arr, -np.inf))
            node = tuple(int(t) for t in np.unravel_index(flat, arr.shape))
            out.append(BoundCheck(label, "fail", worst, node))
    return out


# ---------------------------------------------------------------------------
# structured report
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    """Aggregated diagnostics; serializes with a stable key order."""

    mode: str
    energy: float = math.nan
    grad_norm: float = math.nan
    quantized: List[QuantizedIntegral] = field(default_factory=list)
    pde_residual_same: float = math.nan
    pde_residual_fourth: float = math.nan
    decay: Optional[DecayFit] = None
    max_principle: List[BoundCheck] = field(default_factory=list)
    feasibility_margin: float = math.nan
    iterations: Optional[int] = None   # set from a solver record only
    wall_time: float = math.nan
    extra: Dict[str, object] = field(default_factory=dict)

    def lines(self) -> List[str]:
        out = ["schema_version = 1", f"mode = {self.mode}"]
        out.append(f"energy = {self.energy!r}")
        out.append(f"grad_norm = {self.grad_norm!r}")
        if not math.isnan(self.feasibility_margin):
            out.append(f"feasibility_margin = {self.feasibility_margin!r}")
        for q in self.quantized:
            out.append(f"quantized.{q.label}.computed = {q.computed!r}")
            out.append(f"quantized.{q.label}.target = {q.target!r}")
            out.append(f"quantized.{q.label}.rel_error = {q.rel_error!r}")
        if not math.isnan(self.pde_residual_same):
            out.append(f"pde_residual.same_operator = {self.pde_residual_same!r}")
        if not math.isnan(self.pde_residual_fourth):
            out.append(f"pde_residual.fourth_order = {self.pde_residual_fourth!r}")
        if self.decay is not None:
            out.append(f"decay.r_min = {self.decay.r_min!r}")
            out.append(f"decay.r_max = {self.decay.r_max!r}")
            out.append(f"decay.slope = {self.decay.slope!r}")
            out.append(f"decay.expected_m = {self.decay.expected_m!r}")
            out.append(f"decay.rel_dev = {self.decay.rel_dev!r}")
        for chk in self.max_principle:
            out.append(f"max_principle.{chk.label} = {chk.status}")
            if chk.status != "n/a" and not math.isnan(chk.worst):
                out.append(f"max_principle.{chk.label}.worst = {chk.worst!r}")
            if chk.node is not None:
                out.append(f"max_principle.{chk.label}.node = {chk.node[0]},{chk.node[1]}")
        for key in sorted(self.extra):
            out.append(f"{key} = {self.extra[key]!r}")
        if self.iterations is not None:
            out.append(f"iterations = {self.iterations}")
        if not math.isnan(self.wall_time):
            out.append(f"wall_time_seconds = {self.wall_time:.3f}")
        return out

    def to_text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def failures(self, quantized_tol: float, residual_tol: float) -> List[str]:
        """Names of checks exceeding their tolerances (empty when all pass).

        Checks fail unless they are met, so NaN fails.  A solution report
        (one with quantized integrals) also fails where its energy, gradient
        norm or same-operator residual is not finite.
        """
        bad = []
        for q in self.quantized:
            if not q.rel_error <= quantized_tol:
                bad.append(f"quantized.{q.label}")
        solution = bool(self.quantized)
        for label, val in (("energy", self.energy), ("grad_norm", self.grad_norm)):
            if solution and not math.isfinite(val):
                bad.append(label)
        res = self.pde_residual_same
        if res > residual_tol or (solution and not math.isfinite(res)):
            bad.append("pde_residual.same_operator")
        for chk in self.max_principle:
            if chk.status == "fail":
                bad.append(f"max_principle.{chk.label}")
        return bad
