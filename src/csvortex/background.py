"""Singular-part background profiles absorbing the vortex point sources.

On the plane each species gets the explicit profile

    u_i0(x) = - sum_s m_s * ln(1 + lam / |x - p_{i,s}|^2),
    h_i(x)  = 4*lam * sum_s m_s / (lam + |x - p_{i,s}|^2)^2,

so that  Δu_i0 = -h_i + 4π Σ_s m_s δ_{p_{i,s}}  and  ∫ h_i = 4π n_i.

On the torus the background u0 is the mean-zero solution of

    Δu0 = -8πn/|Ω| + 8π Σ_j δ_{p_j},

with each δ realized as a one-node Kronecker load of weight 1/cell_area at the
node nearest the point, smoothed by a spectral Gaussian a few cells wide that
keeps the total weight (see ``torus_background``); the discrete system is
then self-consistent to round-off under the spectral Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np
from scipy.fft import irfftn, rfftn

from .errors import ConfigError, DomainError, NonFiniteFieldError
from .fields import GridDomain, _torus_k2, poisson_solve_torus

Point = Tuple[float, float, int]  # (x, y, multiplicity)

# width of the spectral Gaussian smoothing each torus point load, in cells
_LOAD_WIDTH_CELLS = 4.0


@dataclass(frozen=True)
class VortexSet:
    """Per-species vortex point lists with integer multiplicities >= 1."""

    species: Tuple[Tuple[Point, ...], ...]

    def __post_init__(self):
        norm = tuple(
            tuple((float(x), float(y), int(m)) for x, y, m in pts)
            for pts in self.species
        )
        for pts in norm:
            for x, y, m in pts:
                if m < 1:
                    raise ConfigError("vortex multiplicities must be >= 1")
        object.__setattr__(self, "species", norm)

    @staticmethod
    def single(points: Sequence[Tuple[float, float]] | Sequence[Point]) -> "VortexSet":
        """One species; bare (x, y) pairs get multiplicity 1."""
        pts = tuple(
            (p[0], p[1], p[2] if len(p) == 3 else 1)  # type: ignore[misc]
            for p in points
        )
        return VortexSet((pts,))

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def counts(self) -> Tuple[int, ...]:
        """n_i = total multiplicity per species."""
        return tuple(sum(m for _, _, m in pts) for pts in self.species)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def validate_in(self, domain: GridDomain) -> None:
        for pts in self.species:
            for x, y, _ in pts:
                if not domain.contains(x, y):
                    raise DomainError(
                        f"vortex point ({x:g}, {y:g}) lies outside the domain"
                    )


@dataclass(frozen=True)
class BackgroundPlane:
    """Per-species plane backgrounds u_i0, h_i plus their species sum.

    Each profile is one (M, n1, n2) array with the species on the leading
    axis.  ``u0_pad`` holds the closed-form u_i0 sampled nodally on the grid
    padded by one ghost ring (the plane solver lifts its Dirichlet data from
    that ring), and ``u0`` is its interior view; ``h`` is the closed-form h_i
    sampled nodally.  ``u0_grid`` is the discretely consistent counterpart
    of u0: the solution of the 5-point system Δ u0_grid = -h + 4π δ_grid
    with the analytic ghost data, where δ_grid is a bilinearly spread unit
    load at each vortex.  The solver's exponentials and the reconstruction
    use u0_grid, so the background's algebraic far-field tail cancels in the
    discrete equations to round-off and the reconstructed u, u_j keep a clean
    exponential tail (the analytic samples would leave an O(h^2/|x|^6)
    truncation wake swamping it).
    """

    domain: GridDomain
    h: np.ndarray = field(repr=False)        # h_i >= 0, ∫ h_i ~ 4π n_i
    u0_pad: np.ndarray = field(repr=False)   # (M, n1 + 2, n2 + 2); u_i0 <= 0
    u0_grid: np.ndarray = field(repr=False)
    u0: np.ndarray = field(init=False, repr=False)           # interior of u0_pad
    u0_grid_sum: np.ndarray = field(init=False, repr=False)  # Σ_k u0_grid_k

    def __post_init__(self):
        object.__setattr__(self, "u0", self.u0_pad[:, 1:-1, 1:-1])
        object.__setattr__(self, "u0_grid_sum", np.sum(self.u0_grid, axis=0))


@dataclass(frozen=True)
class BackgroundTorus:
    """Mean-zero torus background and the discrete delta load it solves."""

    domain: GridDomain
    n: int
    u0: np.ndarray
    load: np.ndarray = field(repr=False, default=None)


def plane_background(vortices: VortexSet, lam: float, domain: GridDomain) -> BackgroundPlane:
    """Evaluate the explicit plane backgrounds nodally.

    At a node coinciding with a vortex point the squared distance is floored
    at (cell diagonal / 2)^2, so the downstream exponential e^{u0} still
    vanishes smoothly there.
    """
    if domain.kind != "box":
        raise DomainError("plane background requires a box domain")
    if not lam > 0:
        raise ConfigError("background regularization lambda must be positive")
    vortices.validate_in(domain)
    xp = -domain.extent1 + domain.h1 * (np.arange(-1, domain.n1 + 1) + 0.5)
    yp = -domain.extent2 + domain.h2 * (np.arange(-1, domain.n2 + 1) + 0.5)
    xg, yg = np.meshgrid(xp, yp, indexing="ij")
    floor = (domain.h1**2 + domain.h2**2) / 4.0
    m = vortices.num_species
    u0_pad = np.zeros((m,) + xg.shape)
    h_pad = np.zeros((m,) + xg.shape)
    load = np.empty((m,) + domain.shape)
    for k, pts in enumerate(vortices.species):
        # an overflow here is named below, at its first non-finite node
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y, mult in pts:
                d2 = (xg - x) ** 2 + (yg - y) ** 2
                u0_pad[k] -= mult * np.log1p(lam / np.maximum(d2, floor))
                h_pad[k] += mult * 4.0 * lam / (lam + d2) ** 2
        load[k] = _cic_load(pts, domain)
    h = h_pad[:, 1:-1, 1:-1].copy()
    u0_grid = _consistent_profiles(load, h, u0_pad, domain)
    # a finite lam can still overflow lam/d2 or (lam + d2)^2; nodes are
    # grid indices, -1 and n on the ghost ring
    for name, profile, pad in (("u_i0", u0_pad, 1), ("h_i", h, 0), ("u0_grid", u0_grid, 0)):
        bad = np.argwhere(~np.isfinite(profile))
        if bad.size:
            node = tuple(int(k) - pad for k in bad[0][1:])
            raise NonFiniteFieldError(
                f"background profile {name} is not finite at node {node} "
                f"for lambda_bg = {lam:g}", node=node)
    return BackgroundPlane(domain, h, u0_pad, u0_grid)


def _cic_load(pts, domain: GridDomain) -> np.ndarray:
    """Bilinear (cloud-in-cell) unit loads: mass-exact, symmetric, continuous."""
    load = np.zeros(domain.shape)
    inv_area = 1.0 / domain.cell_area
    for x, y, m in pts:
        fi = (x + domain.extent1) / domain.h1 - 0.5
        fj = (y + domain.extent2) / domain.h2 - 0.5
        i0 = int(np.floor(fi))
        j0 = int(np.floor(fj))
        ti, tj = fi - i0, fj - j0
        for di, wi in ((0, 1.0 - ti), (1, ti)):
            for dj, wj in ((0, 1.0 - tj), (1, tj)):
                ii, jj = i0 + di, j0 + dj
                if 0 <= ii < domain.n1 and 0 <= jj < domain.n2 and wi * wj > 0:
                    load[ii, jj] += m * wi * wj * inv_area
    return load


def _consistent_profiles(load: np.ndarray, h: np.ndarray, u0_pad: np.ndarray,
                         domain: GridDomain) -> np.ndarray:
    """Solve the discrete Dirichlet problems Δu = -h + 4π δ_grid exactly.

    One problem per species, stacked on the leading axis and solved in one
    batched sine-transform pair.  The ghost ring carries the analytic
    profile, so the result matches the closed form at the wall and deviates
    inside only by the discretization correction that keeps the 5-point
    identity exact at every node.
    """
    from .fields import box_laplacian_ring, box_ring_edges, box_shifted_inverse, box_symbol

    rhs = -h + 4.0 * np.pi * load
    ring_term = box_laplacian_ring(np.zeros(h.shape), box_ring_edges(u0_pad), domain)
    # Δ0 x = rhs - ring_term  <=>  (-Δ0) x = ring_term - rhs
    return box_shifted_inverse(ring_term - rhs, box_symbol(domain, 1.0, 0.0))


def torus_background(vortices: VortexSet, domain: GridDomain) -> BackgroundTorus:
    """Solve the discrete mean-zero background problem on the torus.

    Each point source is a nearest-node Kronecker load smoothed by a spectral
    Gaussian _LOAD_WIDTH_CELLS grid cells wide.  The smoothing keeps the
    total weight and the node-centering exactly (the k=0 mode is untouched)
    while removing the near-Nyquist content a bare one-node load would imprint
    on u0 through the 1/k^2 inverse: that content rings globally at the 1e-3
    level and breaks the pointwise amplitude bounds of the computed solutions;
    at width 4 the residual ringing sits at machine epsilon.  The discrete
    system stays exactly self-consistent because the solver sees the same
    load.
    """
    if domain.kind != "torus":
        raise DomainError("torus background requires a torus domain")
    if vortices.num_species != 1:
        raise ConfigError("the doubly periodic background takes a single species")
    vortices.validate_in(domain)
    n = vortices.total
    load = np.full(domain.shape, -8.0 * np.pi * n / domain.area)
    for x, y, m in vortices.species[0]:
        i = int(round(x / domain.h1)) % domain.n1
        j = int(round(y / domain.h2)) % domain.n2
        load[i, j] += 8.0 * np.pi * m / domain.cell_area
    # the Gaussian is _LOAD_WIDTH_CELLS wide on each axis: its exponent is
    # |k|² of the unit-spaced grid, whose wavenumbers are k·h per axis
    unit_k2 = _torus_k2(domain.n1, domain.n2, float(domain.n1), float(domain.n2))[0]
    damp = np.exp(-0.5 * _LOAD_WIDTH_CELLS**2 * unit_k2)
    load = irfftn(rfftn(load) * damp, s=domain.shape)
    u0 = poisson_solve_torus(load, domain)
    return BackgroundTorus(domain, n, u0, load)


def vortex_node_mask(vortices: VortexSet, domain: GridDomain, halo: int = 1) -> np.ndarray:
    """Boolean mask of nodes within a (2*halo+1)^2 patch of any vortex point.

    Pointwise sign/maximum-principle checks exclude these nodes: the fields are
    regularized there by construction.
    """
    mask = np.zeros(domain.shape, dtype=bool)
    for pts in vortices.species:
        for x, y, _ in pts:
            if domain.kind == "torus":
                i = int(round(x / domain.h1))
                j = int(round(y / domain.h2))
                ii = (np.arange(i - halo, i + halo + 1)) % domain.n1
                jj = (np.arange(j - halo, j + halo + 1)) % domain.n2
                mask[np.ix_(ii, jj)] = True
            else:
                i = int(round((x + domain.extent1) / domain.h1 - 0.5))
                j = int(round((y + domain.extent2) / domain.h2 - 0.5))
                i0, i1 = max(i - halo, 0), min(i + halo + 1, domain.n1)
                j0, j1 = max(j - halo, 0), min(j + halo + 1, domain.n2)
                mask[i0:i1, j0:j1] = True
    return mask
