"""Grid domains, scalar fields, and the shared differential/integral kernels.

Two domain kinds are supported:

- ``torus``: a doubly periodic cell [0, L1) x [0, L2), nodes x_i = i*L1/N1.
  Derivatives are spectral (Fourier multipliers), so the Laplacian annihilates
  constants exactly and Poisson problems invert in one FFT pair.  Fields are
  real, so every transform is a real one (``rfftn``/``irfftn``) on the kept
  half spectrum, shape (N1, N2/2 + 1).
- ``box``: the square [-L, L]^2 truncating the plane, cell-centered nodes
  x_i = -L + (i+1/2)*h with h = 2L/N.  Derivatives are 2nd-order finite
  differences with zero Dirichlet ghost values just outside the grid.

All kernels are pure functions of immutable inputs; fields can be shared
read-only across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy.fft import dstn, idstn, irfftn, rfftn

from .errors import DomainError

_KIND_TORUS = 0
_KIND_BOX = 1

# Exponents are capped here before exponentiation, so a wild iterate yields a
# large finite value instead of overflowing; solvers flag when the cap bites.
EXP_CLAMP = 50.0


def exp_clip(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^x with the exponent capped at EXP_CLAMP; in place when ``out`` is x."""
    capped = np.minimum(x, EXP_CLAMP, out=out)
    return np.exp(capped, out=capped)


@dataclass(frozen=True)
class GridDomain:
    """Discretized torus or truncated-plane box.

    For ``kind == "torus"`` the extents are the periods (L1, L2); for
    ``kind == "box"`` both extents equal the half-width L and the grid covers
    [-L, L]^2 with cell-centered nodes.
    """

    kind: str
    n1: int
    n2: int
    extent1: float
    extent2: float

    def __post_init__(self):
        if self.kind not in ("torus", "box"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.n1 < 16 or self.n2 < 16:
            raise DomainError("grid resolution must be at least 16 per axis")
        if self.n1 % 2 or self.n2 % 2:
            raise DomainError("grid resolution must be even per axis")
        if not (0 < self.extent1 < np.inf and 0 < self.extent2 < np.inf):
            raise DomainError("domain extents must be positive and finite")
        # the kernels square and invert the cell sizes and scale by the area;
        # Python floats raise on some of these overflows instead of giving inf
        try:
            scales = (self.h1**2, self.h2**2, 1.0 / self.h1**2, 1.0 / self.h2**2,
                      1.0 / self.cell_area, self.area)
        except (OverflowError, ZeroDivisionError):
            scales = (np.inf,)
        if not all(0 < s < np.inf for s in scales):
            raise DomainError(
                f"domain extents {self.extent1:g} x {self.extent2:g} on a "
                f"{self.n1}x{self.n2} grid give a cell size or area that float64 "
                "cannot square, invert or hold")
        if self.kind == "box" and self.extent1 != self.extent2:
            raise DomainError("box domain is square: extents must match")

    @staticmethod
    def torus(l1: float, l2: float, n1: int, n2: int) -> "GridDomain":
        return GridDomain("torus", n1, n2, float(l1), float(l2))

    @staticmethod
    def box(half_width: float, n: int) -> "GridDomain":
        return GridDomain("box", n, n, float(half_width), float(half_width))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n1, self.n2)

    @property
    def h1(self) -> float:
        if self.kind == "torus":
            return self.extent1 / self.n1
        return 2.0 * self.extent1 / self.n1

    @property
    def h2(self) -> float:
        if self.kind == "torus":
            return self.extent2 / self.n2
        return 2.0 * self.extent2 / self.n2

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    @property
    def area(self) -> float:
        """|Omega| for the torus; (2L)^2 for the box."""
        if self.kind == "torus":
            return self.extent1 * self.extent2
        return (2.0 * self.extent1) ** 2

    def coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays (X, Y), shape (n1, n2), 'ij' indexing."""
        if self.kind == "torus":
            x = self.h1 * np.arange(self.n1)
            y = self.h2 * np.arange(self.n2)
        else:
            x = -self.extent1 + self.h1 * (np.arange(self.n1) + 0.5)
            y = -self.extent2 + self.h2 * (np.arange(self.n2) + 0.5)
        return np.meshgrid(x, y, indexing="ij")

    def contains(self, x: float, y: float) -> bool:
        if self.kind == "torus":
            return 0.0 <= x < self.extent1 and 0.0 <= y < self.extent2
        return abs(x) < self.extent1 and abs(y) < self.extent2


@dataclass(frozen=True)
class ScalarField:
    """A real scalar grid function tied to its domain."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.domain.shape:
            raise DomainError(
                f"field shape {v.shape} does not match domain {self.domain.shape}"
            )
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# spectral machinery (torus)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _torus_k2(n1: int, n2: int, l1: float, l2: float) -> Tuple[np.ndarray, np.ndarray]:
    """|k|² on the half spectrum rfftn keeps, shape (n1, n2//2 + 1), and |k|²
    times the Hermitian weights: 1 on columns 0 and n2/2, which the half
    holds once, and 2 on the others, which stand for a conjugate pair too.
    With the weights, a sum over the half equals the full-spectrum sum of any
    quantity even in k.  Both arrays are shared by every caller: read-only.
    """
    kx = 2.0 * np.pi * np.fft.fftfreq(n1, d=l1 / n1)
    ky = 2.0 * np.pi * np.fft.rfftfreq(n2, d=l2 / n2)
    k2 = kx[:, None] ** 2 + ky[None, :] ** 2
    k2w = 2.0 * k2
    k2w[:, 0] = k2[:, 0]
    k2w[:, -1] = k2[:, -1]
    k2.flags.writeable = k2w.flags.writeable = False
    return k2, k2w


def _k2(domain: GridDomain) -> np.ndarray:
    """|k|² on the kept half spectrum of a torus domain."""
    return _torus_k2(domain.n1, domain.n2, domain.extent1, domain.extent2)[0]


def _k2_weighted(domain: GridDomain) -> np.ndarray:
    """|k|² times the Hermitian weights of the kept half spectrum."""
    return _torus_k2(domain.n1, domain.n2, domain.extent1, domain.extent2)[1]


def laplacian_values(values: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Discrete Laplacian on raw node values (zero ghosts for the box).

    On the box, leading axes index a stack of fields.
    """
    if domain.kind == "torus":
        return irfftn(-_k2(domain) * rfftn(values), s=domain.shape)
    p = np.zeros(values.shape[:-2] + (domain.n1 + 2, domain.n2 + 2))
    p[..., 1:-1, 1:-1] = values
    return _box_laplacian_padded(p, domain)


def _box_laplacian_padded(p: np.ndarray, domain: GridDomain) -> np.ndarray:
    """5-point Laplacian of the interior of p, whose outer ring holds the ghosts.

    Acts on the trailing two axes.  Six array passes: three neighbour sums in
    units of 1/h2^2, two for the centre term and one for the weight 1/h2^2;
    off the square one more rescales the axis-0 pair by (h2/h1)^2.
    """
    w1, w2 = 1.0 / domain.h1**2, 1.0 / domain.h2**2
    out = np.add(p[..., :-2, 1:-1], p[..., 2:, 1:-1])
    if w1 != w2:
        out *= w1 / w2
    out += p[..., 1:-1, :-2]
    out += p[..., 1:-1, 2:]
    out -= (2.0 + 2.0 * w1 / w2) * p[..., 1:-1, 1:-1]
    out *= w2
    return out


def laplacian4_values(values: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Independent 4th-order centered Laplacian, for discretization-error checks.

    On the box the two outermost node rings are zeroed (the stencil would
    reach past the ghost ring); callers restrict their norms accordingly.
    """
    box = domain.kind == "box"
    p = np.pad(values, 2, mode="constant" if box else "wrap")
    out = np.zeros_like(values)
    for axis, h in ((0, domain.h1), (1, domain.h2)):
        acc = np.zeros_like(values)
        for k, w in zip((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0)):
            sl = [slice(2, -2), slice(2, -2)]
            sl[axis] = slice(2 + k, p.shape[axis] - 2 + k)
            acc += w * p[tuple(sl)]
        out += acc / (12.0 * h**2)
    if box:
        out[:2, :] = out[-2:, :] = out[:, :2] = out[:, -2:] = 0.0
    return out


def integrate_values(values: np.ndarray, domain: GridDomain) -> float:
    """Cell-area-weighted midpoint quadrature over the whole domain."""
    return float(np.sum(values)) * domain.cell_area


def dirichlet_inner_values(f: np.ndarray, g: np.ndarray, domain: GridDomain) -> float:
    """∫ ∇f·∇g: spectral on the torus, forward differences with zero ghosts on
    the box; exactly adjoint to laplacian_values (-∫ f Δg to round-off)."""
    if domain.kind == "torus":
        fh = rfftn(f)
        gh = rfftn(g)
        s = np.sum(_k2_weighted(domain) * np.real(fh * np.conj(gh)))
        return float(s) * domain.cell_area / (domain.n1 * domain.n2)
    return _box_dirichlet_padded(np.pad(f, 1), np.pad(g, 1), domain)


def _box_dirichlet_padded(pf: np.ndarray, pg: np.ndarray, domain: GridDomain) -> float:
    """Forward-difference ∫ ∇f·∇g over arrays whose outer ring holds the ghosts."""
    h1, h2 = domain.h1, domain.h2
    dxf = np.diff(pf[:, 1:-1], axis=0) / h1
    dxg = np.diff(pg[:, 1:-1], axis=0) / h1
    dyf = np.diff(pf[1:-1, :], axis=1) / h2
    dyg = np.diff(pg[1:-1, :], axis=1) / h2
    return float(np.sum(dxf * dxg) + np.sum(dyf * dyg)) * h1 * h2


def poisson_solve_torus(rhs: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Solve Δu = rhs on the torus with the k=0 mode pinned to zero.

    The right-hand side must have (numerically) zero mean; the returned field
    is exactly mean-zero on the grid.
    """
    if domain.kind != "torus":
        raise DomainError("spectral Poisson solve requires a torus domain")
    k2 = _k2(domain).copy()
    k2[0, 0] = 1.0
    uh = rfftn(rhs) / (-k2)
    uh[0, 0] = 0.0
    return irfftn(uh, s=domain.shape)


# ---------------------------------------------------------------------------
# box ghost-ring (lifted Dirichlet data) helpers: solver-internal
# ---------------------------------------------------------------------------


def box_pad_with_ring(values: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Embed values into a padded array whose outer ring carries ``ring`` data.

    Only the ring's edges are read; its interior is ignored.
    """
    p = np.empty(ring.shape)
    p[..., 0, :] = ring[..., 0, :]
    p[..., -1, :] = ring[..., -1, :]
    p[..., 1:-1, 0] = ring[..., 1:-1, 0]
    p[..., 1:-1, -1] = ring[..., 1:-1, -1]
    p[..., 1:-1, 1:-1] = values
    return p


def box_laplacian_ring(values: np.ndarray, ring: np.ndarray, domain: GridDomain) -> np.ndarray:
    """5-point Laplacian where the ghost ring carries prescribed boundary data.

    Leading axes index a stack of fields, each with its own ring.
    """
    return _box_laplacian_padded(box_pad_with_ring(values, ring), domain)


def box_dirichlet_ring(f: np.ndarray, rf: np.ndarray, g: np.ndarray, rg: np.ndarray,
                       domain: GridDomain) -> float:
    """∫ ∇f·∇g with prescribed ghost-ring data on both arguments."""
    return _box_dirichlet_padded(box_pad_with_ring(f, rf), box_pad_with_ring(g, rg), domain)


def box_symbol(domain: GridDomain, c_lap, c_id, _type: int = 1) -> np.ndarray:
    """c_lap*λ + c_id over the sine modes λ of -Δ_5 on the box.

    ``_type`` 1 gives the modes with zero ghosts, the exact -Δ_5 of the
    solvers: λ_k = 4/h²·sin²(πk/(2(n+1))).  ``_type`` 2 gives them with
    antisymmetric ghosts (ghost = -neighbour, Dirichlet at the wall face):
    λ_k = 4/h²·sin²(πk/(2n)).  c_lap and c_id are scalars, or arrays with one
    coefficient per field; the symbol then has one plane per field.
    """
    lam1, lam2 = ((4.0 / h**2) * np.sin(np.pi * (np.arange(n) + 1)
                                          / (2.0 * (n + 1 if _type == 1 else n))) ** 2
                  for n, h in ((domain.n1, domain.h1), (domain.n2, domain.h2)))
    lam = lam1[:, None] + lam2[None, :]
    return (np.reshape(c_lap, np.shape(c_lap) + (1, 1)) * lam
            + np.reshape(c_id, np.shape(c_id) + (1, 1)))


def box_shifted_inverse(values: np.ndarray, symbol: np.ndarray, _type: int = 1) -> np.ndarray:
    """Apply (c_lap*(-Δ_5) + c_id)^(-1) via the sine transform.

    ``symbol`` is box_symbol(domain, c_lap, c_id, _type), and the sine
    transform is of the same type: 1 inverts the operator with zero ghosts,
    2 the one with antisymmetric ghosts.  Acts on the trailing two axes; a
    stack of fields, one symbol plane each, is transformed in one batched
    sine-transform pair.  It computes in the dtype of ``values``: float32
    input takes pocketfft's native single-precision path (with a float32
    symbol), float64 input the exact inverse.
    """
    vh = dstn(values, type=_type, norm="ortho", axes=(-2, -1))
    vh /= symbol
    return idstn(vh, type=_type, norm="ortho", axes=(-2, -1), overwrite_x=True)


# ---------------------------------------------------------------------------
# serialization: flat binary with a 16-byte header, and CSV for plotting
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<iiff")


def _kind_code(domain: GridDomain) -> Tuple[float, float]:
    if domain.kind == "torus":
        if abs(domain.h1 - domain.h2) > 1e-12 * max(domain.h1, domain.h2):
            raise DomainError(
                "binary header stores one torus extent; cell aspect must be uniform"
            )
        return float(_KIND_TORUS), domain.extent1
    return float(_KIND_BOX), domain.extent1


def write_field(path, field: ScalarField) -> None:
    """Write little-endian float64 row-major values behind a 16-byte header.

    Header: n1 (int32), n2 (int32), kind code (float32: 0 torus / 1 box),
    extent (float32: torus period L1 with L2 = L1*n2/n1, or box half-width).
    """
    kind, extent = _kind_code(field.domain)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(field.domain.n1, field.domain.n2, kind, extent))
        fh.write(field.values.astype("<f8").tobytes(order="C"))


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DomainError(f"truncated field header in {path}")
        n1, n2, kind, extent = _HEADER.unpack(raw)
        payload = fh.read()
    # checked before use: frombuffer raises a bare ValueError on a partial value
    if n1 <= 0 or n2 <= 0 or len(payload) != 8 * n1 * n2:
        raise DomainError(
            f"field payload in {path} has {len(payload)} bytes, expected 8 per "
            f"value of its {n1}x{n2} header"
        )
    if kind not in (_KIND_TORUS, _KIND_BOX):
        raise DomainError(
            f"field header in {path} has kind code {kind!r}, expected "
            f"{_KIND_TORUS} (torus) or {_KIND_BOX} (box)"
        )
    data = np.frombuffer(payload, dtype="<f8")
    if kind == _KIND_TORUS:
        domain = GridDomain.torus(extent, extent * n2 / n1, n1, n2)
    else:
        domain = GridDomain.box(extent, n1)
    return ScalarField(domain, data.reshape(n1, n2).copy())


def write_csv(path, field: ScalarField) -> None:
    """Write (x, y, value) rows for external plotting.

    The header ``x,y,value`` comes first, then one row per node in row-major
    order (i, then j).  Every number is its shortest round-trip ``repr`` and
    every line ends in CRLF, as ``csv.writer`` writes them.  Each coordinate
    is formatted once, and the values one grid row at a time.
    """
    xg, yg = field.domain.coords()
    ys = [repr(y) + "," for y in yg[0].tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        for x, row in zip(xg[:, 0].tolist(), field.values):
            head = repr(x) + ","
            fh.write("".join([f"{head}{y}{v!r}\r\n" for y, v in zip(ys, row.tolist())]))
