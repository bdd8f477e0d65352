import csv
import io
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dstn, idstn
from scipy.integrate import quad

from csvortex.background import VortexSet, plane_background
from csvortex.errors import DomainError
from csvortex.fields import (
    GridDomain,
    ScalarField,
    box_dirichlet_ring,
    box_laplacian_ring,
    box_pad_with_ring,
    box_ring_edges,
    box_shifted_inverse,
    box_symbol,
    dirichlet_inner_values,
    integrate_values,
    laplacian4_values,
    laplacian_values,
    poisson_solve_torus,
    read_field,
    write_csv,
    write_field,
)
from csvortex.model import ModelParams
from csvortex.plane import PlaneOperator
from csvortex.torus import TorusState

from conftest import smooth_random


class TestGridDomain:
    def test_torus_cell_area(self):
        dom = GridDomain.torus(2 * np.pi, 4 * np.pi, 32, 64)
        assert dom.cell_area == pytest.approx(2 * np.pi * 4 * np.pi / (32 * 64))
        assert dom.area == pytest.approx(8 * np.pi**2)

    def test_box_cell_area(self):
        dom = GridDomain.box(5.0, 20)
        assert dom.cell_area == pytest.approx((10.0 / 20) ** 2)

    @pytest.mark.parametrize("n", [8, 14, 15, 33])
    def test_resolution_guard(self, n):
        with pytest.raises(DomainError):
            GridDomain.torus(1.0, 1.0, n, 32)

    def test_positive_extent_guard(self):
        with pytest.raises(DomainError):
            GridDomain.box(-1.0, 32)

    @pytest.mark.parametrize("make", [
        lambda: GridDomain.box(1e300, 32),           # h² overflows
        lambda: GridDomain.box(1e-300, 32),          # h² underflows to 0
        lambda: GridDomain.box(1e155, 16),           # h² finite, |Ω| overflows
        lambda: GridDomain.torus(1e300, 1e300, 32, 32),
        lambda: GridDomain.torus(1e155, 1e155, 16, 16),
        lambda: GridDomain.torus(1e-160, 1.0, 16, 16),  # 1/h1² overflows
    ], ids=["box-1e300", "box-1e-300", "box-area", "torus-1e300", "torus-area",
            "torus-thin-cell"])
    def test_unrepresentable_scales_refused(self, make):
        with pytest.raises(DomainError, match="cannot square, invert or hold"):
            make()

    @pytest.mark.parametrize("n1, n2", [(64, 32), (32, 64)])
    def test_box_node_counts_must_match(self, n1, n2):
        # a box is square in nodes as in extent: fields on it read back
        with pytest.raises(DomainError, match="node counts must match"):
            GridDomain("box", n1, n2, 8.0, 8.0)

    def test_extreme_representable_extents_accepted(self):
        for dom in (GridDomain.box(1e150, 512), GridDomain.box(1e-150, 16)):
            scales = (dom.h1**2, 1.0 / dom.h1**2, 1.0 / dom.cell_area, dom.area)
            assert all(np.isfinite(scales))


def padded_laplacian(p, domain):
    """5-point Laplacian of the interior of p, whose outer ring holds the
    ghosts: the padded form, kept as the oracle of the stencil that reads
    the ghost edges in place."""
    out = np.add(p[..., :-2, 1:-1], p[..., 2:, 1:-1])
    out += p[..., 1:-1, :-2]
    out += p[..., 1:-1, 2:]
    out -= 4.0 * p[..., 1:-1, 1:-1]
    out *= 1.0 / domain.h1**2
    return out


class TestLaplacian:
    def test_constant_annihilated_torus(self, torus64):
        f = np.full(torus64.shape, 4.2)
        assert np.max(np.abs(laplacian_values(f, torus64))) == 0.0

    def test_fourier_eigenfunction(self, torus64):
        X, _ = torus64.coords()
        f = np.sin(2 * np.pi * X / torus64.extent1)
        expect = -((2 * np.pi / torus64.extent1) ** 2) * f
        assert np.max(np.abs(laplacian_values(f, torus64) - expect)) < 1e-12

    def test_box_matches_dense_matrix(self, rng):
        # assemble the 5-point matrix explicitly on a 16x16 grid and compare
        dom = GridDomain.box(3.0, 16)
        h = dom.h1
        n = 16
        t = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
        eye = sp.identity(n)
        dense = sp.kron(t, eye) + sp.kron(eye, t)
        f = rng.standard_normal(dom.shape)
        expect = (dense @ f.ravel()).reshape(n, n)
        assert np.max(np.abs(laplacian_values(f, dom) - expect)) < 1e-12

    @pytest.mark.parametrize("n1, n2", [(32, 32)])
    def test_box_stencil_matches_node_loop(self, n1, n2, rng):
        dom = GridDomain("box", n1, n2, 3.0, 3.0)
        values = rng.standard_normal((2, n1, n2))
        ring = rng.standard_normal((2, n1 + 2, n2 + 2))  # only its edges are ghosts
        w1, w2 = 1.0 / dom.h1**2, 1.0 / dom.h2**2
        for lap, ghosts in ((box_laplacian_ring(values, box_ring_edges(ring), dom), ring),
                            (laplacian_values(values, dom), np.zeros_like(ring))):
            for k in range(2):
                p = ghosts[k].copy()
                p[1:-1, 1:-1] = values[k]
                for i in range(1, n1 + 1):
                    for j in range(1, n2 + 1):
                        terms = (w1 * p[i - 1, j], w1 * p[i + 1, j], -2.0 * w1 * p[i, j],
                                 w2 * p[i, j - 1], w2 * p[i, j + 1], -2.0 * w2 * p[i, j])
                        bound = 1e-13 * sum(abs(t) for t in terms)
                        assert abs(lap[k, i - 1, j - 1] - math.fsum(terms)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), species=st.integers(1, 2),
           n=st.integers(8, 24).map(lambda k: 2 * k), extent=st.floats(1e-2, 1e2),
           scale=st.floats(1e-6, 1e6))
    def test_pad_free_stencil_matches_padded(self, seed, species, n, extent, scale):
        # the box stencils read the ghost edges where they reach them instead
        # of padding a copy of the stack; each node's sum rounds as the padded
        # form's does, so the two agree bit for bit, ring or zero ghosts
        rng = np.random.default_rng(seed)
        dom = GridDomain.box(extent, n)
        values = scale * rng.standard_normal((species + 1, n, n))
        ring = box_ring_edges(scale * rng.standard_normal((species + 1, n + 2, n + 2)))
        assert np.array_equal(box_laplacian_ring(values, ring, dom),
                              padded_laplacian(box_pad_with_ring(values, ring), dom))
        zeros = np.pad(values, ((0, 0), (1, 1), (1, 1)))
        assert np.array_equal(laplacian_values(values, dom), padded_laplacian(zeros, dom))

    @pytest.mark.parametrize("kind", ["torus", "box"])
    @pytest.mark.parametrize("laplacian", [laplacian_values, laplacian4_values])
    def test_stack_matches_per_field(self, kind, laplacian, rng):
        # leading axes index fields: a stack gives each field's own values
        dom = (GridDomain.torus(2 * np.pi, 4 * np.pi, 32, 48) if kind == "torus"
               else GridDomain.box(3.0, 32))
        stack = rng.standard_normal((2, 3) + dom.shape)
        out = laplacian(stack, dom)
        for k in np.ndindex(2, 3):
            assert np.array_equal(out[k], laplacian(stack[k], dom)), k

    def test_divergence_theorem_torus(self, torus64, rng):
        lap = laplacian_values(smooth_random(torus64, rng, mean_zero=False), torus64)
        val = integrate_values(lap, torus64)
        scale = max(np.max(np.abs(lap)), 1.0)
        assert abs(val) <= 1e-10 * scale * torus64.area

    def test_fourth_order_torus_eigen(self, torus64):
        X, _ = torus64.coords()
        f = np.sin(2 * np.pi * X / torus64.extent1)
        out = laplacian4_values(f, torus64)
        k = 2 * np.pi / torus64.extent1
        # 4th-order stencil symbol differs from -k^2 at O(h^4 k^6)
        assert np.max(np.abs(out + k**2 * f)) < 1e-4

    @staticmethod
    def rolled4(values, dom):
        """The torus 4th-order stencil over np.roll shifts of the field."""
        out = np.zeros_like(values)
        for axis, h in ((0, dom.h1), (1, dom.h2)):
            acc = np.zeros_like(values)
            for k, w in zip((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0)):
                acc += w * np.roll(values, -k, axis=axis)
            out += acc / (12.0 * h**2)
        return out

    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(8, 40).map(lambda k: 2 * k),
           n2=st.integers(8, 40).map(lambda k: 2 * k),
           l1=st.floats(0.1, 100.0), aspect=st.sampled_from([None, 0.37, 2.9]),
           seed=st.integers(0, 2**32 - 1))
    def test_fourth_order_torus_matches_rolled(self, n1, n2, l1, aspect, seed):
        # aspect None gives square cells; otherwise h2 = aspect * h1
        l2 = l1 * n2 / n1 * (1.0 if aspect is None else aspect)
        dom = GridDomain.torus(l1, l2, n1, n2)
        values = np.random.default_rng(seed).standard_normal(dom.shape)
        assert np.array_equal(laplacian4_values(values, dom), self.rolled4(values, dom))


class TestIntegrate:
    def test_constant_on_torus(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        assert integrate_values(np.ones(dom.shape), dom) == pytest.approx(
            4 * np.pi**2, rel=1e-14)

    def test_zero_mean_mode(self, torus64):
        X, _ = torus64.coords()
        f = np.sin(2 * np.pi * X / torus64.extent1)
        assert abs(integrate_values(f, torus64)) < 1e-12

    def test_gaussian_against_1d_quadrature(self):
        # separable reference: (∫ e^{-x^2} dx over [-10,10])^2 from adaptive 1-D quadrature
        dom = GridDomain.box(10.0, 256)
        X, Y = dom.coords()
        val = integrate_values(np.exp(-(X**2) - Y**2), dom)
        ref_1d, _ = quad(lambda x: np.exp(-(x**2)), -10.0, 10.0, epsabs=1e-14)
        assert val == pytest.approx(ref_1d**2, abs=1e-6)
        assert val == pytest.approx(np.pi, abs=1e-6)


class TestDirichletInner:
    def test_constant_is_zero(self, torus64):
        f = np.full(torus64.shape, 2.0)
        assert dirichlet_inner_values(f, f, torus64) == pytest.approx(0.0, abs=1e-12)

    def test_parseval_sine(self, torus64):
        X, _ = torus64.coords()
        f = np.sin(2 * np.pi * X / torus64.extent1)
        expect = (2 * np.pi / torus64.extent1) ** 2 * torus64.area / 2
        assert dirichlet_inner_values(f, f, torus64) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("kind", ["torus", "box"])
    def test_adjoint_to_laplacian(self, kind, rng, torus64, box32):
        dom = torus64 if kind == "torus" else box32
        f = rng.standard_normal(dom.shape)
        g = rng.standard_normal(dom.shape)
        lhs = dirichlet_inner_values(f, g, dom)
        rhs = -integrate_values(f * laplacian_values(g, dom), dom)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("box", "torus")),
           n1=st.integers(8, 16).map(lambda k: 2 * k),
           n2=st.integers(8, 16).map(lambda k: 2 * k), extent=st.floats(1e-2, 1e2),
           scale=st.floats(1e-6, 1e6))
    def test_adjointness_property(self, seed, kind, n1, n2, extent, scale):
        # Σ f·(-Δg)·h² = ∫∇f·∇g on random fields; the bound is relative to the
        # summed magnitudes of the terms (of order ‖f‖‖Δg‖h²), so a sum that
        # cancels to near zero still gets a round-off floor
        rng = np.random.default_rng(seed)
        if kind == "box":
            dom = GridDomain.box(extent, n1)
        else:
            dom = GridDomain.torus(extent * n1, extent * n2, n1, n2)
        f = scale * rng.standard_normal(dom.shape)
        g = rng.standard_normal(dom.shape)
        terms = -f * laplacian_values(g, dom) * dom.cell_area
        bound = 1e-12 * float(np.sum(np.abs(terms)))
        assert abs(dirichlet_inner_values(f, g, dom) - float(np.sum(terms))) <= bound

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 16).map(lambda k: 2 * k),
           extent=st.floats(1e-2, 1e2), scale=st.floats(1e-6, 1e6))
    def test_ring_adjointness_property(self, seed, n, extent, scale):
        # with ghost rings rf, rg: the ring Dirichlet form is -Σ f·Δ_ring g·h²
        # plus, over each ghost, rf·(rg - g at the adjacent node)·(h⊥/h∥)
        rng = np.random.default_rng(seed)
        dom = GridDomain.box(extent, n)
        f = scale * rng.standard_normal(dom.shape)
        g = rng.standard_normal(dom.shape)
        rf = scale * rng.standard_normal((n + 2, n + 2))
        rg = rng.standard_normal((n + 2, n + 2))
        rx, ry = dom.h2 / dom.h1, dom.h1 / dom.h2
        ghost = np.concatenate([
            rf[0, 1:-1] * (rg[0, 1:-1] - g[0, :]) * rx,
            rf[-1, 1:-1] * (rg[-1, 1:-1] - g[-1, :]) * rx,
            rf[1:-1, 0] * (rg[1:-1, 0] - g[:, 0]) * ry,
            rf[1:-1, -1] * (rg[1:-1, -1] - g[:, -1]) * ry])
        terms = np.concatenate([
            (-f * box_laplacian_ring(g, box_ring_edges(rg), dom) * dom.cell_area).ravel(),
            ghost])
        bound = 1e-12 * float(np.sum(np.abs(terms)))
        assert abs(box_dirichlet_ring(f, box_ring_edges(rf), g, box_ring_edges(rg), dom)
                   - float(np.sum(terms))) <= bound

    def test_symmetry(self, rng, torus64):
        f = rng.standard_normal(torus64.shape)
        g = rng.standard_normal(torus64.shape)
        assert dirichlet_inner_values(f, g, torus64) == pytest.approx(
            dirichlet_inner_values(g, f, torus64), rel=1e-12)

    def test_nonnegative_zero_iff_trivial(self, rng, torus64, box32):
        f = smooth_random(torus64, rng)
        assert dirichlet_inner_values(f, f, torus64) > 0
        c = np.full(torus64.shape, -1.3)
        assert dirichlet_inner_values(c, c, torus64) == pytest.approx(0.0, abs=1e-12)
        fb = smooth_random(box32, rng)
        assert dirichlet_inner_values(fb, fb, box32) > 0
        # on the box even a constant has gradient energy against the zero wall
        cb = np.ones(box32.shape)
        assert dirichlet_inner_values(cb, cb, box32) > 0


class TestProjectMeanZero:
    """The mean-zero split u = u' + c1 that the torus solver and verify use."""

    def test_constant_to_zero(self, torus64):
        state = TorusState.from_full(np.full(torus64.shape, 5.0),
                                     np.full(torus64.shape, -0.5), torus64)
        assert max(np.max(np.abs(state.u_prime)), np.max(np.abs(state.v_prime))) < 1e-12
        assert (state.c1, state.c2) == (pytest.approx(5.0, rel=1e-15),
                                        pytest.approx(-0.5, rel=1e-15))

    def test_idempotent(self, rng, torus64):
        once = TorusState.from_full(rng.standard_normal(torus64.shape),
                                    rng.standard_normal(torus64.shape), torus64)
        twice = TorusState.from_full(once.u_prime, once.v_prime, torus64)
        assert np.max(np.abs(once.u_prime - twice.u_prime)) < 1e-15
        assert np.max(np.abs(once.v_prime - twice.v_prime)) < 1e-15

    def test_shift_recovery(self, rng, torus64):
        u = smooth_random(torus64, rng) + 2.5
        v = smooth_random(torus64, rng) - 1.5
        state = TorusState.from_full(u, v, torus64)
        assert (state.c1, state.c2) == (pytest.approx(2.5, abs=1e-12),
                                        pytest.approx(-1.5, abs=1e-12))
        for part in (state.u_prime, state.v_prime):
            assert abs(integrate_values(part, torus64)) < 1e-10
        assert np.max(np.abs(state.u - u)) < 1e-12
        assert np.max(np.abs(state.v - v)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linearity(self, a, b):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 16, 16)
        r = np.random.default_rng(7)
        f = r.standard_normal(dom.shape)
        g = r.standard_normal(dom.shape)
        lhs = TorusState.from_full(a * f + b * g, a * g - b * f, dom)
        s_f = TorusState.from_full(f, g, dom)
        s_g = TorusState.from_full(g, -f, dom)
        tol = 1e-12 * (1 + abs(a) + abs(b))
        assert np.max(np.abs(lhs.u_prime - a * s_f.u_prime - b * s_g.u_prime)) < tol
        assert np.max(np.abs(lhs.v_prime - a * s_f.v_prime - b * s_g.v_prime)) < tol


class TestPoisson:
    def test_roundtrip(self, rng, torus64):
        rhs = smooth_random(torus64, rng)
        u = poisson_solve_torus(rhs, torus64)
        assert np.max(np.abs(laplacian_values(u, torus64) - rhs)) < 1e-10
        assert abs(u.mean()) < 1e-14


# the plane preconditioner's float32 pair: 16 float32 ulps, relative
_F32_BOUND = 16 * float(np.finfo(np.float32).eps)


class TestBoxShiftedInverse:
    @staticmethod
    def direct(values, dom, c_lap, c_id):
        """(c_lap*(-Δ_5) + c_id)^(-1), zero ghosts, with the type-I sine-mode
        eigenvalues built here."""
        lam = [(4.0 / h**2) * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
               for n, h in ((dom.n1, dom.h1), (dom.n2, dom.h2))]
        lam = lam[0][:, None] + lam[1][None, :]
        c_lap = np.reshape(c_lap, np.shape(c_lap) + (1, 1))
        c_id = np.reshape(c_id, np.shape(c_id) + (1, 1))
        vh = dstn(values, type=1, norm="ortho", axes=(-2, -1))
        return idstn(vh / (c_lap * lam + c_id), type=1, norm="ortho", axes=(-2, -1))

    @staticmethod
    def antisymmetric_operator(values, dom, c_lap, c_id):
        """c_lap*(-Δ_5) + c_id with antisymmetric ghosts (ghost = -neighbour),
        stencil written out here."""
        p = np.pad(values, [(0, 0)] * (values.ndim - 2) + [(1, 1), (1, 1)])
        p[..., 0, :], p[..., -1, :] = -p[..., 1, :], -p[..., -2, :]
        p[..., :, 0], p[..., :, -1] = -p[..., :, 1], -p[..., :, -2]
        c = p[..., 1:-1, 1:-1]
        neg_lap = ((2.0 * c - p[..., :-2, 1:-1] - p[..., 2:, 1:-1]) / dom.h1**2
                   + (2.0 * c - p[..., 1:-1, :-2] - p[..., 1:-1, 2:]) / dom.h2**2)
        c_lap = np.reshape(c_lap, np.shape(c_lap) + (1, 1))
        c_id = np.reshape(c_id, np.shape(c_id) + (1, 1))
        return c_lap * neg_lap + c_id * values

    @staticmethod
    def vacuum(dom, species, a, b):
        """The plane operator at (α, β) = (a, b) on the vortex-free background,
        and the coefficients (c_lap, c_id) of its vacuum Hessian: Dirichlet
        weights M/α for f and 1/β for each f_i."""
        params = ModelParams(alpha=a, beta=b, species=species)
        bg = plane_background(VortexSet(((),) * species), params.lambda_bg, dom)
        c_lap = 2.0 * np.array([species / a] + [1.0 / b] * species) * dom.cell_area
        c_id = np.array([8.0 * a * species] + [8.0 * b] * species) * dom.cell_area
        return PlaneOperator(bg, params), c_lap, c_id

    @pytest.mark.parametrize("dom", [GridDomain.box(5.0, 32), GridDomain.box(7.0, 48)],
                             ids=["L5_n32", "L7_n48"])
    @pytest.mark.parametrize("species", [1, 2, 3])
    def test_type_two_pair_inverts_antisymmetric_operator(self, dom, species, rng):
        # in float64 the type-II pair is the exact inverse of the vacuum
        # Hessian with antisymmetric ghosts: applying that operator to its
        # output gives the input back
        _, c_lap, c_id = self.vacuum(dom, species, 0.7, 1.3)
        values = rng.standard_normal((species + 1,) + dom.shape)
        out = box_shifted_inverse(values, box_symbol(dom, c_lap, c_id, _type=2), _type=2)
        back = self.antisymmetric_operator(out, dom, c_lap, c_id)
        np.testing.assert_allclose(back, values, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(values)))

    @pytest.mark.parametrize("dom", [GridDomain.box(5.0, 32), GridDomain.box(7.0, 48)],
                             ids=["L5_n32", "L7_n48"])
    @pytest.mark.parametrize("species", [1, 2, 3])
    def test_operator_precond_matches_direct(self, dom, species, rng):
        # the plane operator applies that inverse in float32: within
        # _F32_BOUND of the float64 inverse, relative to its largest entry,
        # and symmetric to the same bound, as L-BFGS and MINRES need
        op, c_lap, c_id = self.vacuum(dom, species, 0.7, 1.3)
        values = rng.standard_normal((species + 1,) + dom.shape)
        out = op.precond_flat(values.ravel())
        assert out.dtype == np.float64
        expect = box_shifted_inverse(values, box_symbol(dom, c_lap, c_id, _type=2), _type=2)
        assert np.max(np.abs(out - expect.ravel())) <= _F32_BOUND * np.max(np.abs(expect))
        w = rng.standard_normal(values.size)
        pw = op.precond_flat(w)
        defect = abs(np.vdot(w, out) - np.vdot(values.ravel(), pw))
        assert defect <= _F32_BOUND * (np.linalg.norm(w) * np.linalg.norm(out)
                                       + np.linalg.norm(values) * np.linalg.norm(pw))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), species=st.sampled_from([1, 2, 3]),
           a=st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
           b=st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
           scales=st.lists(st.sampled_from([1e-300, 1.0, 1e300]), min_size=4, max_size=4))
    @example(seed=0, species=1, a=1.0, b=1e60, scales=[1.0] * 4)
    def test_operator_precond_positive_and_symmetric_at_any_scale(
            self, seed, species, a, b, scales):
        # each plane goes to float32 at its own power of two, and so does each
        # plane of the symbol: planes at 10^±300, or symbols 1e60 apart,
        # neither overflow nor flush to zero, and raise no warning
        rng = np.random.default_rng(seed)
        dom = GridDomain.box(5.0, 16)
        op, c_lap, c_id = self.vacuum(dom, species, a, b)
        s = np.reshape(scales[:species + 1], (-1, 1, 1))
        u, v = rng.standard_normal((2,) + op.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pu = op.precond_flat((s * u).ravel()).reshape(op.shape) / s
            pv = op.precond_flat((s * v).ravel()).reshape(op.shape) / s
        expect = box_shifted_inverse(u, box_symbol(dom, c_lap, c_id, _type=2), _type=2)
        assert np.max(np.abs(pu - expect)) <= _F32_BOUND * np.max(np.abs(expect))
        assert np.vdot(u, pu) > 0 and np.vdot(v, pv) > 0
        defect = abs(np.vdot(v, pu) - np.vdot(u, pv))
        assert defect <= _F32_BOUND * (np.linalg.norm(v) * np.linalg.norm(pu)
                                       + np.linalg.norm(u) * np.linalg.norm(pv))

    @pytest.mark.parametrize("dom", [GridDomain.box(5.0, 32), GridDomain.box(7.0, 48)],
                             ids=["L5_n32", "L7_n48"])
    def test_background_poisson_pair_is_type_one(self, dom, rng):
        # the background's Poisson solve needs the exact zero-ghost inverse
        # (test_background.py checks its 5-point residual): the default pair
        values = rng.standard_normal((2,) + dom.shape)
        c_lap, c_id = np.array([1.0, 0.3]), np.array([0.0, 2.0])
        out = box_shifted_inverse(values, box_symbol(dom, c_lap, c_id))
        expect = self.direct(values, dom, c_lap, c_id)
        np.testing.assert_allclose(out, expect, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(expect)))


def _csv_oracle(field):
    """The reference u.csv bytes: csv.writer rows of repr'd floats."""
    xg, yg = field.domain.coords()
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "value"])
    for i in range(field.domain.n1):
        for j in range(field.domain.n2):
            writer.writerow([repr(float(xg[i, j])), repr(float(yg[i, j])),
                             repr(float(field.values[i, j]))])
    return buf.getvalue().encode()


_SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.5e-310, 1e16, 1e-5)
_EVEN_SIZES = st.integers(8, 24).map(lambda k: 2 * k)


@st.composite
def _fields(draw):
    """A box field or a torus field (non-square when n1 != n2) of random values,
    with each special value planted at a random node."""
    if draw(st.sampled_from(("box", "torus"))) == "box":
        dom = GridDomain.box(draw(st.floats(1e-3, 1e4)), draw(_EVEN_SIZES))
    else:
        n1, n2 = draw(_EVEN_SIZES), draw(_EVEN_SIZES)
        h = draw(st.floats(1e-4, 1e2))  # the binary header needs square cells
        dom = GridDomain.torus(h * n1, h * n2, n1, n2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(dom.shape) * 10.0 ** rng.integers(-30, 30, dom.shape)
    nodes = rng.choice(values.size, len(_SPECIAL_VALUES), replace=False)
    values.flat[nodes] = _SPECIAL_VALUES
    return ScalarField(dom, values)


class TestSerialization:
    def test_binary_roundtrip_torus(self, rng, tmp_path):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        f = ScalarField(dom, rng.standard_normal(dom.shape))
        path = tmp_path / "field.bin"
        write_field(path, f)
        assert path.stat().st_size == 16 + 8 * 32 * 32
        back = read_field(path)
        assert back.domain.kind == "torus"
        assert back.domain.shape == (32, 32)
        np.testing.assert_array_equal(back.values, f.values)
        assert back.domain.extent1 == pytest.approx(dom.extent1, rel=1e-6)

    def test_binary_roundtrip_box(self, rng, tmp_path):
        dom = GridDomain.box(5.0, 16)
        f = ScalarField(dom, rng.standard_normal(dom.shape))
        path = tmp_path / "field.bin"
        write_field(path, f)
        back = read_field(path)
        assert back.domain.kind == "box"
        assert back.domain.extent1 == pytest.approx(5.0)
        np.testing.assert_array_equal(back.values, f.values)

    @settings(max_examples=30, deadline=None)
    @given(field=_fields())
    def test_binary_roundtrip_property(self, field, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "field.bin"
        write_field(path, field)
        back = read_field(path)
        assert back.values.tobytes() == field.values.tobytes()
        dom = field.domain
        stored = float(np.float32(dom.extent1))
        if dom.kind == "torus":
            expect = GridDomain.torus(stored, stored * dom.n2 / dom.n1, dom.n1, dom.n2)
        else:
            expect = GridDomain.box(stored, dom.n1)
        assert back.domain == expect
        for got, want in ((back.domain.extent1, dom.extent1),
                          (back.domain.extent2, dom.extent2)):
            assert got == pytest.approx(want, rel=2.0**-23)

    def test_truncated_payload_rejected(self, rng, tmp_path):
        # a payload cut mid-value and a header kind code that is neither 0
        # nor 1 are refused as DomainError, not as a bare ValueError
        dom = GridDomain.box(5.0, 16)
        path = tmp_path / "field.bin"
        write_field(path, ScalarField(dom, rng.standard_normal(dom.shape)))
        raw = path.read_bytes()
        for cut in (8, 3):
            path.write_bytes(raw[:-cut])
            with pytest.raises(DomainError, match="payload"):
                read_field(path)
        for code in (float("nan"), 2.0):
            path.write_bytes(raw[:8] + struct.pack("<f", code) + raw[12:])
            with pytest.raises(DomainError, match="kind code"):
                read_field(path)

    def test_csv(self, tmp_path):
        dom = GridDomain.box(1.0, 16)
        X, Y = dom.coords()
        write_csv(tmp_path / "f.csv", ScalarField(dom, X + Y))
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 16 * 16
        x, y, v = (float(t) for t in lines[1].split(","))
        assert v == pytest.approx(x + y)

    @settings(max_examples=30, deadline=None)
    @given(field=_fields())
    def test_csv_bytes_match_csv_writer(self, field, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        write_csv(path, field)
        assert path.read_bytes() == _csv_oracle(field)
