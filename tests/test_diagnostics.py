import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from csvortex.diagnostics import (
    BoundCheck,
    SolveReport,
    _bilinear,
    decay_fit,
    max_principle_check,
    quantized_integrals_plane,
    quantized_integrals_torus,
)
from csvortex.errors import DiagnosticFailure
from csvortex.fields import GridDomain, integrate_values
from csvortex.model import ModelParams


class TestQuantized:
    def test_vacuum_is_zero(self):
        dom = GridDomain.box(5.0, 32)
        params = ModelParams(1.0, 1.0, species=1)
        z = np.zeros(dom.shape)
        for q in quantized_integrals_plane(z, [z], params, dom, (0,)):
            assert q.computed == pytest.approx(0.0, abs=1e-12)
            assert q.target == 0.0

    def test_plane_hand_assembled(self, rng):
        dom = GridDomain.box(5.0, 32)
        params = ModelParams(1.2, 0.7, species=1)
        u = 0.1 * rng.standard_normal(dom.shape)
        u1 = 0.1 * rng.standard_normal(dom.shape)
        quant = quantized_integrals_plane(u, [u1], params, dom, (2,))
        a, b = params.alpha, params.beta
        A, B = np.exp(u + u1), np.exp(u - u1)
        ref_total = a**2 * integrate_values((A + B - 2) * (A + B), dom) \
            + a * b * integrate_values((A - B) ** 2, dom)
        ref_species = a * b * integrate_values((A + B - 2) * (A - B), dom) \
            + b**2 * integrate_values(A**2 - B**2, dom)
        assert quant[0].computed == pytest.approx(ref_total, rel=1e-12)
        assert quant[0].target == pytest.approx(-8 * np.pi)
        assert quant[1].computed == pytest.approx(ref_species, rel=1e-12)

    def test_torus_hand_assembled(self, rng, torus64):
        params = ModelParams(2.0, 3.0, sigma=2.0)
        U = -0.2 + 0.05 * rng.standard_normal(torus64.shape)
        V = -0.1 + 0.05 * rng.standard_normal(torus64.shape)
        quant = quantized_integrals_torus(U, V, params, torus64, 1)
        a, b = 2.0, 3.0
        ep, em = np.exp(U + V), np.exp(U - V)
        ref1 = a**2 * integrate_values((ep + em) * (ep + em - 2), torus64) \
            + a * b * integrate_values((ep - em) ** 2, torus64)
        ref2 = a * b * integrate_values((ep - em) * (ep + em - 2), torus64) \
            + b**2 * integrate_values(ep**2 - em**2, torus64)
        assert quant[0].computed == pytest.approx(ref1, rel=1e-12)
        assert quant[1].computed == pytest.approx(ref2, rel=1e-12)
        assert quant[0].target == pytest.approx(-4 * np.pi)


class TestDecayFit:
    def test_synthetic_exponential(self):
        # planted profile u = e^{-c r}: ln(u^2 + u^2) slope is exactly -2c
        dom = GridDomain.box(10.0, 256)
        X, Y = dom.coords()
        r = np.hypot(X, Y)
        c = 1.4
        u = np.exp(-c * r)
        params = ModelParams(alpha=c / (2 * math.sqrt(2)), beta=10.0, species=1)
        fit = decay_fit(u, [u], params, dom)
        assert fit.slope == pytest.approx(-2 * c, rel=1e-3)
        assert fit.expected_m == pytest.approx(c)
        assert fit.r_min == pytest.approx(5.0)
        assert fit.r_max == pytest.approx(8.0)

    def test_linearized_k0_tails(self):
        # vacuum linearization: u ~ K_0(2 alpha r), u_1 ~ K_0(2 beta r); the
        # fitted slope sits at -4*min(alpha,beta), not at -decay_mass
        dom = GridDomain.box(20.0, 512)
        X, Y = dom.coords()
        r = np.maximum(np.hypot(X, Y), dom.h1)
        for alpha, beta in ((1.0, 1.0), (0.5, 2.0)):
            u = special.k0e(2 * alpha * r) * np.exp(-2 * alpha * r)
            u1 = special.k0e(2 * beta * r) * np.exp(-2 * beta * r)
            fit = decay_fit(u, [u1], ModelParams(alpha, beta, species=1), dom)
            centre = -4.0 * min(alpha, beta)
            assert abs(fit.slope - centre) / abs(centre) <= 0.15, (alpha, beta)
            assert fit.rel_dev > 0.15, (alpha, beta)

    def test_expected_m_min_rule(self):
        assert ModelParams(0.5, 2.0).decay_mass == pytest.approx(math.sqrt(2))
        assert ModelParams(2.0, 0.5).decay_mass == pytest.approx(math.sqrt(2))

    def test_underflow_guard(self):
        dom = GridDomain.box(10.0, 64)
        X, Y = dom.coords()
        u = np.exp(-50.0 * np.hypot(X, Y))  # annulus values below 1e-280
        params = ModelParams(1.0, 1.0)
        with pytest.raises(DiagnosticFailure):
            decay_fit(u, [u], params, dom)

    @settings(max_examples=30, deadline=None)
    @given(cx=st.floats(-1.5, 1.5), cy=st.floats(-1.5, 1.5), c=st.floats(0.3, 2.0),
           aniso=st.floats(0.0, 0.5), turn=st.floats(0.0, math.pi))
    def test_ray_slopes_match_polyfit(self, cx, cy, c, aniso, turn):
        # an anisotropic tail about the origin, fitted about a centre whose
        # annulus (radii 5 to 8 of the 10-box) stays inside the node hull
        dom = GridDomain.box(10.0, 128)
        X, Y = dom.coords()
        u = np.exp(-c * np.hypot(X, Y) * (1.0 + aniso * np.cos(2.0 * np.arctan2(Y, X) - turn)))
        fit = decay_fit(u, [], ModelParams(1.0, 1.0), dom, center=(cx, cy))
        radii = np.arange(5.0, 8.0, dom.h1)
        for k, slope in enumerate(fit.ray_slopes):
            th = 2.0 * math.pi * k / len(fit.ray_slopes)
            samples = _bilinear(u**2, dom, cx + radii * math.cos(th), cy + radii * math.sin(th))
            oracle = np.polyfit(radii, np.log(samples), 1)[0]
            assert abs(slope - oracle) <= 1e-12 * abs(oracle), k
        assert fit.slope == pytest.approx(np.mean(fit.ray_slopes), rel=1e-15)

    def test_annulus_outside_the_box_refused(self):
        # exact tail slope -4 about the centre; read off clipped edge values,
        # the fit gave -3.89 about (3, 0) and -3.28 about (5, 0), where some
        # rays read slope 0
        dom = GridDomain.box(10.0, 128)
        X, Y = dom.coords()
        params = ModelParams(1.0, 1.0)
        for centre in ((3.0, 0.0), (5.0, 0.0), (0.0, -3.0)):
            u = np.exp(-2.0 * np.hypot(X - centre[0], Y - centre[1]))
            with pytest.raises(DiagnosticFailure, match="decay_center"):
                decay_fit(u, [], params, dom, center=centre)
        u = np.exp(-2.0 * np.hypot(X, Y))
        assert decay_fit(u, [], params, dom).slope == pytest.approx(-4.0, rel=1e-2)

    def test_shifted_centres_within_four_cells(self):
        # the benchmark's CLI workload shifts its vortex and decay centre by
        # up to 4 cells of the 20-box at 224²
        dom = GridDomain.box(20.0, 224)
        X, Y = dom.coords()
        for i, j in ((4, 4), (-4, 4), (4, -4), (-4, -4)):
            x, y = i * dom.h1, j * dom.h2
            u = np.exp(-np.hypot(X - x, Y - y))
            fit = decay_fit(u, [u], ModelParams(1.0, 1.0), dom, center=(x, y))
            assert fit.slope == pytest.approx(-2.0, rel=1e-2)

    def test_box_only(self, torus64):
        with pytest.raises(DiagnosticFailure):
            decay_fit(np.ones(torus64.shape), [], ModelParams(1.0, 1.0), torus64)


class TestMaxPrinciple:
    def test_all_negative_passes(self, torus64):
        U = np.full(torus64.shape, -0.5)
        V = np.full(torus64.shape, -0.1)
        checks = max_principle_check(U, V)
        assert [c.label for c in checks] == ["U", "U+V", "U-V"]
        assert all(c.status == "pass" for c in checks)

    def test_synthetic_violation_located(self, torus64):
        U = np.full(torus64.shape, 0.1)
        V = np.zeros(torus64.shape)
        checks = max_principle_check(U, V)
        assert checks[0].status == "fail"
        assert checks[0].worst == pytest.approx(0.1)
        assert checks[0].node is not None

    def test_vortex_nodes_excluded(self, torus64):
        U = np.full(torus64.shape, -1.0)
        V = np.zeros(torus64.shape)
        U[3, 3] = 5.0  # inside the excluded patch
        mask = np.zeros(torus64.shape, dtype=bool)
        mask[2:5, 2:5] = True
        checks = max_principle_check(U, V, exclude=mask)
        assert all(c.status == "pass" for c in checks)

    def test_roundoff_band(self, torus64):
        U = np.full(torus64.shape, 5e-13)  # within the strictness band
        V = np.zeros(torus64.shape)
        assert all(c.status == "pass" for c in max_principle_check(U, V))


class TestSolveReport:
    def test_stable_text(self):
        rep = SolveReport(mode="plane")
        rep.energy = 1.5
        rep.grad_norm = 1e-9
        rep.iterations = 10
        rep.wall_time = 3.14159
        text1 = rep.to_text()
        text2 = rep.to_text()
        assert text1 == text2
        assert "schema_version = 1" in text1
        assert "wall_time_seconds" in text1
        # a report without a wall time, as verify and decay-fit write, has no timing line
        assert "wall_time_seconds" not in SolveReport(mode="plane").to_text()

    def test_failures_list(self):
        from csvortex.diagnostics import QuantizedIntegral

        rep = SolveReport(mode="torus")
        rep.quantized = [QuantizedIntegral("first", -12.0, -4 * np.pi)]
        rep.pde_residual_same = 1e-3
        rep.max_principle = [BoundCheck("U", "fail", 0.2, (1, 1))]
        bad = rep.failures(quantized_tol=0.01, residual_tol=1e-6)
        assert "quantized.first" in bad
        assert "pde_residual.same_operator" in bad
        assert "max_principle.U" in bad
        rep2 = SolveReport(mode="torus")
        assert rep2.failures(0.01, 1e-6) == []

    def test_failures_reject_nan(self):
        from csvortex.diagnostics import QuantizedIntegral

        def solution(value, computed):
            rep = SolveReport(mode="torus")
            rep.energy = rep.grad_norm = rep.pde_residual_same = value
            rep.quantized = [QuantizedIntegral("first", computed, -4 * np.pi)]
            return rep

        assert solution(1e-9, -4 * np.pi).failures(0.01, 1e-6) == []
        for value in (np.nan, np.inf):
            assert solution(value, value).failures(0.01, 1e-6) == [
                "quantized.first", "energy", "grad_norm", "pde_residual.same_operator"]
        # a NaN flux alone fails, though its rel_error compares False with tol
        rep = solution(1e-9, np.nan)
        assert np.isnan(rep.quantized[0].rel_error)
        assert rep.failures(0.01, 1e-6) == ["quantized.first"]
        # the decay-fit report carries no quantized integrals and no residual
        assert SolveReport(mode="decay-fit").failures(0.01, 1e-6) == []
