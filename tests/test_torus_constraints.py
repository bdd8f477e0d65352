import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csvortex.torus as torus_mod

from csvortex.background import VortexSet, torus_background
from csvortex.errors import AdmissibilityError, ConfigError
from csvortex.fields import GridDomain, integrate_values
from csvortex.model import ModelParams
from csvortex.torus import (
    TorusOperator,
    _CMaps,
    _solve_c_branch,
    admissibility_margins,
    feasibility,
    gamma,
    reduced_energy_J,
    solve_c,
    state_integrals,
)

from conftest import smooth_random


@pytest.fixture(scope="module")
def setup():
    dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
    vs = VortexSet.single([(np.pi, np.pi)])
    bg = torus_background(vs, dom)
    params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
    return dom, bg, params


def admissible_random(dom, bg, params, rng, amp=0.5):
    for _ in range(50):
        up = smooth_random(dom, rng, amp)
        vp = smooth_random(dom, rng, amp)
        if min(admissibility_margins(up, vp, bg, params)) >= 0.0:
            return up, vp
    raise RuntimeError("could not draw an admissible state")


class TestGamma:
    def test_value(self):
        assert gamma(ModelParams(1.0, 3.0, sigma=4.0)) == pytest.approx(0.5)

    def test_limit_beta_to_alpha(self):
        g = gamma(ModelParams(1.0, 1.0 + 1e-9, sigma=2.0))
        assert 0 < g < 1e-8

    def test_equal_couplings_rejected(self):
        with pytest.raises(ConfigError):
            gamma(ModelParams(1.0, 1.0))

    def test_monotone_in_beta(self):
        gs = [gamma(ModelParams(1.0, b, sigma=10.0)) for b in (1.5, 2.0, 3.0, 5.0)]
        assert all(g1 < g2 for g1, g2 in zip(gs, gs[1:]))
        assert all(0 < g < 1 for g in gs)


class TestFeasibility:
    def test_zero_vortices_always_feasible(self):
        f = feasibility(ModelParams(0.1, 0.2), 0, 1.0)
        assert f.feasible

    def test_spec_arithmetic_infeasible(self):
        # alpha*beta = 0.5, |Omega| = 4 pi^2: 0.5*4pi^2 < 8pi
        f = feasibility(ModelParams(0.5, 1.0), 1, 4 * np.pi**2)
        assert not f.feasible
        assert f.margin == pytest.approx(0.5 * 4 * np.pi**2 - 8 * np.pi)

    def test_spec_arithmetic_feasible(self):
        f = feasibility(ModelParams(1.0, 1.0), 1, 4 * np.pi**2)
        assert f.feasible
        assert f.margin == pytest.approx(4 * np.pi**2 - 8 * np.pi)


class TestConstraintCoeffs:
    def test_flat_state_area(self):
        # u'=v'=0, u0=0 (n=0), c2=0: Q1 = (1-gamma)|O| + gamma|O| = |O|
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(1.0, 3.0, sigma=4.0)
        z = np.zeros(dom.shape)
        maps = _CMaps(z, z, bg, params)
        assert maps.q1(1.0) == pytest.approx(dom.area, rel=1e-12)
        assert maps.q2(1.0) == pytest.approx(dom.area, rel=1e-12)
        assert maps.gam == pytest.approx(0.5)

    def test_gamma_to_zero_limit(self, setup, rng):
        dom, bg, _ = setup
        up, vp = smooth_random(dom, rng, 0.3), smooth_random(dom, rng, 0.3)
        params = ModelParams(30.0, 30.0 * (1 + 1e-9), sigma=2.0)
        maps = _CMaps(up, vp, bg, params)
        s = state_integrals(up, vp, bg)
        assert maps.q1(math.exp(-5.0)) == pytest.approx(s.j1, rel=1e-8)

    def test_oracle_quadrature(self, setup, rng):
        dom, bg, params = setup
        up, vp = smooth_random(dom, rng, 0.4), smooth_random(dom, rng, 0.4)
        c1, c2 = -0.3, -0.1
        maps = _CMaps(up, vp, bg, params)
        gam = gamma(params)
        # independent term-by-term quadrature
        q1 = (1 - gam) * integrate_values(np.exp(bg.u0 + up), dom) \
            + gam * math.exp(c2) * integrate_values(np.exp(bg.u0 + up + vp), dom)
        q2 = (1 - gam) * integrate_values(np.exp(vp), dom) \
            + gam * math.exp(c1) * integrate_values(np.exp(bg.u0 + up + vp), dom)
        assert maps.q1(math.exp(c2)) == pytest.approx(q1, rel=1e-12)
        assert maps.q2(math.exp(c1)) == pytest.approx(q2, rel=1e-12)


class TestAdmissible:
    def test_no_vortices_always(self, rng):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(0.01, 0.02, sigma=3.0)
        up, vp = smooth_random(dom, rng, 2.0), smooth_random(dom, rng, 2.0)
        assert min(admissibility_margins(up, vp, bg, params)) >= 0.0

    def test_flat_state_closed_form(self, setup):
        dom, bg, params = setup
        z = np.zeros(dom.shape)
        m1, m2 = admissibility_margins(z, z, bg, params)
        gam = gamma(params)
        s = state_integrals(z, z, bg)
        thr = 8 * np.pi * bg.n / ((1 - gam) ** 2 * params.alpha * params.beta)
        assert m1 == pytest.approx(s.j1**2 - thr * s.e1, rel=1e-12)
        assert m2 == pytest.approx(dom.area**2 - gam * thr * dom.area, rel=1e-12)

    def test_monotone_in_coupling_product(self, setup, rng):
        dom, bg, _ = setup
        up, vp = smooth_random(dom, rng, 1.2), smooth_random(dom, rng, 1.2)
        margins = []
        for scale in (1.0, 2.0, 4.0):
            p = ModelParams(10.0 * scale, 15.0 * scale, sigma=2.0)
            margins.append(admissibility_margins(up, vp, bg, p))
        assert margins[0][0] < margins[1][0] < margins[2][0]
        assert margins[0][1] < margins[1][1] < margins[2][1]


class TestSolveC:
    def test_zero_vortex_flat_root(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        z = np.zeros(dom.shape)
        cs = solve_c(z, z, bg, params)
        assert cs.c1 == pytest.approx(0.0, abs=1e-14)
        assert cs.c2 == pytest.approx(0.0, abs=1e-14)
        assert cs.root == pytest.approx(1.0, rel=1e-14)

    def test_constraint_quadratic_residuals(self, setup, rng):
        dom, bg, params = setup
        for _ in range(5):
            up, vp = admissible_random(dom, bg, params, rng)
            cs = solve_c(up, vp, bg, params)
            assert cs.residual_1 <= 1e-12
            assert cs.residual_2 <= 1e-12

    def test_original_constraints_by_quadrature(self, setup, rng):
        # substitute (c1, c2) back into the integral identities
        dom, bg, params = setup
        gam = gamma(params)
        ab = params.alpha * params.beta
        up, vp = admissible_random(dom, bg, params, rng)
        cs = solve_c(up, vp, bg, params)
        P = np.exp(bg.u0 + up + cs.c1)
        R = np.exp(vp + cs.c2)
        r1 = integrate_values((P - 1) * P, dom) \
            - gam * integrate_values((R - 1) * P, dom) + 2 * np.pi * bg.n / ab
        r2 = integrate_values((R - 1) * R, dom) \
            - gam * integrate_values((P - 1) * R, dom) + 2 * gam * np.pi * bg.n / ab
        assert abs(r1) <= 1e-10 * dom.area
        assert abs(r2) <= 1e-10 * dom.area

    def test_bisection_newton_agreement(self, setup, rng):
        dom, bg, params = setup
        up, vp = admissible_random(dom, bg, params, rng)
        a = solve_c(up, vp, bg, params, method="newton")
        b = solve_c(up, vp, bg, params, method="bisection")
        assert abs(a.root - b.root) <= 1e-10 * a.root

    def test_f_over_x_monotone(self, setup, rng):
        dom, bg, params = setup
        up, vp = admissible_random(dom, bg, params, rng)
        maps = _CMaps(up, vp, bg, params)
        xs = np.sort(rng.uniform(0.02, 8.0, size=100))
        vals = [maps.f(x) / x for x in xs]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))

    def test_g_maps_increasing(self, setup, rng):
        dom, bg, params = setup
        up, vp = admissible_random(dom, bg, params, rng)
        maps = _CMaps(up, vp, bg, params)
        xs = np.linspace(0.05, 5.0, 40)
        g1s = [maps.g1(x) for x in xs]
        g2s = [maps.g2(x) for x in xs]
        assert all(a < b for a, b in zip(g1s, g1s[1:]))
        assert all(a < b for a, b in zip(g2s, g2s[1:]))

    def test_jensen_bounds(self, setup, rng):
        dom, bg, params = setup
        for _ in range(5):
            up, vp = admissible_random(dom, bg, params, rng)
            cs = solve_c(up, vp, bg, params)
            s = state_integrals(up, vp, bg)
            assert math.exp(cs.c1) * s.j1 <= dom.area * (1 + 1e-10)
            assert math.exp(cs.c2) * s.j2 <= dom.area * (1 + 1e-10)
            assert cs.c1 <= 1e-12 and cs.c2 <= 1e-12

    def test_inadmissible_rejected(self, setup):
        dom, bg, _ = setup
        tight = ModelParams(alpha=0.30, beta=0.33, sigma=2.0)
        z = np.zeros(dom.shape)
        assert min(admissibility_margins(z, z, bg, tight)) < 0.0
        with pytest.raises(AdmissibilityError):
            solve_c(z, z, bg, tight)


class TestRootProperties:
    """Both constraint branches on random smooth admissible states."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amp=st.floats(0.0, 2.0),
           alpha=st.floats(2.0, 120.0), ratio=st.floats(1.05, 4.0))
    def test_branch_roots(self, setup, seed, amp, alpha, ratio):
        dom, bg, _ = setup
        params = ModelParams(alpha=alpha, beta=alpha * ratio, sigma=5.0)
        rng = np.random.default_rng(seed)
        up, vp = smooth_random(dom, rng, amp), smooth_random(dom, rng, amp)
        assume(min(admissibility_margins(up, vp, bg, params)) >= 0.0)
        maps = _CMaps(up, vp, bg, params)
        roots = {}
        for saddle, sign in ((False, 1.0), (True, -1.0)):
            lo, hi = maps.bracket(saddle)
            assert maps.f(lo, sign) <= 0.0 <= maps.f(hi, sign)
            c1, c2, x, it = _solve_c_branch(maps, saddle=saddle)
            assert it <= 60
            # the upper root's round-off scale is the sum of the first
            # quadratic's roots, q1/e1; the lower root is formed without
            # cancellation, so its scale is the root itself
            scale = x if saddle else maps.q1(maps.g2(x)) / maps.s.e1
            assert abs(maps.f(x, sign)) <= 8.0 * np.finfo(float).eps * scale
            assert c1 == math.log(x)
            roots[saddle] = x
        assert roots[True] < roots[False]
        a = solve_c(up, vp, bg, params, method="newton")
        b = solve_c(up, vp, bg, params, method="bisection")
        assert a.root == roots[False]
        assert abs(a.root - b.root) <= 1e-12 * a.root

    def test_saddle_root_without_cancellation(self, setup, monkeypatch):
        # at the zero state the saddle root is about 1e-3 of the upper one,
        # where q - √(q² - d) would cancel to |F(X)| ≈ 4e-14·X
        dom, bg, _ = setup
        params = ModelParams(alpha=10.0, beta=40.0, sigma=5.0)
        z = np.zeros(dom.shape)
        maps = _CMaps(z, z, bg, params)
        # the bracket is closed-form: no nested upper-branch solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _solve_c_branch(*args, **kwargs)

        monkeypatch.setattr(torus_mod, "_solve_c_branch", counted)
        x = torus_mod._solve_c_branch(maps, saddle=True)[2]
        assert len(calls) == 1
        assert abs(maps.f(x, -1.0)) <= 8.0 * np.finfo(float).eps * x


class TestQuantizedConstraintIdentity:
    def test_flux_deviation_equals_constraint_residuals(self, setup, rng):
        """Exact algebra tying the flux integrals to the constraint residuals.

        With r7, r8 the integral residuals of the two scalar constraints at
        any state (constrained or not), the flux integrals deviate from
        -4*pi*n by exactly alpha*(alpha+beta)*(r7+r8) and
        beta*(alpha+beta)*(r7-r8); after solve_c both deviations collapse to
        round-off.
        """
        from csvortex.diagnostics import quantized_integrals_torus
        from csvortex.torus import TorusState, reconstruct_original

        dom, bg, params = setup
        gam = gamma(params)
        a, b = params.alpha, params.beta
        ab = a * b
        up, vp = admissible_random(dom, bg, params, rng)
        cs = solve_c(up, vp, bg, params)
        for dc1, dc2 in ((0.0, 0.0), (0.05, -0.02), (-0.1, 0.07)):
            c1, c2 = cs.c1 + dc1, cs.c2 + dc2
            P = np.exp(bg.u0 + up + c1)
            R = np.exp(vp + c2)
            r7 = integrate_values((P - 1) * P, dom) \
                - gam * integrate_values((R - 1) * P, dom) + 2 * np.pi * bg.n / ab
            r8 = integrate_values((R - 1) * R, dom) \
                - gam * integrate_values((P - 1) * R, dom) \
                + 2 * gam * np.pi * bg.n / ab
            st = TorusState(dom, up, vp, c1, c2)
            big_u, big_v = reconstruct_original(st, bg)
            q1, q2 = quantized_integrals_torus(big_u, big_v, params, dom, bg.n)
            dev1 = q1.computed - q1.target
            dev2 = q2.computed - q2.target
            scale = max(abs(dev1), abs(dev2), 1.0)
            assert dev1 == pytest.approx(a * (a + b) * (r7 + r8),
                                         abs=1e-9 * scale)
            assert dev2 == pytest.approx(b * (a + b) * (r7 - r8),
                                         abs=1e-9 * scale)
            if dc1 == 0.0 and dc2 == 0.0:
                assert abs(dev1) <= 1e-9 and abs(dev2) <= 1e-9


class TestReducedEnergy:
    def test_zero_state_zero_vortices(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        z = np.zeros(dom.shape)
        assert reduced_energy_J(z, z, bg, params) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_full_energy(self, setup, rng):
        dom, bg, params = setup
        op = TorusOperator(bg, params)
        for _ in range(5):
            up, vp = admissible_random(dom, bg, params, rng)
            cs = solve_c(up, vp, bg, params)
            full = op.energy(up + cs.c1, vp + cs.c2)
            red = reduced_energy_J(up, vp, bg, params)
            assert red == pytest.approx(full, abs=1e-10 * max(1.0, abs(full)))

    def test_inadmissible_rejected(self, setup):
        dom, bg, _ = setup
        tight = ModelParams(alpha=0.30, beta=0.33, sigma=2.0)
        z = np.zeros(dom.shape)
        with pytest.raises(AdmissibilityError):
            reduced_energy_J(z, z, bg, tight)
