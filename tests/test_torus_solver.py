import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csvortex.torus as torus_mod

from csvortex.background import VortexSet, torus_background
from csvortex.cli import main
from csvortex.diagnostics import max_principle_check, quantized_integrals_torus
from csvortex.errors import (
    AdmissibilityError,
    BoundaryTrappingError,
    InfeasibleError,
    MountainPassCollapseError,
)
from csvortex.fields import (
    GridDomain,
    _k2,
    dirichlet_inner_values,
    integrate_values,
    laplacian_values,
)
from csvortex.model import ModelParams
from csvortex.torus import (
    TorusOperator,
    TorusSolveOpts,
    _CMaps,
    admissibility_margins,
    feasibility,
    gamma,
    minimize_torus,
    mountain_pass,
    reconstruct_original,
    w12_norm,
)

from conftest import full_k2, smooth_random


@pytest.fixture(scope="module")
def setup():
    dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
    vs = VortexSet.single([(np.pi, np.pi)])
    bg = torus_background(vs, dom)
    params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
    return dom, vs, bg, params


@pytest.fixture(scope="module")
def small():
    """The 32² torus at alpha=30, beta=45 and its first solution."""
    dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
    vs = VortexSet.single([(np.pi, np.pi)])
    params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
    first, info = minimize_torus(params, vs, dom, TorusSolveOpts(tol=1e-10))
    return dom, info["bg"], params, first


@pytest.fixture(scope="module")
def first_solution(setup):
    dom, vs, bg, params = setup
    state, info = minimize_torus(params, vs, dom, TorusSolveOpts(tol=1e-10))
    return state, info


class TestEnergyGradient:
    def test_zero_case(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        z = np.zeros(dom.shape)
        op = TorusOperator(bg, params)
        assert op.energy(z, z) == pytest.approx(0.0, abs=1e-14)
        gu, gv = op.gradient(z, z)
        assert np.max(np.abs(gu)) < 1e-14
        assert np.max(np.abs(gv)) < 1e-14

    def test_nonnegative_without_vortices(self, rng):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        op = TorusOperator(bg, ModelParams(1.0, 2.0, sigma=3.0))
        for _ in range(10):
            u = smooth_random(dom, rng, 0.7, mean_zero=False)
            v = smooth_random(dom, rng, 0.7, mean_zero=False)
            assert op.energy(u, v) >= 0.0

    def test_term_by_term_oracle(self, setup, rng):
        dom, _, bg, params = setup
        u = smooth_random(dom, rng, 0.4, mean_zero=False) - 0.2
        v = smooth_random(dom, rng, 0.4, mean_zero=False) - 0.1
        a, b = params.alpha, params.beta
        P = np.exp(bg.u0 + u)
        R = np.exp(v)
        from csvortex.fields import dirichlet_inner_values

        ref = 0.25 * (1 / a + 1 / b) * (dirichlet_inner_values(u, u, dom)
                                        + dirichlet_inner_values(v, v, dom))
        ref += 0.5 * (1 / a - 1 / b) * dirichlet_inner_values(u, v, dom)
        ref += a * integrate_values((P + R - 2) ** 2, dom)
        ref += b * integrate_values((P - R) ** 2, dom)
        src = 4 * np.pi * bg.n / dom.area
        ref += src * (1 / a + 1 / b) * integrate_values(u, dom)
        ref += src * (1 / a - 1 / b) * integrate_values(v, dom)
        assert TorusOperator(bg, params).energy(u, v) == pytest.approx(ref, rel=1e-12)

    def test_gradient_central_differences(self, setup, rng):
        dom, _, bg, params = setup
        op = TorusOperator(bg, params)
        u = smooth_random(dom, rng, 0.2, mean_zero=False) - 0.1
        v = smooth_random(dom, rng, 0.2, mean_zero=False)
        x = op.pack(u, v)
        _, g = op.fun_grad_flat(x)
        worst = 0.0
        for _ in range(10):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            t = 1e-5
            fd = (op.fun_grad_flat(x + t * d)[0]
                  - op.fun_grad_flat(x - t * d)[0]) / (2 * t)
            an = float(g @ d)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-30))
        assert worst <= 1e-6

    def test_constant_pairing_vanishes_after_solve_c(self, setup, rng):
        # the zero-mode component of the gradient is exactly the constraint
        dom, _, bg, params = setup
        up = smooth_random(dom, rng, 0.4)
        vp = smooth_random(dom, rng, 0.4)
        cs = _CMaps(up, vp, bg, params).solve(saddle=False)
        gu, gv = TorusOperator(bg, params).gradient(up + cs.c1, vp + cs.c2)
        scale = max(np.max(np.abs(gu)), 1.0) * dom.area
        assert abs(integrate_values(gu, dom)) <= 1e-10 * scale
        assert abs(integrate_values(gv, dom)) <= 1e-10 * scale

    def test_hessian_vector_consistency(self, setup, rng):
        dom, _, bg, params = setup
        op = TorusOperator(bg, params)
        x = op.pack(smooth_random(dom, rng, 0.2, mean_zero=False),
                    smooth_random(dom, rng, 0.2, mean_zero=False))
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        t = 1e-6
        u, v = x.reshape(op.shape)
        du, dv = d.reshape(op.shape)
        gp = op.pack(*op.gradient(u + t * du, v + t * dv))
        gm = op.pack(*op.gradient(u - t * du, v - t * dv))
        fd = (gp - gm) / (2 * t)
        hv = op.pack(*op.hess_vec(u, v, du, dv))
        assert np.max(np.abs(fd - hv)) <= 1e-6 * np.max(np.abs(hv))


class TestReducedFunctional:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([3.0, 30.0]),
           count=st.integers(1, 3), amp=st.floats(0.0, 1.0))
    def test_gradient_and_hessian_fourth_order_differences(self, seed, alpha, count,
                                                           amp):
        # on both branches: the gradient is the derivative of the reduced
        # energy, and hess_vec, Schur block included, that of the gradient
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        rng = np.random.default_rng(seed)
        params = ModelParams(alpha=alpha, beta=1.5 * alpha, sigma=2.0)
        centres = [tuple(rng.uniform(0.0, 2 * np.pi, 2)) for _ in range(count)]
        bg = torus_background(VortexSet.single(centres), dom)
        up, vp = smooth_random(dom, rng, amp), smooth_random(dom, rng, amp)
        assume(min(admissibility_margins(up, vp, bg, params)) >= 0.0)
        eps, t = np.finfo(float).eps, 1e-3

        def fourth(fn, x, d):
            return (8.0 * (fn(x + t * d) - fn(x - t * d))
                    - (fn(x + 2 * t * d) - fn(x - 2 * t * d))) / (12.0 * t)

        for saddle in (False, True):
            red = torus_mod._BranchReduced(TorusOperator(bg, params), saddle=saddle)
            x = red.op.pack(up, vp)
            d = red.op.pack(smooth_random(dom, rng, 1.0), smooth_random(dom, rng, 1.0))
            f, g = red.fun_grad(x)
            fd = fourth(lambda y: red.fun_grad(y)[0], x, d)
            an = float(g @ d)
            # the differences carry round-off of about eps·|f|/t
            assert abs(fd - an) <= 1e-7 * abs(an) + eps * abs(f) / t
            hv = red.hess_vec(x, d)
            fdh = fourth(red.grad, x, d)
            assert np.max(np.abs(fdh - hv)) <= (1e-8 * np.max(np.abs(hv))
                                                + eps * np.max(np.abs(g)) / t)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([3.0, 30.0]),
           amp=st.floats(0.0, 1.0), a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0))
    def test_per_field_constants_ignored(self, seed, alpha, amp, a, b):
        # the reduced functional sees only the mean-zero part of each field:
        # mountain_pass starts the saddle descent from the mean-zero pair
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        rng = np.random.default_rng(seed)
        params = ModelParams(alpha=alpha, beta=1.5 * alpha, sigma=2.0)
        bg = torus_background(VortexSet.single([tuple(rng.uniform(0.0, 2 * np.pi, 2))]),
                              dom)
        up, vp = smooth_random(dom, rng, amp), smooth_random(dom, rng, amp)
        assume(min(admissibility_margins(up, vp, bg, params)) >= 0.0)
        w = rng.standard_normal(2 * up.size)

        def close(got, want, scale=0.0):
            return np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), scale)

        for saddle in (False, True):
            red, shifted = (torus_mod._BranchReduced(TorusOperator(bg, params), saddle=saddle)
                            for _ in range(2))
            x = red.op.pack(up, vp)
            f, g = red.fun_grad(x)
            fs, gs = shifted.fun_grad(shifted.op.pack(up + a, vp + b))
            assert abs(fs - f) <= 1e-13 * abs(f)
            # g is a difference of pointwise terms up to this size (saddle
            # branch, alpha=3: 25 times max|g|), which bounds its round-off
            P, R = np.exp(red.lift(x) + np.stack((bg.u0, np.zeros(dom.shape))))
            terms = dom.cell_area * 2.0 * (alpha + params.beta) * np.max(
                (P + R + 2.0) * np.maximum(P, R))
            assert close(gs, g, terms)
            assert np.all(np.abs(g.reshape(2, -1).mean(axis=1)) <= 1e-14 * np.max(np.abs(g)))
            hv = red.hess_vec(x, w)
            assert close(shifted.hess_vec(shifted.op.pack(up + a, vp + b), w), hv)


class TestPreconditioner:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amp=st.floats(0.0, 3.0),
           c1=st.floats(-15.0, 1.0), c2=st.floats(-2.0, 1.0))
    def test_frozen_symbol_spd(self, small, seed, amp, c1, c2):
        # frozen anywhere from the vacuum to the saddle's P ≈ 1e-5 scale, the
        # applied preconditioner stays symmetric and positive definite
        dom, bg, params, _ = small
        rng = np.random.default_rng(seed)
        op = TorusOperator(bg, params)
        op.precondition_at(np.stack((smooth_random(dom, rng, amp) + c1,
                                     smooth_random(dom, rng, amp) + c2)))
        a = rng.standard_normal(2 * dom.n1 * dom.n2)
        b = rng.standard_normal(a.size)
        pa, pb = op.precond_flat(a), op.precond_flat(b)
        scale = np.linalg.norm(pa) * np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(pb)
        assert abs(np.dot(pa, b) - np.dot(a, pb)) <= 1e-13 * scale
        assert np.dot(pa, a) > 0.0

    def test_vacuum_symbol(self, small):
        # at P = R = 1 the frozen symbol is the exact inverse vacuum Hessian,
        # compared on the kept half of the spectrum the operator holds
        dom, bg, params, _ = small
        op = TorusOperator(bg, params)
        k2 = _k2(dom)
        assert k2.shape == op._precond[0].shape == (dom.n1, dom.n2 // 2 + 1)
        aa = op.a * k2 + 2.0 * (params.alpha + params.beta)
        bb = op.b * k2 + 2.0 * (params.alpha - params.beta)
        det = aa * aa - bb * bb
        exact = (aa / det, -bb / det, aa / det)
        scale = np.abs(aa / det) + np.abs(bb / det)
        built = op._precond
        op.precondition_at(np.stack((-bg.u0, np.zeros(dom.shape))))
        for symbol in (built, op._precond):
            for got, want in zip(symbol, exact):
                assert np.max(np.abs(got - want) / scale) <= 1e-14


class FullSpectrumOperator(TorusOperator):
    """The reference: every transform on the full spectrum, by np.fft.fft2."""

    def __init__(self, bg, params):
        super().__init__(bg, params)
        k2 = full_k2(self.domain)
        self._k2_full = k2
        self._stiff = (self.a * k2, self.b * k2, self.a * k2)
        self._precond = self._inverse_symbol(*self._vacuum)

    def _spectra(self, X):
        return np.fft.fft2(X)

    def _apply_symbol(self, wh, symbol):
        s11, s12, s22 = symbol
        out = np.stack((s11 * wh[0] + s12 * wh[1], s12 * wh[0] + s22 * wh[1]))
        return np.real(np.fft.ifft2(out))

    def _dirichlet(self, wh):
        uh, vh = wh
        dens = (0.5 * self.a * (np.abs(uh) ** 2 + np.abs(vh) ** 2)
                + self.b * np.real(uh * np.conj(vh)))
        dom = self.domain
        return float(np.sum(self._k2_full * dens)) * dom.cell_area / (dom.n1 * dom.n2)

    def precond_flat(self, w):
        wh = np.fft.fft2(w.reshape((2,) + self.domain.shape))
        return self._apply_symbol(wh, self._precond).ravel() / self.domain.cell_area


@pytest.fixture(scope="module", params=[(32, 32, 2 * np.pi, 2 * np.pi),
                                        (32, 48, 2 * np.pi, 5.0)],
                ids=["32x32", "32x48"])
def cell(request):
    n1, n2, l1, l2 = request.param
    dom = GridDomain.torus(l1, l2, n1, n2)
    bg = torus_background(VortexSet.single([(1.0, 2.0), (4.0, 1.5)]), dom)
    return dom, bg, ModelParams(alpha=30.0, beta=45.0, sigma=2.0)


class TestHalfSpectrum:
    """Half-spectrum transforms against a full-spectrum reference.

    The fields are smooth plus a white-noise part, so the Nyquist column,
    which the half spectrum holds once, carries weight.
    """

    @staticmethod
    def _field(dom, rng, amp, rough):
        return smooth_random(dom, rng, amp) + rough * rng.standard_normal(dom.shape)

    @staticmethod
    def _close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), amp=st.floats(0.0, 2.0),
           rough=st.floats(0.0, 0.2))
    def test_operator_matches_full_spectrum(self, cell, seed, amp, rough):
        dom, bg, params = cell
        rng = np.random.default_rng(seed)
        u, v = (self._field(dom, rng, amp, rough) for _ in range(2))
        du, dv = (self._field(dom, rng, 1.0, rough) for _ in range(2))
        half, full = TorusOperator(bg, params), FullSpectrumOperator(bg, params)
        e, e_ref = half.energy(u, v), full.energy(u, v)
        assert abs(e - e_ref) <= 1e-12 * abs(e_ref)
        for got, want in zip(half.gradient(u, v), full.gradient(u, v)):
            self._close(got, want)
        for got, want in zip(half.hess_vec(u, v, du, dv), full.hess_vec(u, v, du, dv)):
            self._close(got, want)
        w = rng.standard_normal(2 * dom.n1 * dom.n2)
        self._close(half.precond_flat(w), full.precond_flat(w))
        # and frozen away from the vacuum
        half.precondition_at(np.stack((u - 3.0, v)))
        full.precondition_at(np.stack((u - 3.0, v)))
        self._close(half.precond_flat(w), full.precond_flat(w))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rough=st.floats(0.0, 1.0))
    def test_field_kernels_match_full_spectrum(self, cell, seed, rough):
        dom, _, _ = cell
        rng = np.random.default_rng(seed)
        f, g = (self._field(dom, rng, 1.0, rough) for _ in range(2))
        k2 = full_k2(dom)
        fh, gh = np.fft.fft2(f), np.fft.fft2(g)
        self._close(laplacian_values(f, dom), np.real(np.fft.ifft2(-k2 * fh)))

        def dirichlet(ah, bh):
            return float(np.sum(k2 * np.real(ah * np.conj(bh)))) * dom.cell_area / f.size

        scale = np.sqrt(dirichlet(fh, fh) * dirichlet(gh, gh))
        assert abs(dirichlet_inner_values(f, g, dom) - dirichlet(fh, gh)) <= 1e-12 * scale
        assert abs(dirichlet_inner_values(f, f, dom) - dirichlet(fh, fh)) <= 1e-12 * dirichlet(fh, fh)


class TestMinimizeTorus:
    def test_zero_vortices_zero_state(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        state, info = minimize_torus(params, VortexSet((tuple(),)), dom)
        assert np.max(np.abs(state.u)) < 1e-10
        assert np.max(np.abs(state.v)) < 1e-10
        assert abs(info["energy_I"]) < 1e-12

    def test_infeasible_refused(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        params = ModelParams(0.5, 1.0, sigma=3.0)  # alpha*beta=0.5 < 8pi/|O|
        with pytest.raises(InfeasibleError) as err:
            minimize_torus(params, VortexSet.single([(np.pi, np.pi)]), dom)
        assert err.value.margin < 0

    def test_final_check_is_one_evaluation(self, monkeypatch):
        # the solved state's energy and gradient come from one stacked
        # evaluation, not from the (u, v) views
        def refuse(self, *args):
            raise AssertionError("minimize_torus called a (u, v) view")

        monkeypatch.setattr(TorusOperator, "energy", refuse)
        monkeypatch.setattr(TorusOperator, "gradient", refuse)
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 16, 16)
        params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
        _, info = minimize_torus(params, VortexSet.single([(np.pi, np.pi)]), dom,
                                 TorusSolveOpts(tol=1e-10))
        assert info["grad_inf"] <= 1e-10
        assert info["energy_I"] == info["energies"][-1]
        assert info["energy_J"] == pytest.approx(info["energy_I"], abs=1e-9)

    def test_converged(self, first_solution, setup):
        state, info = first_solution
        assert info["grad_inf"] <= 1e-10
        assert feasibility(setup[3], info["bg"].n, setup[0].area).feasible
        # from the vacuum lift (-u0, 0); the zero state took 88 iterations here
        assert info["iterations"] <= 10

    def test_constants_nonpositive(self, first_solution):
        state, _ = first_solution
        assert state.c1 <= 1e-12
        assert state.c2 <= 1e-12

    def test_mean_zero_parts(self, first_solution):
        state, _ = first_solution
        assert abs(state.u_prime.mean()) < 1e-13
        assert abs(state.v_prime.mean()) < 1e-13

    def test_energy_agreement_I_J(self, first_solution):
        _, info = first_solution
        assert info["energy_J"] == pytest.approx(info["energy_I"], abs=1e-9)

    def test_descent_monotone(self, first_solution):
        es = first_solution[1]["energies"]
        assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(es, es[1:]))

    def test_constraint_residuals(self, first_solution):
        state, info = first_solution
        cs = info["c_solve"]
        assert cs.residual_1 <= 1e-10
        assert cs.residual_2 <= 1e-10
        # the residuals certify the solution's own constants
        assert cs.c1 == pytest.approx(state.c1, abs=1e-12)
        assert cs.c2 == pytest.approx(state.c2, abs=1e-12)

    def test_max_principle(self, first_solution, setup):
        dom, vs, bg, params = setup
        state, info = first_solution
        big_u, big_v = reconstruct_original(state, bg)
        checks = max_principle_check(big_u, big_v, exclude=info["vortex_mask"])
        assert all(c.status == "pass" for c in checks)

    def test_quantized_integrals(self, first_solution, setup):
        dom, vs, bg, params = setup
        state, _ = first_solution
        big_u, big_v = reconstruct_original(state, bg)
        for q in quantized_integrals_torus(big_u, big_v, params, dom, bg.n):
            assert q.rel_error <= 0.01
            assert q.rel_error <= 1e-9  # exact by the discrete constraint identity

    def test_pde_residual_weak_form(self, first_solution, setup):
        # gradient fields are exactly the residuals of the transformed system
        dom, vs, bg, params = setup
        state, info = first_solution
        gu, gv = TorusOperator(bg, params).gradient(state.u, state.v)
        assert max(np.max(np.abs(gu)), np.max(np.abs(gv))) <= 10 * 1e-10


def probe_margin(op, state):
    """Least energy on 8 random points (seed 0) of the W^{1,2} sphere of
    radius 1e-2 about the state, minus the state's energy: > 0 at a strict
    local minimum that the sphere resolves."""
    X = np.stack((state.u, state.v))
    rng = np.random.default_rng(0)
    least = np.inf
    for _ in range(8):
        D = rng.standard_normal(op.shape)
        D *= 1e-2 / w12_norm(D, op.domain)
        least = min(least, op.energy(*(X + D)))
    return least - op.energy(state.u, state.v)


class TestMountainPass:
    def test_second_solution(self, first_solution, setup):
        dom, vs, bg, params = setup
        first, info = first_solution
        second, info2 = mountain_pass(params, first, TorusSolveOpts(tol=1e-9),
                                      bg=bg)
        # distinct, higher energy, small residual
        assert info2["separation"] >= 1e-3
        assert info2["energy_I"] > info2["energy_first"]
        assert info2["grad_inf"] <= 1e-9
        gu, gv = TorusOperator(bg, params).gradient(second.u, second.v)
        assert max(np.max(np.abs(gu)), np.max(np.abs(gv))) <= 1e-6
        # same quantized integrals as the first solution
        big_u, big_v = reconstruct_original(second, bg)
        for q in quantized_integrals_torus(big_u, big_v, params, dom, bg.n):
            assert q.rel_error <= 0.01
        checks = max_principle_check(big_u, big_v, exclude=info["vortex_mask"])
        assert all(c.status == "pass" for c in checks)
        # probe margin: the first solution is a local minimum
        assert probe_margin(TorusOperator(bg, params), first) > 0
        # endpoint drop per the affine bound
        assert info2["endpoint_energy"] < info2["energy_first"] - 1.0
        # mountain-pass level: above the first solution, at most the highest
        # energy on the straight path of constant shifts to the endpoint
        assert info2["energy_first"] < info2["energy_I"] <= info2["path_max_energy"]
        assert info2["relax_trace"] == []
        # the constraint residuals certify the saddle-branch constants, not
        # the upper-branch root of the same mean-zero pair
        cs = info2["c_solve"]
        assert cs.c1 == pytest.approx(second.c1, abs=1e-12)
        assert cs.c2 == pytest.approx(second.c2, abs=1e-12)
        assert cs.residual_1 <= 1e-10
        assert cs.residual_2 <= 1e-10

    def test_trapped_saddle_descent(self, tmp_path, capsys):
        # here the first solution converges, but the saddle descent stops
        # against the admissible-set boundary after a dozen iterations
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
        centres = [(1.0, 1.0), (4.0, 4.0), (2.0, 5.0)]
        opts = TorusSolveOpts(tol=1e-9)
        first, info = minimize_torus(params, VortexSet.single(centres), dom, opts)
        with pytest.raises(BoundaryTrappingError) as err:
            mountain_pass(params, first, opts, bg=info["bg"])
        assert "saddle descent" in str(err.value)
        assert "threshold" not in str(err.value)
        # every rejected trial step violates the first inequality
        assert err.value.constraint == "first"
        assert "first admissibility inequality" in str(err.value)
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": 30.0, "beta": 45.0, "sigma": 2.0},
            "domain": {"kind": "torus", "periods": [2 * np.pi, 2 * np.pi],
                       "n": [32, 32]},
            "vortices": [{"species": 0, "x": x, "y": y} for x, y in centres],
            "opts": {"tol": 1e-9},
        }
        path = tmp_path / "trapped.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve-torus", "--config", str(path), "--out",
                     str(tmp_path / "run"), "--second-solution"]) == 3
        assert "saddle descent" in capsys.readouterr().out

    def test_frozen_preconditioner_work(self, small):
        # the vacuum-preconditioned descent took 364 iterations here
        dom, bg, params, first = small
        _, info = mountain_pass(params, first, TorusSolveOpts(tol=1e-9), bg=bg)
        assert info["iterations"] <= 60
        assert info["minres_unconverged"] == 0
        assert info["minres_iters"] > 0
        assert info["grad_inf"] <= 1e-9

    def test_barrier_constants_solved_once(self, small, monkeypatch):
        # the barrier lift and the first descent evaluation share one root solve
        dom, bg, params, first = small
        saddle_solves = []
        first_eval = []
        solve, lbfgs = torus_mod._solve_c_branch, torus_mod.minimize_lbfgs

        def counted(maps, saddle, newton=True):
            if saddle:
                saddle_solves.append(maps)
            return solve(maps, saddle, newton)

        def spied(fun_grad, x0, **kwargs):
            def fg(x):
                out = fun_grad(x)
                if not first_eval:
                    first_eval.append(len(saddle_solves))
                return out
            return lbfgs(fg, x0, **kwargs)

        monkeypatch.setattr(torus_mod, "_solve_c_branch", counted)
        monkeypatch.setattr(torus_mod, "minimize_lbfgs", spied)
        mountain_pass(params, first, TorusSolveOpts(tol=1e-9), bg=bg)
        assert first_eval == [1]

    def test_hessian_coefficients_once_per_state(self, small, monkeypatch):
        # the MINRES products at one Newton iterate share one coefficient pass
        dom, bg, params, first = small
        calls = []
        coeffs = TorusOperator._coeffs

        def counted(self, X):
            calls.append(1)
            return coeffs(self, X)

        monkeypatch.setattr(TorusOperator, "_coeffs", counted)
        red = torus_mod._BranchReduced(TorusOperator(bg, params))
        x = red.op.pack(first.u_prime, first.v_prime)
        rng = np.random.default_rng(7)
        ws = [rng.standard_normal(x.size) for _ in range(20)]
        products = [red.hess_vec(x, w) for w in ws]
        assert len(calls) <= 21
        # moving to another state and back recomputes, with the same result
        red.hess_vec(0.5 * x, ws[0])
        assert np.array_equal(red.hess_vec(x, ws[0]), products[0])
        fresh = torus_mod._BranchReduced(TorusOperator(bg, params))
        assert np.array_equal(fresh.hess_vec(x, ws[1]), products[1])

    def test_no_second_solution_without_vortices(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        state, info = minimize_torus(params, VortexSet((tuple(),)), dom)
        with pytest.raises(MountainPassCollapseError):
            mountain_pass(params, state, TorusSolveOpts(), bg=info["bg"])


class TestFirstSolutionGate:
    @pytest.mark.parametrize("points, alpha, energy", [
        # three vortices at one point, where a screened seed once stalled
        ([(1.0, 1.0)] * 3, 5.0, 66.88330311740161),
        # one vortex just above the couplings whose descent is trapped
        ([(np.pi, np.pi)], 0.93, 2.706775039741865),
    ], ids=["three_coincident_alpha5", "one_alpha0.93"])
    def test_first_solution_from_the_vacuum_lift(self, points, alpha, energy):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
        params = ModelParams(alpha=alpha, beta=1.5 * alpha, sigma=2.0)
        _, info = minimize_torus(params, VortexSet.single(points), dom, TorusSolveOpts(tol=1e-9))
        assert info["grad_inf"] <= 1e-9
        assert info["energy_I"] == pytest.approx(energy, rel=1e-9)

    @pytest.mark.parametrize("alpha, b_over_a, error", [
        # (1-γ)²αβ|Ω|/(8πn) = 0.965: the admissible set is empty, and the
        # vacuum lift, which maximizes both normalized margins, is refused
        (0.8, 1.5, AdmissibilityError),
        # ratio 1.22: the start passes the gate, and the descent reaches the
        # boundary of the set through the first inequality
        (0.9, 1.5, BoundaryTrappingError),
        # β = 1.2α: the necessary condition holds (margin +1.52), but the
        # ratio is 0.876, so the admissible set is empty
        (0.75, 1.2, AdmissibilityError),
    ], ids=["0.8", "0.9", "0.75-beta1.2"])
    def test_refused_coupling_names_the_inequality(self, alpha, b_over_a, error, tmp_path):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
        vs = VortexSet.single([(np.pi, np.pi)])
        params = ModelParams(alpha=alpha, beta=b_over_a * alpha, sigma=2.0)
        assert feasibility(params, 1, dom.area).feasible
        with pytest.raises(error) as exc:
            minimize_torus(params, vs, dom, TorusSolveOpts(tol=1e-9))
        assert exc.value.constraint == "first"
        msg = str(exc.value)
        ratio = (1 - gamma(params)) ** 2 * params.alpha * params.beta * dom.area / (8 * np.pi)
        if error is AdmissibilityError:
            assert ratio < 1
            assert "the admissible set is empty" in msg
            assert f"(1-gamma)^2*alpha*beta*|Omega|/(8*pi*n) = {ratio:.6g} < 1" in msg
        else:
            assert ratio > 1
            assert "first admissibility inequality" in msg
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": alpha, "beta": b_over_a * alpha, "sigma": 2.0},
            "domain": {"kind": "torus", "periods": [2 * np.pi, 2 * np.pi],
                       "n": [64, 64]},
            "vortices": [{"species": 0, "x": np.pi, "y": np.pi}],
            "opts": {"tol": 1e-9},
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve-torus", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 3
