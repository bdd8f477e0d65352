import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csvortex.torus as torus_mod

from csvortex.background import VortexSet, torus_background
from csvortex.cli import main
from csvortex.diagnostics import max_principle_check, quantized_integrals_torus
from csvortex.errors import (
    InfeasibleError,
    MountainPassCollapseError,
    NonConvergenceError,
)
from csvortex.fields import GridDomain, _k2, integrate_values, laplacian_values
from csvortex.model import ModelParams
from csvortex.torus import (
    TorusOperator,
    TorusSolveOpts,
    admissible,
    feasibility,
    minimize_torus,
    mountain_pass,
    reconstruct_original,
    solve_c,
    tarantello_init,
    torus_energy_I,
    torus_gradient_I,
)

from conftest import smooth_random


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
        assert torus_energy_I(z, z, bg, params) == pytest.approx(0.0, abs=1e-14)
        gu, gv = torus_gradient_I(z, z, bg, params)
        assert np.max(np.abs(gu)) < 1e-14
        assert np.max(np.abs(gv)) < 1e-14

    def test_nonnegative_without_vortices(self, rng):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        for _ in range(10):
            u = smooth_random(dom, rng, 0.7, mean_zero=False)
            v = smooth_random(dom, rng, 0.7, mean_zero=False)
            assert torus_energy_I(u, v, bg, params) >= 0.0

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
        assert torus_energy_I(u, v, bg, params) == pytest.approx(ref, rel=1e-12)

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
        cs = solve_c(up, vp, bg, params)
        gu, gv = torus_gradient_I(up + cs.c1, vp + cs.c2, bg, params)
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
        fd = (op.grad_flat(x + t * d) - op.grad_flat(x - t * d)) / (2 * t)
        hv = op.hess_vec_flat(x, d)
        assert np.max(np.abs(fd - hv)) <= 1e-6 * np.max(np.abs(hv))


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
        op.precondition_at(smooth_random(dom, rng, amp) + c1,
                           smooth_random(dom, rng, amp) + c2)
        a = rng.standard_normal(2 * dom.n1 * dom.n2)
        b = rng.standard_normal(a.size)
        pa, pb = op.precond_flat(a), op.precond_flat(b)
        scale = np.linalg.norm(pa) * np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(pb)
        assert abs(np.dot(pa, b) - np.dot(a, pb)) <= 1e-13 * scale
        assert np.dot(pa, a) > 0.0

    def test_vacuum_symbol(self, small):
        # at P = R = 1 the frozen symbol is the exact inverse vacuum Hessian
        dom, bg, params, _ = small
        op = TorusOperator(bg, params)
        k2 = _k2(dom)
        aa = op.a * k2 + 2.0 * (params.alpha + params.beta)
        bb = op.b * k2 + 2.0 * (params.alpha - params.beta)
        det = aa * aa - bb * bb
        exact = (aa / det, -bb / det, aa / det)
        scale = np.abs(aa / det) + np.abs(bb / det)
        built = op._precond
        op.precondition_at(-bg.u0, np.zeros(dom.shape))
        for symbol in (built, op._precond):
            for got, want in zip(symbol, exact):
                assert np.max(np.abs(got - want) / scale) <= 1e-14


class TestTarantello:
    def test_zero_vortices_zero_solution(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        params = ModelParams(1.0, 2.0, sigma=3.0)
        w = tarantello_init(params, bg)
        assert np.max(np.abs(w)) == 0.0

    def test_residual_oracle(self, setup):
        dom, _, bg, params = setup
        lam_t = 4 * params.alpha * params.beta
        w = tarantello_init(params, bg, lam_t)
        e = np.exp(bg.u0 + w)
        resid = laplacian_values(w, dom) - lam_t * e * (e - 1.0) \
            - 8 * np.pi * bg.n / dom.area
        assert np.max(np.abs(resid)) <= 1e-9

    def test_screened_limit_monotone(self, setup):
        # ∫ (e^{u0+w} - 1)^2 decreases as lam_t grows
        dom, _, bg, params = setup
        defs = []
        for lam_t in (200.0, 1000.0, 5000.0):
            w = tarantello_init(params, bg, lam_t)
            e = np.exp(bg.u0 + w)
            defs.append(integrate_values((e - 1.0) ** 2, dom))
        assert defs[0] > defs[1] > defs[2]

    def test_below_vacuum(self, setup):
        # screened solution sits below the vacuum; far-field margins decay
        # exponentially, so allow the round-off band
        dom, _, bg, params = setup
        w = tarantello_init(params, bg)
        assert np.max(bg.u0 + w) <= 1e-9
        assert np.min(bg.u0 + w) < -1e-3

    def test_seed_is_admissible(self, setup):
        dom, _, bg, params = setup
        w = tarantello_init(params, bg)
        wp = w - w.mean()
        assert admissible(wp, np.zeros(dom.shape), bg, params)


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

    def test_converged(self, first_solution):
        state, info = first_solution
        assert info["grad_inf"] <= 1e-10
        assert info["feasibility"].feasible
        # from the screened seed; the zero state took 88 iterations here
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
        cs = first_solution[1]["c_solve"]
        assert cs.residual_1 <= 1e-10
        assert cs.residual_2 <= 1e-10

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
        gu, gv = torus_gradient_I(state.u, state.v, bg, params)
        assert max(np.max(np.abs(gu)), np.max(np.abs(gv))) <= 10 * 1e-10


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
        gu, gv = torus_gradient_I(second.u, second.v, bg, params)
        assert max(np.max(np.abs(gu)), np.max(np.abs(gv))) <= 1e-6
        # same quantized integrals as the first solution
        big_u, big_v = reconstruct_original(second, bg)
        for q in quantized_integrals_torus(big_u, big_v, params, dom, bg.n):
            assert q.rel_error <= 0.01
        checks = max_principle_check(big_u, big_v, exclude=info["vortex_mask"])
        assert all(c.status == "pass" for c in checks)
        # probe margin: the first solution is a local minimum
        assert info2["probe_margin"] > 0
        # endpoint drop per the affine bound
        assert info2["endpoint_energy"] < info2["energy_first"] - 1.0
        # mountain-pass level: above the first solution, at most the highest
        # energy on the straight path of constant shifts to the endpoint
        assert info2["energy_first"] < info2["energy_I"] <= info2["path_max_energy"]
        assert info2["relax_trace"] == []

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
        coeffs = TorusOperator.hess_coeffs

        def counted(self, u, v):
            calls.append(1)
            return coeffs(self, u, v)

        monkeypatch.setattr(TorusOperator, "hess_coeffs", counted)
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


class TestSeedRejection:
    def test_inadmissible_zero_state_coupling_reported(self, tmp_path):
        # near the feasibility edge the zero state leaves the admissible set;
        # there the solve must fail with a typed error and exit code 3
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
        vs = VortexSet.single([(np.pi, np.pi)])
        bg = torus_background(vs, dom)
        params = None
        z = np.zeros(dom.shape)
        for a in np.linspace(0.65, 1.6, 40):
            cand = ModelParams(alpha=a, beta=1.2 * a, sigma=2.0)
            if feasibility(cand, bg.n, dom.area).feasible and not admissible(
                    z, z, bg, cand):
                params = cand
                break
        if params is None:
            pytest.skip("no feasible-but-inadmissible coupling found on this grid")
        with pytest.raises(NonConvergenceError):
            minimize_torus(params, vs, dom, TorusSolveOpts())
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": float(params.alpha), "beta": float(params.beta),
                       "sigma": params.sigma},
            "domain": {"kind": "torus", "periods": [2 * np.pi, 2 * np.pi],
                       "n": [64, 64]},
            "vortices": [{"species": 0, "x": np.pi, "y": np.pi}],
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve-torus", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 3
