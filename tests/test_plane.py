import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvortex.background import VortexSet, plane_background, vortex_node_mask
from csvortex.diagnostics import equation_residuals, quantized_integrals_plane
from csvortex.errors import DomainError, NonConvergenceError
from csvortex.fields import (
    GridDomain,
    box_dirichlet_ring,
    box_ring_edges,
    box_shifted_inverse,
    box_symbol,
    integrate_values,
)
from csvortex.model import ModelParams
import csvortex.plane as plane
from csvortex.plane import (
    PlaneOperator,
    PlaneSolveOpts,
    PlaneState,
    solve_plane,
)

from conftest import smooth_random


def random_state(dom, rng, species, amp=0.1):
    return PlaneState(dom, np.stack([smooth_random(dom, rng, amp)
                                     for _ in range(species + 1)]))


def energy(op, state=None):
    """The operator's energy at a state, the zero state by default."""
    x = np.zeros(op.shape).ravel() if state is None else state.X.ravel()
    return op.fun_grad_flat(x)[0]


def oracle_energy(state, bg, params):
    """Independent term-by-term quadrature of the functional."""
    dom = bg.domain
    m = params.species
    a, b = params.alpha, params.beta
    S = bg.u0_grid_sum
    ring = box_ring_edges(-sum(bg.u0_pad))
    total = (m / a) * box_dirichlet_ring(state.f, ring, state.f, ring, dom)
    sum_terms = np.zeros(dom.shape)
    for i in range(m):
        ring_i = box_ring_edges(-bg.u0_pad[i])
        total += (1.0 / b) * box_dirichlet_ring(state.f_i[i], ring_i,
                                                state.f_i[i], ring_i, dom)
        A = np.exp(S + bg.u0_grid[i] + state.f + state.f_i[i])
        B = np.exp(S - bg.u0_grid[i] + state.f - state.f_i[i])
        sum_terms = sum_terms + (A + B - 2.0)
        total += b * integrate_values((A - B) ** 2, dom)
        total += integrate_values((2.0 * m / a) * state.f * bg.h[i]
                                  + (2.0 / b) * state.f_i[i] * bg.h[i], dom)
    total += (a / m) * integrate_values(sum_terms**2, dom)
    return total


@pytest.fixture
def small_setup(rng):
    dom = GridDomain.box(6.0, 32)
    vs = VortexSet((((0.5, 0.3, 1),), ((-0.8, 0.2, 1), (0.9, -1.1, 1))))
    params = ModelParams(alpha=1.3, beta=0.8, species=2, lambda_bg=2.0)
    bg = plane_background(vs, params.lambda_bg, dom)
    return dom, vs, params, bg


class TestPlaneEnergy:
    def test_zero_everything(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1)
        bg = plane_background(VortexSet((tuple(),)), 10.0, dom)
        assert energy(PlaneOperator(bg, params)) == 0.0

    def test_zero_state_one_vortex_positive(self):
        dom = GridDomain.box(8.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=10.0)
        bg = plane_background(VortexSet.single([(0.0, 0.0)]), 10.0, dom)
        assert energy(PlaneOperator(bg, params)) > 0.0

    def test_term_by_term_oracle(self, small_setup, rng):
        dom, _, params, bg = small_setup
        state = random_state(dom, rng, 2)
        direct = energy(PlaneOperator(bg, params), state)
        ref = oracle_energy(state, bg, params)
        assert direct == pytest.approx(ref, rel=1e-12)


class TestPlaneGradient:
    def test_central_differences(self, small_setup, rng):
        dom, _, params, bg = small_setup
        op = PlaneOperator(bg, params)
        x = random_state(dom, rng, 2).X.ravel()
        _, g = op.fun_grad_flat(x)
        worst = 0.0
        for _ in range(10):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            t = 1e-5
            fd = (op.fun_grad_flat(x + t * d)[0] - op.fun_grad_flat(x - t * d)[0]) / (2 * t)
            an = float(g @ d)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-30))
        assert worst <= 1e-6

    def test_zero_vortex_zero_state_gradient(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1)
        bg = plane_background(VortexSet((tuple(),)), 10.0, dom)
        op = PlaneOperator(bg, params)
        assert np.max(np.abs(op.grad_flat(np.zeros(op.shape).ravel()))) == 0.0

    def test_hessian_vector_consistency(self, small_setup, rng):
        dom, _, params, bg = small_setup
        op = PlaneOperator(bg, params)
        x = random_state(dom, rng, 2).X.ravel()
        d = rng.standard_normal(x.size)
        d /= np.linalg.norm(d)
        t = 1e-6
        fd = (op.grad_flat(x + t * d) - op.grad_flat(x - t * d)) / (2 * t)
        hv = op.hess_vec_flat(x, d)
        assert np.max(np.abs(fd - hv)) <= 1e-6 * np.max(np.abs(hv))

    def test_hessian_memo_follows_the_state(self, small_setup, rng):
        # the reaction matrix is memoized per state: a product at another state
        # in between must not leak into a later product at the first
        dom, _, params, bg = small_setup
        op = PlaneOperator(bg, params)
        x = random_state(dom, rng, 2).X.ravel()
        x2 = random_state(dom, rng, 2).X.ravel()
        v = rng.standard_normal(x.size)
        first = op.hess_vec_flat(x, v)
        second = op.hess_vec_flat(x2, v)
        third = op.hess_vec_flat(x.copy(), v)
        fresh = PlaneOperator(bg, params).hess_vec_flat(x, v)
        assert np.array_equal(first, fresh)
        assert np.array_equal(second, PlaneOperator(bg, params).hess_vec_flat(x2, v))
        assert np.array_equal(third, fresh)


def random_problem(seed, species):
    """Random couplings, vortices and smooth state on a small box."""
    rng = np.random.default_rng(seed)
    dom = GridDomain.box(6.0, 32)
    pts = tuple(tuple((float(x), float(y), 1) for x, y in
                      rng.uniform(-3.0, 3.0, size=(int(rng.integers(0, 3)), 2)))
                for _ in range(species))
    params = ModelParams(alpha=float(rng.uniform(0.5, 2.0)),
                         beta=float(rng.uniform(0.5, 2.0)), species=species,
                         lambda_bg=float(rng.uniform(1.0, 10.0)))
    bg = plane_background(VortexSet(pts), params.lambda_bg, dom)
    return rng, dom, params, bg, random_state(dom, rng, species, amp=0.3)


class TestPlaneProperties:
    """The fused, species-stacked operator against independent references."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), species=st.sampled_from([1, 2, 3]))
    def test_energy_matches_oracle(self, seed, species):
        _, _, params, bg, state = random_problem(seed, species)
        assert energy(PlaneOperator(bg, params), state) == pytest.approx(
            oracle_energy(state, bg, params), rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), species=st.sampled_from([1, 2, 3]))
    def test_gradient_central_differences(self, seed, species):
        rng, _, params, bg, state = random_problem(seed, species)
        op = PlaneOperator(bg, params)
        x = state.X.ravel()
        _, g = op.fun_grad_flat(x)

        def central(d, t):
            return (op.fun_grad_flat(x + t * d)[0] - op.fun_grad_flat(x - t * d)[0]) / (2 * t)

        for _ in range(3):
            d = rng.standard_normal(x.size)
            d /= np.linalg.norm(d)
            # fourth-order difference at a step whose round-off, eps·|E|/t,
            # stays below the bound for small directional derivatives
            t = 1e-2
            fd = (4.0 * central(d, t) - central(d, 2 * t)) / 3.0
            an = float(g @ d)
            assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-30)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), species=st.sampled_from([1, 2, 3]))
    def test_hessian_symmetric_and_consistent(self, seed, species):
        rng, _, params, bg, state = random_problem(seed, species)
        op = PlaneOperator(bg, params)
        x = state.X.ravel()
        u = rng.standard_normal(x.size)
        v = rng.standard_normal(x.size)
        hu, hv = op.hess_vec_flat(x, u), op.hess_vec_flat(x, v)
        assert float(hu @ v) == pytest.approx(float(u @ hv), rel=1e-12)
        t = 1e-6 / np.linalg.norm(u)
        fd = (op.grad_flat(x + t * u) - op.grad_flat(x - t * u)) / (2 * t)
        assert np.max(np.abs(fd - hu)) <= 1e-6 * np.max(np.abs(hu))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), species=st.sampled_from([1, 2, 3]))
    def test_batched_shifted_inverse(self, seed, species):
        rng, dom, _, _, _ = random_problem(seed, species)
        values = rng.standard_normal((species + 1,) + dom.shape)
        c_lap = rng.uniform(0.1, 3.0, species + 1)
        c_id = rng.uniform(0.0, 10.0, species + 1)
        batched = box_shifted_inverse(values, box_symbol(dom, c_lap, c_id))
        for k in range(species + 1):
            single = box_shifted_inverse(values[k], box_symbol(dom, c_lap[k], c_id[k]))
            assert np.allclose(batched[k], single, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(single)))


@pytest.fixture(scope="module")
def solved_small():
    dom = GridDomain.box(8.0, 64)
    params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=2.0)
    vs = VortexSet.single([(0.0, 0.0)])
    state, info = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-10))
    return dom, params, vs, state, info


class TestSolvePlane:
    def test_zero_vortices_returns_zero(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1)
        state, info = solve_plane(params, VortexSet((tuple(),)), dom)
        assert np.max(np.abs(state.X)) == 0.0
        assert info["energy"] == 0.0
        quant = quantized_integrals_plane(info["u"], info["u_list"], params, dom, (0,))
        assert all(abs(q.computed) < 1e-12 for q in quant)

    def test_converged_gradient(self, solved_small):
        _, _, _, state, info = solved_small
        assert info["grad_inf"] <= 1e-10

    def test_energy_strictly_decreasing(self, solved_small):
        info = solved_small[4]
        es = info["energies"]
        assert all(e2 < e1 + 1e-12 for e1, e2 in zip(es, es[1:]))

    def test_quantized_integrals(self, solved_small):
        # truncation tail is O(e^{-2 alpha L}) ~ 1e-5 on this small box
        dom, params, vs, state, info = solved_small
        quant = quantized_integrals_plane(info["u"], info["u_list"], params, dom,
                                          vs.counts)
        for q in quant:
            assert q.rel_error < 1e-4

    def test_negativity_off_vortex(self, solved_small):
        dom, params, vs, state, info = solved_small
        mask = info["vortex_mask"]
        u, u_list = info["u"], info["u_list"]
        assert u[~mask].max() <= 1e-12
        assert u_list[0][~mask].max() <= 1e-12
        # genuinely negative where the signal is above round-off
        X, Y = dom.coords()
        core = (np.hypot(X, Y) < 0.5 * dom.extent1) & ~mask
        assert u[core].max() < -1e-12

    def test_dihedral_symmetry(self, solved_small):
        u = solved_small[4]["u"]
        defect = max(np.max(np.abs(u - u[::-1, :])),
                     np.max(np.abs(u - u[:, ::-1])),
                     np.max(np.abs(u - u.T)))
        assert defect < 1e-6

    def test_pde_residuals(self, solved_small):
        _, _, _, state, info = solved_small
        op = info["operator"]
        _, _, same, fourth = equation_residuals(op, state.X, info["vortex_mask"])
        assert same <= 10 * 1e-10
        assert fourth < 1.0

    def test_preconditioner_once_per_iteration(self, monkeypatch):
        # one application per L-BFGS iteration, on either grid, and per
        # MINRES iteration; the floor lowered so that the 32² grid starts it
        monkeypatch.setattr(plane, "_COARSE_FLOOR", 64)
        calls = []
        apply = PlaneOperator.precond_flat

        def counted(self, v):
            calls.append(1)
            return apply(self, v)

        monkeypatch.setattr(PlaneOperator, "precond_flat", counted)
        dom = GridDomain.box(8.0, 64)
        params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
        vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
        _, info = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-9))
        assert info["minres_iters"] > 0 and info["coarse_iterations"] > 0
        assert len(calls) <= (info["coarse_iterations"] + info["iterations"]
                              + info["minres_iters"] + 3)

    def test_float32_preconditioner_moves_no_answer(self, monkeypatch):
        # the preconditioner only shapes search directions: the same solve
        # with a float64 pair reaches the same energy in as many L-BFGS
        # iterations on each grid, give or take one; the floor lowered so
        # that the 32² grid starts it
        monkeypatch.setattr(plane, "_COARSE_FLOOR", 64)
        params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
        vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
        m, a, b = params.species, params.alpha, params.beta

        def symbol(dom):
            return box_symbol(dom, 2.0 * np.array([m / a] + [1.0 / b] * m) * dom.cell_area,
                              np.array([8.0 * a * m] + [8.0 * b] * m) * dom.cell_area,
                              _type=2)

        dom = GridDomain.box(8.0, 64)
        # one float64 symbol per operator shape: the coarse grid's and the fine one's
        symbols = {(m + 1, n, n): symbol(GridDomain.box(8.0, n)) for n in (32, 64)}
        lbfgs_iters = []
        lbfgs = plane.minimize_lbfgs

        def counted(*args, **kwargs):
            res = lbfgs(*args, **kwargs)
            lbfgs_iters.append(res.iterations)
            return res

        monkeypatch.setattr(plane, "minimize_lbfgs", counted)
        _, single = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-9))
        monkeypatch.setattr(PlaneOperator, "precond_flat", lambda self, v: box_shifted_inverse(
            v.reshape(self.shape), symbols[self.shape], _type=2).ravel())
        _, double = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-9))
        assert single["energy"] == pytest.approx(double["energy"], rel=1e-12)
        # (coarse, fine) L-BFGS runs of each solve
        assert len(lbfgs_iters) == 4
        for level in (0, 1):
            assert abs(lbfgs_iters[level] - lbfgs_iters[2 + level]) <= 1

    def test_tight_tolerance_wastes_no_line_search(self, monkeypatch):
        # at tol 1e-12, L-BFGS must hand over before its line searches stop
        # resolving the energy: about one evaluation per iteration, on either
        # grid; the floor lowered so that the 32² grid starts it
        monkeypatch.setattr(plane, "_COARSE_FLOOR", 64)
        calls = []
        evaluate = PlaneOperator.fun_grad_flat

        def counted(self, x):
            calls.append(1)
            return evaluate(self, x)

        monkeypatch.setattr(PlaneOperator, "fun_grad_flat", counted)
        dom = GridDomain.box(8.0, 64)
        params = ModelParams(alpha=0.5, beta=2.0, species=1, lambda_bg=10.0)
        _, info = solve_plane(params, VortexSet.single([(0.0, 0.0)]), dom,
                              PlaneSolveOpts(tol=1e-12))
        assert info["grad_inf"] <= 1e-12 and info["coarse_iterations"] > 0
        assert len(calls) <= 1.5 * (info["coarse_iterations"] + info["iterations"]) + 2

    def test_polish_work_on_the_bench_problem(self):
        # the M=2, N=224 benchmark solve: its polish takes 27 MINRES
        # iterations (25 and 2 over two Newton steps); with every inner rtol
        # capped at 1e-2 its second step alone took 13, 42 in all
        params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
        vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
        _, info = solve_plane(params, vs, GridDomain.box(20.0, 224), PlaneSolveOpts(tol=1e-9))
        assert info["minres_iters"] <= 30
        assert info["energy"] == pytest.approx(309.938494726939, rel=1e-9)

    def test_zero_vortex_residual_is_roundoff(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1)
        state, info = solve_plane(params, VortexSet((tuple(),)), dom)
        assert equation_residuals(info["operator"], state.X)[2] == 0.0

    @pytest.mark.slow
    def test_decay_slope_truncation_independent(self):
        # doubling the box at fixed parameters moves the fitted slope by < 2%
        # (same physical annulus [5, 8] on both boxes)
        from csvortex.diagnostics import decay_fit

        params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=10.0)
        vs = VortexSet.single([(0.0, 0.0)])
        slopes = []
        for L, n, annulus in ((10.0, 256, (0.5, 0.8)), (20.0, 512, (0.25, 0.4))):
            dom = GridDomain.box(L, n)
            _, info = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-11))
            fit = decay_fit(info["u"], info["u_list"], params, dom,
                            annulus=annulus)
            slopes.append(fit.slope)
        assert abs(slopes[1] - slopes[0]) / abs(slopes[0]) < 0.02

    def test_lambda_independence(self):
        dom = GridDomain.box(8.0, 64)
        vs = VortexSet.single([(0.0, 0.0)])
        us = []
        for lam in (5.0, 20.0):
            params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=lam)
            _, info = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-10))
            us.append(info["u"])
        mask = vortex_node_mask(vs, dom)
        assert np.max(np.abs(us[0] - us[1])[~mask]) < 1e-4

    def test_vortex_near_boundary_rejected(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1)
        with pytest.raises(DomainError):
            solve_plane(params, VortexSet.single([(5.5, 0.0)]), dom)

    def test_nonconvergence_carries_state(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=2.0)
        vs = VortexSet.single([(0.0, 0.0)])
        # one L-BFGS iteration leaves a gradient max-norm near 2; the polish
        # takes it to round-off, where it stalls short of the tolerance, and
        # the error carries the polished state and its gradient max-norm
        with pytest.raises(NonConvergenceError) as err:
            solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-20, max_iter=1))
        assert 0 < err.value.grad_norm < 1e-8
        op = PlaneOperator(plane_background(vs, params.lambda_bg, dom), params)
        assert equation_residuals(op, err.value.state.X)[1] == pytest.approx(
            err.value.grad_norm, rel=1e-12)

    def test_species_mismatch(self):
        dom = GridDomain.box(6.0, 32)
        params = ModelParams(alpha=1.0, beta=1.0, species=2)
        with pytest.raises(DomainError):
            solve_plane(params, VortexSet.single([(0.0, 0.0)]), dom)


class TestNestedIteration:
    @settings(max_examples=30, deadline=None)
    @given(nc=st.integers(8, 24).map(lambda k: 2 * k), half_width=st.floats(0.5, 50.0),
           coef=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           species=st.integers(1, 3))
    def test_prolongation_reproduces_bilinear(self, nc, half_width, coef, species):
        # sampled on the coarse nodes and their ghost ring, a + bx + cy + dxy
        # comes out exact at every node of the grid of twice the resolution,
        # the nodes beside the wall included, which read the ghost ring
        a, b, c, d = coef

        def bilinear(n, pad):
            h = 2.0 * half_width / n
            x = -half_width + h * (np.arange(-pad, n + pad) + 0.5)
            X, Y = np.meshgrid(x, x, indexing="ij")
            return a + b * X + c * Y + d * X * Y

        coarse = np.stack([(k + 1) * bilinear(nc, 1) for k in range(species)])
        fine = np.stack([(k + 1) * bilinear(2 * nc, 0) for k in range(species)])
        out = plane._prolong(coarse)
        assert out.shape == (species, 2 * nc, 2 * nc)
        scale = species * (abs(a) + (abs(b) + abs(c)) * half_width + abs(d) * half_width**2)
        assert np.max(np.abs(out - fine)) <= 1e-13 * max(scale, 1.0)
        # a ring that disagrees with the data moves the boundary nodes only
        coarse[:, 0, :] += 1.0
        moved = np.any(plane._prolong(coarse) != out, axis=(0, 2))
        assert moved[0] and not moved[1:].any()

    @pytest.mark.parametrize("n", [64, 128])
    def test_coarse_start_matches_zero_start(self, n, monkeypatch):
        # the same solve from the prolonged n/2 iterate and from zero: both
        # meet tol, and their energies agree within rtol 1e-9
        dom = GridDomain.box(8.0, n)
        params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
        vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
        opts = PlaneSolveOpts(tol=1e-9)
        monkeypatch.setattr(plane, "_COARSE_FLOOR", 64)
        _, nested = solve_plane(params, vs, dom, opts)
        monkeypatch.setattr(plane, "_COARSE_FLOOR", 10**9)
        _, direct = solve_plane(params, vs, dom, opts)
        assert nested["coarse_iterations"] > 0
        assert nested["coarse_lbfgs_evals"] >= nested["coarse_iterations"] + 1
        assert direct["coarse_iterations"] == direct["coarse_lbfgs_evals"] == 0
        for info in (nested, direct):
            assert info["grad_inf"] <= opts.tol
        assert nested["energy"] == pytest.approx(direct["energy"], rel=1e-9)

    def test_floor_and_multiple_of_four(self, monkeypatch):
        # n = 128 starts from the 64² grid; n = 130 would need an odd 65²
        # grid, and n = 64 is below the floor: both start from zero
        starts = []
        lbfgs = plane.minimize_lbfgs

        def recorded(fun_grad, x0, **kwargs):
            starts.append(x0.size)
            return lbfgs(fun_grad, x0, **kwargs)

        monkeypatch.setattr(plane, "minimize_lbfgs", recorded)
        params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=10.0)
        vs = VortexSet.single([(0.0, 0.0)])
        for n in (128, 130, 64):
            starts.clear()
            _, info = solve_plane(params, vs, GridDomain.box(8.0, n), PlaneSolveOpts(tol=1e-8))
            nested = n == 128
            assert starts == ([2 * 64 * 64] if nested else []) + [2 * n * n], n
            assert (info["coarse_iterations"] > 0) == nested

    def test_coarse_iterations_spent_from_max_iter(self, monkeypatch):
        # the two L-BFGS runs together take at most opts.max_iter iterations
        iterations = []
        lbfgs = plane.minimize_lbfgs

        def counted(*args, **kwargs):
            res = lbfgs(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(plane, "minimize_lbfgs", counted)
        params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=10.0)
        vs = VortexSet.single([(0.0, 0.0)])
        _, info = solve_plane(params, vs, GridDomain.box(8.0, 128),
                              PlaneSolveOpts(tol=1e-8, max_iter=12))
        assert len(iterations) == 2 and sum(iterations) <= 12
        assert info["coarse_iterations"] == iterations[0]

    def test_coarse_stall_is_only_a_start(self, monkeypatch):
        # one iteration in all: the coarse run stops short without raising,
        # and the error comes from the fine grid and carries its state
        monkeypatch.setattr(plane, "_COARSE_FLOOR", 64)
        dom = GridDomain.box(6.0, 64)
        params = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=2.0)
        with pytest.raises(NonConvergenceError) as err:
            solve_plane(params, VortexSet.single([(0.0, 0.0)]), dom,
                        PlaneSolveOpts(tol=1e-20, max_iter=1))
        assert err.value.state.domain == dom
        assert err.value.grad_norm > 0

    def test_peak_working_set_in_stacks(self):
        # the traced peak of a nested solve, in (M+1)·N² float64 stacks, is
        # set in the fine L-BFGS: its float32 history of 12 stacks, the
        # iterate, gradient, preconditioned gradient and direction, one trial
        # state, the background and operator, and an evaluation.  It measures
        # 25.9; one more stack held there (the prolonged start, a padded
        # stencil input, a copy of the sources, a second trial) crosses 27
        params = ModelParams(alpha=1.0, beta=1.0, species=2, lambda_bg=10.0)
        vs = VortexSet((((0.0, 0.0, 1),), ((1.1, 0.0, 1), (-0.7, 0.9, 1))))
        dom = GridDomain.box(20.0, 128)
        tracemalloc.start()
        try:
            _, info = solve_plane(params, vs, dom, PlaneSolveOpts(tol=1e-9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info["coarse_iterations"] > 0
        assert peak / (3 * dom.n1 * dom.n2 * 8) < 27.0
