import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csvortex.minimize as minimize_mod
from csvortex.minimize import _HISTORY, minimize_lbfgs, minres, newton_polish


def quad_problem(n, rng):
    d = rng.uniform(0.5, 50.0, size=n)
    b = rng.standard_normal(n)

    def fun_grad(x):
        return 0.5 * float(x @ (d * x)) - float(b @ x), d * x - b

    return fun_grad, b / d, d


class TestLBFGS:
    def test_quadratic(self, rng):
        # 1e-7 is near the certification floor of a Wolfe search in float64;
        # the solvers hand over to Newton below that
        fun_grad, x_star, _ = quad_problem(50, rng)
        res = minimize_lbfgs(fun_grad, np.zeros(50), tol_inf=1e-7, max_iter=500)
        assert res.converged
        assert np.max(np.abs(res.x - x_star)) < 1e-7

    def test_preconditioner_accelerates(self, rng):
        fun_grad, x_star, d = quad_problem(200, rng)
        plain = minimize_lbfgs(fun_grad, np.zeros(200), tol_inf=1e-9, max_iter=2000)
        pre = minimize_lbfgs(fun_grad, np.zeros(200), precond=lambda v: v / d,
                             tol_inf=1e-9, max_iter=2000)
        assert pre.converged
        assert pre.iterations <= plain.iterations

    def test_strictly_decreasing(self, rng):
        def rosen(x):
            f = 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
            g = np.array([-400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                          200 * (x[1] - x[0] ** 2)])
            return f, g

        res = minimize_lbfgs(rosen, np.array([-1.2, 1.0]), tol_inf=1e-8,
                             max_iter=500)
        assert res.converged
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)
        assert all(e2 < e1 for e1, e2 in zip(res.energies, res.energies[1:]))

    def test_feasibility_rejection(self, rng):
        # minimize |x|^2 from x0=2 with the region x > 1 feasible: the line
        # search must halve its way to the boundary and stall there
        def fun_grad(x):
            return float(x @ x), 2 * x

        res = minimize_lbfgs(fun_grad, np.array([2.0]),
                             feasible=lambda x: bool(x[0] > 1.0),
                             tol_inf=1e-12, max_iter=100)
        assert not res.converged
        assert res.boundary_trapped
        assert res.x[0] >= 1.0

    def test_converges_at_energy_roundoff(self, rng):
        # written about its minimizer, the quadratic's energy resolves every
        # decrease at offset 0; an offset of 1e6 puts the last steps' decrease
        # below 64 ulps of f, and the line search must still accept them
        _, x_star, d = quad_problem(200, rng)

        def centred(offset):
            def fun_grad(x):
                e = x - x_star
                return 0.5 * float(e @ (d * e)) + offset, d * e
            return fun_grad

        plain = minimize_lbfgs(centred(0.0), np.zeros(200), tol_inf=1e-9,
                               max_iter=2000)
        shifted = minimize_lbfgs(centred(1e6), np.zeros(200), tol_inf=1e-9,
                                 max_iter=2000)
        assert plain.converged
        assert shifted.converged, shifted.message
        assert shifted.iterations <= plain.iterations + 5
        assert all(e2 <= e1 for e1, e2 in zip(shifted.energies, shifted.energies[1:]))

    def test_budget_exhaustion(self, rng):
        fun_grad, _, _ = quad_problem(50, rng)
        res = minimize_lbfgs(fun_grad, np.zeros(50), tol_inf=1e-14, max_iter=2)
        assert not res.converged
        assert res.iterations == 2


def _spd(rng, n, cond):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


class TestCompactForm:
    """The compact direction against the explicit BFGS recursion."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 40),
           cond=st.floats(10.0, 1e3), pcond=st.floats(1.0, 10.0))
    def test_direction_matches_bfgs_recursion(self, seed, n, cond, pcond):
        rng = np.random.default_rng(seed)
        a = _spd(rng, n, cond)
        p = _spd(rng, n, pcond)
        b = rng.standard_normal(n)
        searches = []

        class Recorded(minimize_mod._Wolfe):
            def __init__(self, fun_grad, x, f0, g0, d, feasible):
                searches.append((x.copy(), g0.copy(), d.copy()))
                super().__init__(fun_grad, x, f0, g0, d, feasible)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minimize_mod, "_Wolfe", Recorded)
            minimize_lbfgs(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b),
                           rng.standard_normal(n), precond=lambda v: p @ v,
                           tol_inf=1e-300, max_iter=2 * _HISTORY)
        # compare while the gradients are well above round-off
        g_floor = 1e-6 * np.linalg.norm(searches[0][1])
        steps = list(itertools.takewhile(
            lambda rec: np.linalg.norm(rec[1]) > g_floor, searches))
        pairs = []
        for (x0, g0, _), (x1, g1, d1) in zip(steps, steps[1:]):
            s, y = x1 - x0, g1 - g0
            if s @ y > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                pairs = (pairs + [(s, y)])[-_HISTORY:]
            if not pairs:
                continue
            s, y = pairs[-1]
            h = (s @ y) / (y @ p @ y) * p
            for s, y in pairs:
                rho = 1.0 / (s @ y)
                v = np.eye(n) - rho * np.outer(y, s)
                h = v.T @ h @ v + rho * np.outer(s, s)
            expected = -h @ g1
            assert np.linalg.norm(d1 - expected) <= 1e-10 * np.linalg.norm(expected)
        assert len(steps) >= 2


class TestPairsBookkeeping:
    """The by-slot SᵀY and YᵀPY against direct products of the kept pairs."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 100),
           flip=st.integers(_HISTORY + 3, 2 * _HISTORY), skip=st.integers(2, 2 * _HISTORY + 3))
    def test_kept_products_match_direct(self, seed, n, flip, skip):
        # the ring wraps before the forced clear() at iteration `flip` and
        # again after it; the step of iteration `skip` fails the curvature test
        rng = np.random.default_rng(seed)
        a = _spd(rng, n, 1e4)
        p = _spd(rng, n, 10.0)
        b = rng.standard_normal(n)
        kept = []   # (s, y, P y) of the pairs _Pairs should hold, oldest first
        seen = {"directions": 0, "pairs": 0, "checked": 0, "clears": 0}
        curvature_pair = minimize_mod._curvature_pair

        def skipping(s, y):
            seen["pairs"] += 1
            return None if seen["pairs"] == skip else curvature_pair(s, y)

        class Checked(minimize_mod._Pairs):
            def clear(self):
                kept.clear()
                seen["clears"] += 1
                super().clear()

            def push(self, s, y, py):
                kept.append((s.copy(), y.copy(), py.copy()))
                del kept[:-_HISTORY]
                super().push(s, y, py)

            def direction(self, g, pg):
                d = super().direction(g, pg)
                seen["directions"] += 1
                assert self.k == len(kept)
                if kept:
                    order = (self.head + np.arange(self.k)) % _HISTORY
                    S, Y, PY = (np.array(m) for m in zip(*kept))
                    norm = np.linalg.norm
                    sy_bound = 1e-10 * np.outer(norm(S, axis=1), norm(Y, axis=1))
                    ypy_bound = 1e-10 * np.outer(norm(Y, axis=1), norm(PY, axis=1))
                    sy = self.sy[np.ix_(order, order)]
                    ypy = self.ypy[np.ix_(order, order)]
                    assert np.all(np.triu(np.abs(sy - S @ Y.T) - sy_bound) <= 0)
                    assert np.all(np.abs(ypy - Y @ PY.T) <= ypy_bound)
                    seen["checked"] += 1
                # a non-descent direction makes minimize_lbfgs clear the pairs
                return -d if seen["directions"] == flip else d

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minimize_mod, "_Pairs", Checked)
            mp.setattr(minimize_mod, "_curvature_pair", skipping)
            res = minimize_lbfgs(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b),
                                 np.zeros(n), precond=lambda v: p @ v,
                                 tol_inf=1e-300, max_iter=flip + _HISTORY + 3)
        assert res.iterations == flip + _HISTORY + 3, res.message
        assert seen["pairs"] >= skip
        assert seen["clears"] == 2  # the one in __init__ and the forced one
        assert seen["checked"] >= 2 * _HISTORY + 3


class TestNewtonPolish:
    def test_reaches_root(self, rng):
        d = rng.uniform(0.5, 5.0, size=30)
        b = rng.standard_normal(30)

        def grad(x):
            return d * x - b + 0.1 * x**3

        def hess_vec(x, v):
            return d * v + 0.3 * x**2 * v

        res = newton_polish(grad, hess_vec, np.zeros(30), tol_inf=1e-12)
        assert res.converged
        assert np.max(np.abs(grad(res.x))) <= 1e-12

    def test_converges_to_saddle(self):
        # grad of f(x,y) = x^2 - y^2 vanishes at the saddle (0,0)
        def grad(x):
            return np.array([2 * x[0], -2 * x[1]])

        def hess_vec(x, v):
            return np.array([2 * v[0], -2 * v[1]])

        res = newton_polish(grad, hess_vec, np.array([0.7, -0.4]), tol_inf=1e-12)
        assert res.converged
        assert np.max(np.abs(res.x)) < 1e-10

    def test_counts_unconverged_inner_solves(self, rng, monkeypatch):
        d = rng.uniform(0.5, 50.0, size=40)
        b = rng.standard_normal(40)

        def grad(x):
            return d * x - b

        def hess_vec(x, v):
            return d * v

        full = newton_polish(grad, hess_vec, np.zeros(40), tol_inf=1e-12)
        assert full.converged and full.minres_unconverged == 0
        monkeypatch.setattr(minimize_mod, "_MINRES_MAXITER", 2)
        capped = newton_polish(grad, hess_vec, np.zeros(40), tol_inf=1e-12, max_iter=3)
        assert capped.minres_unconverged == capped.iterations == 3
        # every inner iteration is counted: the capped solves run 2 each
        assert capped.minres_iters == 6
        assert full.minres_iters > full.iterations
        # steps from unconverged solves are kept only where the merit falls
        assert len(capped.energies) == capped.iterations + 1
        assert all(m1 < m0 for m0, m1 in zip(capped.energies, capped.energies[1:]))

    def test_inner_solve_sized_by_target(self, rng):
        # a looser target must buy fewer MINRES iterations; the gradient
        # carries a small flat scale, as the solvers' cell-area-weighted ones do
        n, s = 200, 1e-6
        d = rng.uniform(0.5, 50.0, size=n)
        b = rng.standard_normal(n)

        def grad(x):
            return s * (d * x - b + 0.1 * x**3)

        def hess_vec(x, v):
            return s * (d + 0.3 * x**2) * v

        root = newton_polish(grad, hess_vec, b / d, tol_inf=1e-14 * s).x
        x0 = root + 1e-6 * rng.standard_normal(n)
        g0 = float(np.max(np.abs(grad(x0))))
        loose = newton_polish(grad, hess_vec, x0, tol_inf=1e-3 * g0)
        tight = newton_polish(grad, hess_vec, x0, tol_inf=1e-7 * g0)
        assert loose.converged and tight.converged
        assert np.max(np.abs(loose.g)) <= 1e-3 * g0
        assert np.max(np.abs(tight.g)) <= 1e-7 * g0
        assert loose.minres_iters < tight.minres_iters

    def test_every_product_is_a_krylov_iteration(self, rng):
        # each Hessian product is one MINRES iteration, and each preconditioner
        # application one too, plus the one per Newton step that starts a solve
        n = 60
        d = rng.uniform(0.5, 50.0, size=n)
        p = 1.0 / (d * rng.uniform(0.5, 2.0, size=n))
        b = rng.standard_normal(n)
        calls = {"hess_vec": 0, "precond": 0}

        def grad(x):
            return d * x - b + 0.1 * x**3

        def hess_vec(x, v):
            calls["hess_vec"] += 1
            return (d + 0.3 * x**2) * v

        def precond(v):
            calls["precond"] += 1
            return p * v

        res = newton_polish(grad, hess_vec, np.zeros(n), precond=precond,
                            tol_inf=1e-12)
        assert res.converged and res.iterations >= 2
        assert calls["hess_vec"] == res.minres_iters
        assert calls["precond"] == res.minres_iters + res.iterations

    def test_breakdown_ends_unconverged_without_raising(self, rng):
        # a negative-definite preconditioner and a Hessian returning NaN both
        # break MINRES down; the polish counts it and falls back
        n = 20
        d = rng.uniform(0.5, 50.0, size=n)
        b = rng.standard_normal(n)

        def grad(x):
            return d * x - b

        def hess_vec(x, v):
            return d * v

        neg = newton_polish(grad, hess_vec, np.zeros(n), precond=lambda v: -v / d,
                            tol_inf=1e-12, max_iter=5)
        assert not neg.converged and neg.minres_unconverged >= 1
        nan = newton_polish(grad, lambda x, v: np.full_like(v, np.nan), np.zeros(n),
                            tol_inf=1e-12, max_iter=5)
        assert not nan.converged and nan.minres_unconverged == nan.iterations == 5
        assert np.all(np.isfinite(nan.x))
        assert all(m1 < m0 for m0, m1 in zip(nan.energies, nan.energies[1:]))

    @staticmethod
    def _trial_points(h, hess_scale, **kw):
        """newton_polish on grad(x) = h x, with a Hessian product scaled by
        hess_scale, from x0; returns x0 and the points grad was called at."""
        x0 = np.array([1.0, -2.0, 0.5])
        seen = []

        def grad(x):
            seen.append(x.copy())
            return h * x

        newton_polish(grad, lambda x, v: hess_scale * h * v, x0, **kw)
        return x0, np.array(seen)

    def test_newton_step_search_pinned(self):
        # the Hessian product is 1/k of the true one, so the Newton step from
        # x is -k x and the trial at t is (1 - k t) x.  k = 4 - 5e-5: t = 1 and
        # t = 1/2 fail sufficient decrease (the latter only by its 1e-4 t
        # term), t = 1/4 passes; twice, then the tolerance is met
        k = 4.0 - 5e-5
        x0, seen = self._trial_points(2.0, 1.0 / k, tol_inf=1e-6)
        factors = [1.0]
        for _ in range(2):
            x = factors[-1]
            factors += [x * (1.0 - k * t) for t in (1.0, 0.5, 0.25)]
        np.testing.assert_allclose(seen, np.outer(factors, x0), rtol=1e-9, atol=0.0)

    def test_steepest_descent_fallback_pinned(self):
        # a Hessian product of the wrong sign makes the Newton step x itself,
        # so every trial (1 + t) x raises the merit: all halvings down to
        # t >= 1e-8 (27 of them) fail.  The fallback -g = -h x then tries
        # t = 1 and t = 1/4, where (1 - h/4) x lowers the merit by less than
        # 1e-4 t of it, which the fallback accepts
        h = 8.0 - 5e-5
        x0, seen = self._trial_points(h, -1.0, tol_inf=1e-12, max_iter=1)
        newton = [1.0 + 0.5**j for j in range(27)]
        fallback = [1.0 - h * t for t in (1.0, 0.25)]
        np.testing.assert_allclose(seen, np.outer([1.0] + newton + fallback, x0),
                                   rtol=1e-12, atol=0.0)


def _symmetric_system(n, seed):
    """Symmetric, possibly indefinite A with |eigenvalues| in [0.5, 5], an SPD
    diagonal P with entries in [0.5, 2], and b: P^(1/2) A P^(1/2) has
    condition number at most 40."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 5.0, n)
    return (q * lam) @ q.T, rng.uniform(0.5, 2.0, n), rng.standard_normal(n)


class TestMinres:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           rtol=st.floats(1e-10, 1e-3))
    def test_stops_on_the_preconditioned_residual(self, n, seed, rtol):
        # below rtol = 1e-3 the least-squares exit cannot fire first on these
        # well-conditioned draws, so info 0 means the residual test passed
        a, p, b = _symmetric_system(n, seed)
        products, steps = [0], [0]

        def apply_a(v):
            products[0] += 1
            return a @ v

        def count(xk):
            steps[0] += 1

        x, info = minres(apply_a, b, rtol=rtol, maxiter=10 * n + 10,
                         M=lambda r: p * r, callback=count)
        assert info == 0
        r = b - a @ x
        assert np.sqrt(r @ (p * r)) <= 1.01 * rtol * np.sqrt(b @ (p * b))
        # one callback per iteration, and one product of A per iteration
        assert steps[0] == products[0] >= 1
        if steps[0] > 1:
            cap = steps[0] - 1
            calls = []
            xc, info = minres(lambda v: a @ v, b, rtol=rtol, maxiter=cap,
                              M=lambda r: p * r, callback=calls.append)
            assert info == cap and len(calls) == cap

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_tight_solve_matches_dense(self, n, seed):
        a, p, b = _symmetric_system(n, seed)
        x, info = minres(lambda v: a @ v, b, rtol=1e-12, maxiter=10 * n + 10,
                         M=lambda r: p * r)
        want = np.linalg.solve(a, b)
        assert info == 0
        assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)

    def test_least_squares_exit_on_nearly_singular_system(self):
        # b leans on an eigenvalue of 1e-13: the residual test cannot pass in
        # a short solve, and the ‖A r‖ test ends it near the least-squares
        # solution instead of chasing that mode to a huge x
        lam = np.linspace(1.0, 2.0, 49) * np.where(np.arange(49) % 2, 1.0, -1.0)
        a = np.diag(np.append(lam, 1e-13))
        b = np.ones(50)
        steps = []
        x, info = minres(lambda v: a @ v, b, rtol=1e-6, maxiter=500,
                         callback=steps.append)
        assert info == 0 and len(steps) < 50
        assert np.max(np.abs(x[:49] * lam - 1.0)) <= 1e-5
        assert abs(x[49]) <= 1.0
        assert np.linalg.norm(b - a @ x) >= 0.99

    def test_breakdown_is_a_status(self, rng):
        a, p, b = _symmetric_system(10, 7)
        calls = []
        x, info = minres(lambda v: a @ v, b, rtol=1e-8, maxiter=50,
                         M=lambda r: -p * r, callback=calls.append)
        assert info == -1 and not calls and not np.any(x)
        x, info = minres(lambda v: np.full_like(v, np.nan), b, rtol=1e-8,
                         maxiter=50, M=lambda r: p * r)
        assert info == -1 and np.all(np.isfinite(x))

    def test_zero_right_hand_side(self):
        x, info = minres(lambda v: 2.0 * v, np.zeros(5), rtol=1e-8, maxiter=5)
        assert info == 0 and not np.any(x)
