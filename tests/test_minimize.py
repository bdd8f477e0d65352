import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csvortex.minimize as minimize_mod
from csvortex.minimize import MINRES_SINGULAR, _HISTORY, minimize_lbfgs, minres, newton_polish


# The kept pairs are stored in float32, so the compact direction, the kept
# products and the secant equation match their float64 oracles to float32
# round-off: measured worst 3.3e-6 (direction), 1.1e-6 (products) and 6.4e-6
# (secant) relative over 1000 random draws of each test below.  A dropped
# pair, a flipped sign, a transposed R or a row stored at the wrong power of
# two errs far above this bound.
_F32_RTOL = 1024 * float(np.finfo(np.float32).eps)


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
        # minimize |x|^2 from x0=2 where x <= 1 costs +inf: the line search
        # must halve its way to the boundary and stall there
        def fun_grad(x):
            if not x[0] > 1.0:
                return math.inf, np.full(x.size, np.nan)
            return float(x @ x), 2 * x

        res = minimize_lbfgs(fun_grad, np.array([2.0]), tol_inf=1e-12, max_iter=100)
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

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-300, 300))
    def test_power_of_two_scaling_is_exact(self, k):
        # q(x/2^k) with the preconditioner scaled by 2^(2k) poses the same
        # problem: every iterate is 2^k times the unscaled one, bit for bit,
        # which holds only if no stored pair overflows or is flushed
        rng = np.random.default_rng(1234)
        _, x_star, d = quad_problem(200, rng)
        x0 = rng.standard_normal(200)
        p = 1.0 / np.sqrt(d)

        def solve(k):
            def fun_grad(x):
                e = np.ldexp(x, -k) - x_star
                return 0.5 * float(e @ (d * e)), np.ldexp(d * e, -k)

            return minimize_lbfgs(fun_grad, np.ldexp(x0, k),
                                  precond=lambda v: np.ldexp(p * v, 2 * k),
                                  tol_inf=math.ldexp(1e-8, -k), max_iter=500)

        plain, scaled = solve(0), solve(k)
        assert plain.converged, plain.message
        assert (scaled.iterations, scaled.message) == (plain.iterations, plain.message)
        assert scaled.energies == plain.energies
        assert np.array_equal(scaled.x, np.ldexp(plain.x, k))

    def test_budget_exhaustion(self, rng):
        fun_grad, _, _ = quad_problem(50, rng)
        res = minimize_lbfgs(fun_grad, np.zeros(50), tol_inf=1e-14, max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_uncentred_quadratic_converges_on_every_seed(self):
        # ½xᵀDx - bᵀx carries round-off in f of about 1e-14, far above its
        # last steps' decrease: with f(t) <= f0 as the approximate-Wolfe
        # energy test, all 40 seeds stopped with "line search interval
        # collapsed" after 57-92 iterations; f(t) <= f0 + ε_k accepts them
        for seed in range(40):
            fun_grad, _, _ = quad_problem(200, np.random.default_rng(seed))
            res = minimize_lbfgs(fun_grad, np.zeros(200), tol_inf=1e-9, max_iter=2000)
            assert res.converged, (seed, res.message)
            assert res.evals <= 2 * res.iterations, seed

    def test_fallback_returns_the_trial_state_bit_for_bit(self):
        # with the offset that cancels the quadratic's minimum, the energy's
        # round-off exceeds the last decreases at tol_inf 1e-12, and searches
        # collapse onto their best trial.  The search keeps only (t, f, g) of
        # that trial and rebuilds x + t·d: the x it returns must be the very
        # state fun_grad was given at t
        fallbacks = []

        class Recorded(minimize_mod._Wolfe):
            def __init__(self, *args):
                super().__init__(*args)
                self.trials = {}

            def phi(self, t):
                out = super().phi(t)
                self.trials[t] = self.xt.copy()
                return out

            def _fallback(self, why):
                t, f, g, x = super()._fallback(why)
                fallbacks.append((x, self.trials[t]))
                return t, f, g, x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minimize_mod, "_Wolfe", Recorded)
            for seed in range(40):
                fun_grad, x_star, _ = quad_problem(200, np.random.default_rng(seed))
                f_min = fun_grad(x_star)[0]

                def cancelled(x):
                    f, g = fun_grad(x)
                    return f - f_min, g

                minimize_lbfgs(cancelled, np.zeros(200), tol_inf=1e-12, max_iter=2000)
        assert len(fallbacks) >= 20
        for x, trial in fallbacks:
            assert x.tobytes() == trial.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 200), k=st.integers(0, 8))
    def test_offset_energy_converges(self, seed, n, k):
        # an offset of 10^k puts every late step's decrease below 64 ulps of
        # f, down to its round-off; L-BFGS still reaches tol_inf 1e-9 with at
        # most two evaluations per iteration.  The offset takes the sign of
        # the quadratic's minimum, so |f| is never a cancellation of larger
        # terms, whose round-off 64 ulps of |f| would not cover
        fun_grad, _, _ = quad_problem(n, np.random.default_rng(seed))

        def offset(x):
            f, g = fun_grad(x)
            return f - 10.0**k, g

        res = minimize_lbfgs(offset, np.zeros(n), tol_inf=1e-9, max_iter=2000)
        assert res.converged, res.message
        assert res.evals <= 2 * res.iterations
        assert all(e2 <= e1 + 64 * np.spacing(abs(e1))
                   for e1, e2 in zip(res.energies, res.energies[1:]))

    @pytest.mark.parametrize("tol_rel", [1e-1, 1e-3])
    def test_relative_tolerance(self, rng, tol_rel):
        # tol_rel stops the run at that fraction of the start's gradient
        # max-norm, the larger of the two tolerances
        fun_grad, _, _ = quad_problem(50, rng)
        g0 = float(np.max(np.abs(fun_grad(np.zeros(50))[1])))
        res = minimize_lbfgs(fun_grad, np.zeros(50), tol_inf=1e-12, tol_rel=tol_rel,
                             max_iter=500)
        assert res.converged
        assert float(np.max(np.abs(res.g))) <= tol_rel * g0
        full = minimize_lbfgs(fun_grad, np.zeros(50), tol_inf=1e-12, max_iter=500)
        assert res.iterations < full.iterations
        assert res.energies == full.energies[:len(res.energies)]


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
            def __init__(self, fun_grad, x, f0, g0, d):
                searches.append((x.copy(), g0.copy(), d.copy()))
                super().__init__(fun_grad, x, f0, g0, d)

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
            assert np.linalg.norm(d1 - expected) <= _F32_RTOL * np.linalg.norm(expected)
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
        direction = minimize_mod._Pairs.direction

        def skipping(s, y):
            seen["pairs"] += 1
            return None if seen["pairs"] == skip else curvature_pair(s, y)

        class Checked(minimize_mod._Pairs):
            def clear(self):
                kept.clear()
                seen["clears"] += 1
                super().clear()

            def push(self, s, y, sy, s_norm, py):
                kept.append((s.copy(), y.copy(), py.copy()))
                del kept[:-_HISTORY]
                super().push(s, y, sy, s_norm, py)

            def direction(self, g, pg, g_max):
                d = super().direction(g, pg, g_max)
                seen["directions"] += 1
                assert self.k == len(kept)
                if kept:
                    order = (self.head + np.arange(self.k)) % _HISTORY
                    S, Y, PY = (np.array(m) for m in zip(*kept))
                    norm = np.linalg.norm
                    sy_bound = _F32_RTOL * np.outer(norm(S, axis=1), norm(Y, axis=1))
                    ypy_bound = _F32_RTOL * np.outer(norm(Y, axis=1), norm(PY, axis=1))
                    sy = self.sy[np.ix_(order, order)]
                    ypy = self.ypy[np.ix_(order, order)]
                    assert np.all(np.triu(np.abs(sy - S @ Y.T) - sy_bound) <= 0)
                    assert np.all(np.abs(ypy - Y @ PY.T) <= ypy_bound)
                    # used in a direction, they satisfy the secant equation
                    # H y = s of the newest pair
                    s_new, y_new, py_new = kept[-1]
                    hy = -direction(copy.deepcopy(self), y_new, py_new,
                                    float(np.max(np.abs(y_new))))
                    assert norm(hy - s_new) <= _F32_RTOL * norm(s_new)
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

    def test_history_is_float32(self):
        # 8·_HISTORY·n bytes of vectors: s and P y of each slot in float32
        n = 1000
        pairs = minimize_mod._Pairs(n)
        vectors = [a for a in vars(pairs).values()
                   if isinstance(a, np.ndarray) and a.size >= n]
        assert sum(a.nbytes for a in vectors) == 8 * _HISTORY * n


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

    def test_large_gradient_takes_the_newton_step(self):
        # ‖g‖₂ = 2e6 puts the inner rtol at its loosest; the exact Newton step
        # of this quadratic is still found, at t = 1
        lam, target = np.array([2.0, 0.5, -1.0, 3.0]), 1e6 * np.ones(4)
        seen = []

        def grad(x):
            seen.append(x.copy())
            return lam * (x - target)

        res = newton_polish(grad, lambda x, v: lam * v, np.zeros(4), tol_inf=1e-6)
        assert res.converged and res.iterations == 1 and res.minres_unconverged == 0
        np.testing.assert_allclose(seen[1], target, rtol=1e-12, atol=0.0)

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

    def test_last_step_is_not_over_solved(self, rng, monkeypatch):
        # a step that starts at 3·tol_inf only has to cut ‖g‖∞ by 3: its rtol
        # is 0.5·tol_inf/‖g‖∞ = 1/6, not the old rule's ceiling of 1e-2
        n = 200
        d = rng.uniform(0.5, 50.0, size=n)
        b = rng.standard_normal(n)

        def grad(x):
            return d * x - b + 0.1 * x**3

        def hess_vec(x, v):
            return (d + 0.3 * x**2) * v

        root = newton_polish(grad, hess_vec, b / d, tol_inf=1e-13).x
        x0 = root + 1e-4 * rng.standard_normal(n)
        g0 = grad(x0)
        tol_inf = float(np.max(np.abs(g0))) / 3.0
        solves = []

        def recording(A, rhs, *, rtol, callback, **kwargs):
            # the same system also at the old rule's rtol: the larger of
            # 1e-2·‖g‖₂ and 0.1·tol_inf/‖g‖∞, clipped to [1e-12, 1e-2]
            ginf = float(np.max(np.abs(rhs)))
            old = float(np.clip(max(1e-2 * np.linalg.norm(rhs), 0.1 * tol_inf / ginf),
                                1e-12, 1e-2))
            old_iters, iters = [], []
            minres(A, rhs, rtol=old, callback=old_iters.append, **kwargs)
            out = minres(A, rhs, rtol=rtol, callback=lambda xk: (iters.append(xk), callback(xk)),
                         **kwargs)
            solves.append((rtol, len(iters), len(old_iters), ginf))
            return out

        monkeypatch.setattr(minimize_mod, "minres", recording)
        res = newton_polish(grad, hess_vec, x0, g0=g0, tol_inf=tol_inf)
        assert res.converged and np.max(np.abs(res.g)) <= tol_inf
        assert all(m1 < m0 for m0, m1 in zip(res.energies, res.energies[1:]))
        rtol, iters, old_iters, ginf = solves[-1]
        assert 2.0 <= ginf / tol_inf <= 5.0
        assert rtol > 1e-2
        assert iters < old_iters

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

    def test_singular_step_costs_one_gradient(self):
        # the model Hessian diag(2, -1, 0.5, 0) is singular and b = ones is
        # outside its range: MINRES returns its least-squares step with
        # MINRES_SINGULAR.  The true gradient has the opposite sign, so that
        # step raises the merit; it is tried at t = 1 only, and the
        # steepest-descent fallback -g follows
        lam = np.array([2.0, -1.0, 0.5, 0.0])
        b = np.ones(4)
        seen = []

        def grad(x):
            seen.append(x.copy())
            return -(lam + np.array([0.0, 0.0, 0.0, 1.0])) * x - b

        res = newton_polish(grad, lambda x, v: lam * v, np.zeros(4), tol_inf=1e-12,
                            max_iter=1)
        assert res.minres_unconverged == 1
        newton, fallback = seen[1], np.array(seen[2:])
        assert np.all(np.isfinite(newton)) and np.linalg.norm(newton) <= 10.0
        # every later trial lies on the fallback ray t b, t = 1, 1/4, ...
        assert len(fallback) >= 1
        np.testing.assert_allclose(fallback, np.outer(0.25 ** np.arange(len(fallback)), b),
                                   rtol=1e-15, atol=0.0)


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

    @staticmethod
    def _null_space_system():
        """The symmetric 25×25 A with a 5-dimensional null space and a b with
        a part in it, from one default_rng(0) stream."""
        rng = np.random.default_rng(0)
        g = rng.standard_normal((25, 25))
        basis, _ = np.linalg.qr(rng.standard_normal((25, 5)))
        proj = np.eye(25) - basis @ basis.T
        return proj @ (g + g.T) @ proj, rng.standard_normal(25)

    @pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-12])
    @pytest.mark.parametrize("case", ["diagonal", "null-space"])
    def test_singular_incompatible_system_is_a_status(self, case, rtol):
        # without this exit both returned steps of about 1e15 with info 0
        if case == "diagonal":
            a, b = np.diag([2.0, -1.0, 0.5, 0.0]), np.ones(4)
        else:
            a, b = self._null_space_system()
        x_ls = np.linalg.pinv(a) @ b
        steps = []
        x, info = minres(lambda v: a @ v, b, rtol=rtol, maxiter=1000, callback=steps.append)
        assert info == MINRES_SINGULAR
        assert len(steps) <= b.size
        # a least-squares solution, bounded
        assert np.linalg.norm(a @ x - b) <= (1.0 + 1e-6) * np.linalg.norm(a @ x_ls - b)
        assert np.linalg.norm(x) <= 10.0 * np.linalg.norm(x_ls)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), null=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           log_rtol=st.floats(-12.0, -2.0), preconditioned=st.booleans())
    def test_singular_system_gives_bounded_x_or_a_status(self, n, null, seed, log_rtol,
                                                         preconditioned):
        # A symmetric, indefinite, with a null space of dimension `null` and
        # its other eigenvalues of magnitude in [0.5, 5]; b has a part in the
        # null space.  Either x stays within a few least-squares lengths
        # ‖b‖/0.5, or the status says why not
        null = min(null, n - 1)
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 5.0, n)
        lam[:null] = 0.0
        a = (q * lam) @ q.T
        b = rng.standard_normal(n)
        p = rng.uniform(0.5, 2.0, n)
        x, info = minres(lambda v: a @ v, b, rtol=10.0**log_rtol, maxiter=10 * n + 10,
                         M=(lambda r: p * r) if preconditioned else None)
        bounded = bool(np.all(np.isfinite(x))) and np.linalg.norm(x) <= 20.0 * np.linalg.norm(b)
        assert bounded or info != 0

    @pytest.mark.parametrize("scale", [2.0**30, 2.0**-30])
    @pytest.mark.parametrize("rtol", [1e-2, 1e-12])
    @pytest.mark.parametrize("case", ["identity", "indefinite", "null-space"])
    def test_right_hand_side_scaling_is_exact(self, case, rtol, scale):
        # no exit depends on ‖b‖: a power-of-two scaling of b scales x bit
        # for bit and keeps the status.  With ‖b‖_P in the ‖A‖ estimate, a
        # large b passed the least-squares test at the first iteration and
        # returned x = 0, even for A = I
        m = None
        if case == "identity":
            a, b = np.eye(6), np.arange(1.0, 7.0)
        elif case == "indefinite":
            a, p, b = _symmetric_system(20, 3)
            m = lambda r: p * r  # noqa: E731
        else:
            a, b = self._null_space_system()
        x, info = minres(lambda v: a @ v, b, rtol=rtol, maxiter=200, M=m)
        xs, info_s = minres(lambda v: a @ v, scale * b, rtol=rtol, maxiter=200, M=m)
        assert info_s == info
        np.testing.assert_array_equal(xs, scale * x)
        if case == "identity":
            assert info == 0
            np.testing.assert_allclose(x, b, rtol=4 * np.finfo(float).eps, atol=0.0)

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

    @pytest.mark.parametrize("b", [1000.0, 1e8])
    @pytest.mark.parametrize("returns_input", ["A", "M", "both"])
    @pytest.mark.parametrize("rtol", [1e-2, 1e-12])
    def test_callable_returning_its_input(self, returns_input, b, rtol):
        # the recurrence updates what A and M return in place: handed back
        # its own input, it overwrote b or a Lanczos vector, and A = I gave
        # x = [0] with info 0, or with M the identity x = -601.5 (5.0e7 for
        # b = [1e8]) with MINRES_SINGULAR
        same = lambda v: v  # noqa: E731
        fresh = lambda v: v.copy()  # noqa: E731
        a = same if returns_input in ("A", "both") else fresh
        m = same if returns_input in ("M", "both") else None
        rhs = np.array([b])
        x, info = minres(a, rhs, rtol=rtol, maxiter=5, M=m)
        assert info == 0
        assert x.tolist() == [b] and rhs.tolist() == [b]
