import numpy as np

from csvortex.minimize import minimize_lbfgs, newton_polish


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

    def test_budget_exhaustion(self, rng):
        fun_grad, _, _ = quad_problem(50, rng)
        res = minimize_lbfgs(fun_grad, np.zeros(50), tol_inf=1e-14, max_iter=2)
        assert not res.converged
        assert res.iterations == 2


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

    def test_counts_unconverged_inner_solves(self, rng):
        d = rng.uniform(0.5, 50.0, size=40)
        b = rng.standard_normal(40)

        def grad(x):
            return d * x - b

        def hess_vec(x, v):
            return d * v

        full = newton_polish(grad, hess_vec, np.zeros(40), tol_inf=1e-12)
        assert full.converged and full.minres_unconverged == 0
        capped = newton_polish(grad, hess_vec, np.zeros(40), tol_inf=1e-12,
                               max_iter=3, minres_maxiter=2)
        assert capped.minres_unconverged == capped.iterations == 3
        # every inner iteration is counted: the capped solves run 2 each
        assert capped.minres_iters == 6
        assert full.minres_iters > full.iterations
