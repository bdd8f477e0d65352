"""One solve contract on the plane and the torus: the options every solve
takes check their own values, and every solve returns the record the
command line reads."""

import math

import numpy as np
import pytest

import csvortex.plane as plane
import csvortex.torus as torus
from csvortex.background import VortexSet
from csvortex.errors import ConfigError
from csvortex.fields import GridDomain
from csvortex.model import ModelParams, SolveOpts

# the keys cli._solve_report and cmd_solve_torus read from a solver's record
RECORD_KEYS = ("iterations", "newton_iterations", "lbfgs_evals", "minres_iters",
               "minres_unconverged", "clamp_hit", "wall_time", "operator", "bg",
               "energies", "grad_inf")

# one bad value per case; the other option keeps its default
BAD_OPTS = [({"tol": math.nan}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1e-9}, "tol"),
            ({"max_iter": 0}, "max_iter"), ({"tol": True}, "tol"), ({"tol": "1e-9"}, "tol"),
            ({"max_iter": True}, "max_iter"), ({"max_iter": 2.5}, "max_iter")]
BAD_IDS = ["tol-nan", "tol-zero", "tol-negative", "max-iter-zero", "tol-bool", "tol-str",
           "max-iter-bool", "max-iter-float"]

PLANE_PARAMS = ModelParams(alpha=1.0, beta=1.0, species=1, lambda_bg=2.0)
PLANE_BOX = GridDomain.box(6.0, 32)
PLANE_VORTEX = VortexSet.single([(0.0, 0.0)])


@pytest.fixture(scope="module")
def plane_run():
    return plane.solve_plane(PLANE_PARAMS, PLANE_VORTEX, PLANE_BOX,
                             plane.PlaneSolveOpts(tol=1e-9))


@pytest.fixture(scope="module")
def torus_runs():
    """Both torus solutions on the 16² cell at alpha=30, beta=45."""
    dom = GridDomain.torus(2 * math.pi, 2 * math.pi, 16, 16)
    params = ModelParams(alpha=30.0, beta=45.0, sigma=2.0)
    vs = VortexSet.single([(math.pi, math.pi)])
    first, info = torus.minimize_torus(params, vs, dom, torus.TorusSolveOpts(tol=1e-10))
    second, info2 = torus.mountain_pass(params, first, torus.TorusSolveOpts(tol=1e-9),
                                        bg=info["bg"])
    return params, vs, dom, (first, info), (second, info2)


@pytest.mark.parametrize("bad, key", BAD_OPTS, ids=BAD_IDS)
class TestBadOptionsRefused:
    """A tolerance that is not a positive finite real number, or an iteration
    cap that is not an integer of at least one, is refused by every solve
    with a message that starts as the command line's do."""

    def test_solve_plane(self, bad, key):
        with pytest.raises(ConfigError, match=f"^{key} must"):
            plane.solve_plane(PLANE_PARAMS, PLANE_VORTEX, PLANE_BOX,
                              plane.PlaneSolveOpts(**bad))

    def test_minimize_torus(self, torus_runs, bad, key):
        params, vs, dom, _, _ = torus_runs
        with pytest.raises(ConfigError, match=f"^{key} must"):
            torus.minimize_torus(params, vs, dom, torus.TorusSolveOpts(**bad))

    def test_mountain_pass(self, torus_runs, bad, key):
        params, _, _, (first, info), _ = torus_runs
        with pytest.raises(ConfigError, match=f"^{key} must"):
            torus.mountain_pass(params, first, torus.TorusSolveOpts(**bad), bg=info["bg"])


def test_numpy_numbers_accepted():
    opts = SolveOpts(tol=np.float32(1e-6), max_iter=np.int64(30))
    assert (opts.tol, opts.max_iter) == (np.float32(1e-6), 30)


def test_every_solve_returns_the_record(plane_run, torus_runs):
    _, _, _, first, second = torus_runs
    for name, (_, info), energy_key in (("solve_plane", plane_run, "energy"),
                                        ("minimize_torus", first, "energy_I"),
                                        ("mountain_pass", second, "energy_I")):
        assert [key for key in RECORD_KEYS if key not in info] == [], name
        assert info["energies"][-1] == info[energy_key], name


@pytest.mark.parametrize("domain", ["plane", "torus"])
def test_lbfgs_evals_counts_every_evaluation(domain, monkeypatch):
    # info["lbfgs_evals"] against a wrapper that counts every call of the
    # function the solve hands to minimize_lbfgs
    module = plane if domain == "plane" else torus
    calls = []
    lbfgs = module.minimize_lbfgs

    def counting(fun_grad, x0, **kwargs):
        def counted(x):
            calls.append(1)
            return fun_grad(x)
        return lbfgs(counted, x0, **kwargs)

    monkeypatch.setattr(module, "minimize_lbfgs", counting)
    if domain == "plane":
        _, info = plane.solve_plane(PLANE_PARAMS, PLANE_VORTEX, PLANE_BOX,
                                    plane.PlaneSolveOpts(tol=1e-9))
    else:
        _, info = torus.minimize_torus(ModelParams(alpha=30.0, beta=45.0, sigma=2.0),
                                       VortexSet.single([(math.pi, math.pi)]),
                                       GridDomain.torus(2 * math.pi, 2 * math.pi, 16, 16),
                                       torus.TorusSolveOpts(tol=1e-10))
    assert info["lbfgs_evals"] == len(calls) > 1
