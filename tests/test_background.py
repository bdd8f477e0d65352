import numpy as np
import pytest

from csvortex.background import (
    VortexSet,
    plane_background,
    torus_background,
    vortex_node_mask,
)
from csvortex.errors import ConfigError, DomainError, NonFiniteFieldError
from csvortex.fields import (
    GridDomain,
    box_laplacian_ring,
    integrate_values,
    laplacian_values,
)


class TestVortexSet:
    def test_counts(self):
        vs = VortexSet((((0.0, 0.0, 2), (1.0, 0.0, 1)), ((0.5, 0.5, 3),)))
        assert vs.counts == (3, 3)
        assert vs.total == 6
        assert vs.num_species == 2

    def test_single_helper(self):
        vs = VortexSet.single([(0.0, 0.0), (1.0, 2.0, 4)])
        assert vs.counts == (5,)

    def test_multiplicity_guard(self):
        with pytest.raises(ConfigError):
            VortexSet((((0.0, 0.0, 0),),))

    def test_outside_domain(self):
        vs = VortexSet.single([(10.0, 0.0)])
        with pytest.raises(DomainError):
            vs.validate_in(GridDomain.box(5.0, 16))

    def test_empty_species_allowed(self):
        vs = VortexSet((tuple(), ((0.0, 0.0, 1),)))
        assert vs.counts == (0, 1)


class TestPlaneBackground:
    def test_pointwise_formula(self):
        # vortex placed so that a node sits at distance exactly 1
        dom = GridDomain.box(16.0, 64)   # h = 0.5, nodes at -16+0.25+0.5k
        x0 = dom.coords()[0][33, 32]     # a node
        vs = VortexSet.single([(x0, dom.coords()[1][33, 32])])
        bg = plane_background(vs, 1.0, dom)
        X, Y = dom.coords()
        node = (35, 32)                  # distance 2*h = 1.0 along x
        d = np.hypot(X[node] - x0, Y[node] - Y[33, 32])
        assert d == pytest.approx(1.0)
        assert bg.u0[0][node] == pytest.approx(-np.log(2.0), rel=1e-12)
        assert bg.h[0][node] == pytest.approx(1.0, rel=1e-12)

    def test_empty_species(self):
        dom = GridDomain.box(8.0, 32)
        bg = plane_background(VortexSet((tuple(),)), 1.0, dom)
        assert np.all(bg.u0[0] == 0.0)
        assert np.all(bg.h[0] == 0.0)

    def test_h_mass_three_vortices(self):
        # ∫ h = 12π within 1% for n_i = 3 on L=20, N=512
        dom = GridDomain.box(20.0, 512)
        vs = VortexSet.single([(0.0, 0.0, 1), (1.5, -0.5, 1), (-1.0, 1.0, 1)])
        bg = plane_background(vs, 1.0, dom)
        mass = integrate_values(bg.h[0], dom)
        assert mass == pytest.approx(12 * np.pi, rel=0.01)

    def test_h_nonnegative_u0_negative(self):
        dom = GridDomain.box(8.0, 64)
        vs = VortexSet.single([(0.5, -0.25)])
        bg = plane_background(vs, 2.0, dom)
        assert np.all(bg.h[0] >= 0.0)
        assert np.all(bg.u0[0] < 0.0)

    def test_h_mass_monotone_in_L(self):
        vs = VortexSet.single([(0.0, 0.0)])
        masses = []
        for L in (8.0, 12.0, 16.0, 24.0):
            dom = GridDomain.box(L, 256)
            bg = plane_background(vs, 2.0, dom)
            masses.append(integrate_values(bg.h[0], dom))
        assert all(m1 < m2 for m1, m2 in zip(masses, masses[1:]))
        assert masses[-1] < 4 * np.pi

    def test_lambda_guard(self):
        dom = GridDomain.box(8.0, 32)
        with pytest.raises(ConfigError):
            plane_background(VortexSet.single([(0.0, 0.0)]), -1.0, dom)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_lambda_is_named(self):
        # finite lambda_bg whose lam/d2 and (lam + d2)^2 overflow: named by
        # the error alone, with no numpy RuntimeWarning before it
        dom = GridDomain.box(8.0, 64)
        with pytest.raises(NonFiniteFieldError, match=r"lambda_bg = 1e\+308") as err:
            plane_background(VortexSet.single([(0.0, 0.0)]), 1e308, dom)
        assert err.value.node is not None

    def test_consistent_profile_residual(self):
        # Δ u0_grid + h - 4π δ_grid = 0 under the solver's ring operator
        dom = GridDomain.box(8.0, 64)
        vs = VortexSet.single([(0.3, -0.7)])
        bg = plane_background(vs, 2.0, dom)
        ring = bg.u0_pad[0].copy()
        ring[1:-1, 1:-1] = 0.0
        lap = box_laplacian_ring(bg.u0_grid[0], ring, dom)
        resid = lap + bg.h[0]
        # away from the 4 loaded nodes the residual closes to round-off
        mask = vortex_node_mask(vs, dom, halo=1)
        assert np.max(np.abs(resid[~mask])) < 1e-9
        # and the loaded nodes carry exactly the 4π mass
        assert integrate_values(lap + bg.h[0], dom) == pytest.approx(
            4 * np.pi, rel=1e-10)


class TestTorusBackground:
    def test_zero_vortices(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        bg = torus_background(VortexSet((tuple(),)), dom)
        assert np.max(np.abs(bg.u0)) == 0.0

    def test_residual_and_mean(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
        bg = torus_background(VortexSet.single([(np.pi, np.pi)]), dom)
        # Δu0 - load closes to round-off by construction
        assert np.max(np.abs(laplacian_values(bg.u0, dom) - bg.load)) < 1e-10
        assert abs(integrate_values(bg.u0, dom)) < 1e-10 * np.max(np.abs(bg.u0)) * dom.area

    def test_load_mass(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 64, 64)
        bg = torus_background(VortexSet.single([(np.pi, np.pi, 2)]), dom)
        # total load integrates to zero: 8*pi*n balanced by the uniform part
        assert abs(integrate_values(bg.load, dom)) < 1e-9

    def test_coincident_points_equal_multiplicity(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        p = (np.pi, np.pi)
        bg_two = torus_background(VortexSet.single([p, p]), dom)
        bg_double = torus_background(VortexSet.single([(p[0], p[1], 2)]), dom)
        assert np.max(np.abs(bg_two.u0 - bg_double.u0)) < 1e-12

    def test_translation_equivariance(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        shift = 4  # lattice-commensurate
        bg0 = torus_background(VortexSet.single([(np.pi, np.pi)]), dom)
        bg1 = torus_background(
            VortexSet.single([(np.pi + shift * dom.h1, np.pi)]), dom)
        assert np.max(np.abs(np.roll(bg0.u0, shift, axis=0) - bg1.u0)) < 1e-10

    def test_linearity_in_load(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        p1, p2 = (np.pi, np.pi), (np.pi / 2, np.pi)
        bg1 = torus_background(VortexSet.single([p1]), dom)
        bg2 = torus_background(VortexSet.single([p2]), dom)
        bg12 = torus_background(VortexSet.single([p1, p2]), dom)
        assert np.max(np.abs(bg1.u0 + bg2.u0 - bg12.u0)) < 1e-10

    def test_point_outside_cell(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        with pytest.raises(DomainError):
            torus_background(VortexSet.single([(7.0, 1.0)]), dom)

    def test_two_species_rejected(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        vs = VortexSet((((1.0, 1.0, 1),), ((2.0, 2.0, 1),)))
        with pytest.raises(ConfigError):
            torus_background(vs, dom)


class TestVortexMask:
    def test_plane_patch(self):
        dom = GridDomain.box(8.0, 32)
        vs = VortexSet.single([(0.0, 0.0)])
        mask = vortex_node_mask(vs, dom)
        assert mask.sum() == 9

    def test_torus_wraparound(self):
        dom = GridDomain.torus(2 * np.pi, 2 * np.pi, 32, 32)
        vs = VortexSet.single([(0.0, 0.0)])
        mask = vortex_node_mask(vs, dom)
        assert mask.sum() == 9
        assert mask[0, 0] and mask[-1, -1]
