"""Tests of the spreading / interpolation numerics and their cost profiles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binsort import bin_sort, make_subproblems, to_grid_coordinates
from repro.core.interp import interp_gm, interp_kernel_profiles
from repro.core.options import Precision, SpreadMethod
from repro.core.spread import (
    compute_kernel_stencil,
    spread_gm,
    spread_kernel_profiles,
    spread_sm,
    spread_sm_kernel_profiles,
)
from repro.gpu.device import V100_SPEC
from repro.kernels import ESKernel


def _setup(rng, fine_shape, m, bins=None, cluster=False):
    ndim = len(fine_shape)
    if cluster:
        coords = [rng.uniform(0, 8 * 2 * np.pi / n, m) for n in fine_shape]
    else:
        coords = [rng.uniform(-np.pi, np.pi, m) for _ in range(ndim)]
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine_shape)]
    if bins is None:
        bins = (32, 32) if ndim == 2 else (16, 16, 2)
    sort = bin_sort(grid_coords, fine_shape, bins)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return grid_coords, sort, c


# --------------------------------------------------------------------------- #
# stencil
# --------------------------------------------------------------------------- #
class TestStencil:
    def test_covers_w_nearest_nodes(self):
        kernel = ESKernel.from_tolerance(1e-5)  # w = 6
        g = np.array([10.3])
        i0, vals = compute_kernel_stencil(g, 64, kernel)
        assert i0[0] == 8  # ceil(10.3 - 3) = 8; nodes 8..13 surround 10.3
        assert vals.shape == (1, 6)
        assert np.all(vals > 0)

    def test_point_exactly_on_node(self):
        kernel = ESKernel.from_tolerance(1e-2)  # w = 3
        i0, vals = compute_kernel_stencil(np.array([5.0]), 32, kernel)
        # distances are {5 - i0 - r}; the node at distance 0 has the max value
        dists = 5.0 - (i0[0] + np.arange(3))
        assert vals[0, np.argmin(np.abs(dists))] == vals[0].max()

    @given(st.floats(min_value=0.0, max_value=63.999))
    @settings(max_examples=60, deadline=None)
    def test_distances_within_half_width(self, g):
        kernel = ESKernel.from_tolerance(1e-6)
        i0, vals = compute_kernel_stencil(np.array([g]), 64, kernel)
        dists = g - (i0[0] + np.arange(kernel.width))
        assert np.all(np.abs(dists) <= kernel.width / 2 + 1e-9)


# --------------------------------------------------------------------------- #
# numerical agreement of the three spreading methods
# --------------------------------------------------------------------------- #
class TestSpreadMethodsAgree:
    @pytest.mark.parametrize("fine_shape", [(64, 48), (32, 32, 20)])
    @pytest.mark.parametrize("cluster", [False, True])
    def test_gm_gmsort_sm_identical(self, rng, fine_shape, cluster):
        kernel = ESKernel.from_tolerance(1e-6)
        grid_coords, sort, c = _setup(rng, fine_shape, 3000, cluster=cluster)
        gm = spread_gm(fine_shape, grid_coords, c, kernel, np.complex128)
        subs = make_subproblems(sort, 256)
        sm = spread_sm(fine_shape, grid_coords, c, kernel, sort, subs, np.complex128)
        np.testing.assert_allclose(sm, gm, rtol=1e-10, atol=1e-10)

    def test_mass_conservation(self, rng):
        # the grid total equals the direct sum of each point's strength times
        # the product over dimensions of its kernel-stencil row sums.
        fine_shape = (40, 40)
        kernel = ESKernel.from_tolerance(1e-3)
        grid_coords, sort, c = _setup(rng, fine_shape, 500)
        grid = spread_gm(fine_shape, grid_coords, c, kernel, np.complex128)
        expected = 0.0 + 0.0j
        for j in range(500):
            _, vx = compute_kernel_stencil(grid_coords[0][j:j + 1], fine_shape[0], kernel)
            _, vy = compute_kernel_stencil(grid_coords[1][j:j + 1], fine_shape[1], kernel)
            expected += c[j] * vx.sum() * vy.sum()
        assert grid.sum() == pytest.approx(expected, rel=1e-9)

    def test_single_point_periodic_wrap(self):
        # a point near the boundary spreads across the periodic edge
        fine_shape = (32, 32)
        kernel = ESKernel.from_tolerance(1e-5)
        grid_coords = [np.array([0.1]), np.array([31.9])]
        c = np.array([1.0 + 0j])
        grid = spread_gm(fine_shape, grid_coords, c, kernel, np.complex128)
        # mass must appear on both sides of the wrap in y
        assert np.abs(grid[:, :4]).sum() > 0
        assert np.abs(grid[:, -3:]).sum() > 0


# --------------------------------------------------------------------------- #
# interpolation
# --------------------------------------------------------------------------- #
class TestInterp:
    def test_spread_interp_adjointness(self, rng):
        # <spread(c), g> == <c, interp(g)> : spreading and interpolation with
        # the same kernel are adjoint linear maps.
        fine_shape = (36, 30)
        kernel = ESKernel.from_tolerance(1e-7)
        grid_coords, sort, c = _setup(rng, fine_shape, 800)
        g = rng.standard_normal(fine_shape) + 1j * rng.standard_normal(fine_shape)
        spread_c = spread_gm(fine_shape, grid_coords, c, kernel, np.complex128)
        interp_g = interp_gm(g, grid_coords, kernel, np.complex128)
        lhs = np.vdot(g, spread_c)
        rhs = np.vdot(interp_g, c)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# --------------------------------------------------------------------------- #
# cost profiles
# --------------------------------------------------------------------------- #
class TestSpreadProfiles:
    def test_gm_profile_counts(self, rng):
        fine_shape = (256, 256)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort, _ = _setup(rng, fine_shape, 4000)
        (profile,) = spread_kernel_profiles(
            SpreadMethod.GM, sort, kernel, Precision.SINGLE, spec=V100_SPEC
        )
        profile.validate()
        assert profile.global_atomic_ops == pytest.approx(4000 * 36)
        assert profile.global_atomic_sector_ops == pytest.approx(4000 * 36)

    def test_gmsort_coalesces_atomics(self, rng):
        fine_shape = (256, 256)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort, _ = _setup(rng, fine_shape, 4000)
        (gm,) = spread_kernel_profiles(SpreadMethod.GM, sort, kernel, Precision.SINGLE)
        (gms,) = spread_kernel_profiles(SpreadMethod.GM_SORT, sort, kernel, Precision.SINGLE)
        assert gms.global_atomic_sector_ops < gm.global_atomic_sector_ops

    def test_sm_profiles_include_writeback(self, rng):
        fine_shape = (256, 256)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort, _ = _setup(rng, fine_shape, 4000)
        subs = make_subproblems(sort, 1024)
        profiles = spread_sm_kernel_profiles(sort, kernel, Precision.SINGLE, subs,
                                             spec=V100_SPEC)
        names = [p.name for p in profiles]
        assert any("writeback" in n for n in names)
        spread_prof = profiles[0]
        assert spread_prof.shared_atomic_ops == pytest.approx(4000 * 36)
        assert spread_prof.shared_mem_per_block <= V100_SPEC.shared_mem_per_block

    def test_sm_respects_shared_memory_limit(self, rng):
        # 3D double precision at high accuracy must refuse (paper Remark 2)
        from repro.gpu.threadblock import LaunchConfigError

        fine_shape = (64, 64, 64)
        kernel = ESKernel.from_tolerance(1e-9)  # w = 10
        _, sort, _ = _setup(rng, fine_shape, 2000, bins=(16, 16, 2))
        subs = make_subproblems(sort, 1024)
        with pytest.raises(LaunchConfigError):
            spread_sm_kernel_profiles(sort, kernel, Precision.DOUBLE, subs, spec=V100_SPEC)

    def test_interp_profiles_have_no_atomics(self, rng):
        fine_shape = (128, 128)
        kernel = ESKernel.from_tolerance(1e-4)
        _, sort, _ = _setup(rng, fine_shape, 3000)
        for method in (SpreadMethod.GM, SpreadMethod.GM_SORT):
            (profile,) = interp_kernel_profiles(method, sort, kernel, Precision.SINGLE)
            profile.validate()
            assert profile.global_atomic_ops == 0
            assert profile.gather_sector_ops > 0

    def test_cluster_distribution_reduces_distinct_addresses(self, rng):
        fine_shape = (512, 512)
        kernel = ESKernel.from_tolerance(1e-5)
        _, sort_rand, _ = _setup(rng, fine_shape, 8000)
        _, sort_cluster, _ = _setup(rng, fine_shape, 8000, cluster=True)
        (p_rand,) = spread_kernel_profiles(SpreadMethod.GM, sort_rand, kernel, Precision.SINGLE)
        (p_cluster,) = spread_kernel_profiles(SpreadMethod.GM, sort_cluster, kernel, Precision.SINGLE)
        assert (
            p_cluster.global_atomic_distinct_addresses
            < 0.05 * p_rand.global_atomic_distinct_addresses
        )
