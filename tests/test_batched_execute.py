"""Tests of the batched execution engine: plan-level stencil cache, fused
``n_trans`` vectorization, Horner kernel evaluation, and the point state
shared by every plan on one point set."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import (
    Plan,
    nudft_type1,
    nudft_type3,
    nufft2d1,
    nufft2d2,
    relative_l2_error,
)
import repro.core.plan as plan_module
from repro.core import points as points_module
from repro.core.binsort import bin_sort, make_subproblems, to_grid_coordinates
from repro.core.exact import mode_indices
from repro.core.interp import interp_cached, interp_gm, interp_subproblems
from repro.core.spread import (
    spread_cached,
    spread_gm,
    spread_sm,
    spread_subproblems,
)
from repro.core.options import default_bin_shape
from repro.core.stencil import DEFAULT_FUSE_BUDGET, build_stencil_cache
from repro.kernels import ESKernel
from repro.kernels.es_kernel import (
    MAX_KERNEL_WIDTH,
    MIN_KERNEL_WIDTH,
    horner_coefficients,
)
from tests.conftest import make_points_2d, make_points_3d

#: Seed-equivalent options: per-transform loop, no cache, exact kernel.
LEGACY = dict(backend="reference")


def _grid_setup(rng, fine_shape, m, eps=1e-6):
    kernel = ESKernel.from_tolerance(eps)
    coords = [rng.uniform(-np.pi, np.pi, m) for _ in fine_shape]
    grid_coords = [to_grid_coordinates(c, n) for c, n in zip(coords, fine_shape)]
    sort = bin_sort(grid_coords, fine_shape, default_bin_shape(len(fine_shape)))
    return kernel, grid_coords, sort


# --------------------------------------------------------------------------- #
# Horner kernel evaluation
# --------------------------------------------------------------------------- #
class TestHornerKernel:
    @pytest.mark.parametrize("width", range(MIN_KERNEL_WIDTH, MAX_KERNEL_WIDTH + 1))
    def test_matches_exact_below_tenth_of_eps(self, width):
        # < 0.1 * eps(w) absolute error for every supported width, where
        # eps(w) = 10**(1-w) is the kernel's own delivered accuracy (Eq. 6).
        # The widest kernels bottom out at the float64 representation floor
        # (a few ulps of the unit kernel peak), which is below 0.1*eps for
        # every width whose eps is representable headroom away from 1 ulp.
        kernel = ESKernel(width=width, beta=2.3 * width)
        frac = np.linspace(width / 2.0 - 1.0, width / 2.0, 4001)
        exact = kernel.evaluate_offsets(frac)
        horner = kernel.evaluate_offsets_horner(frac)
        tol = max(0.1 * 10.0 ** (1 - width), 6e-15)
        assert np.abs(horner - exact).max() < tol

    def test_coefficients_cached_and_readonly(self):
        a = horner_coefficients(6, 2.3 * 6)
        b = horner_coefficients(6, 2.3 * 6)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    def test_full_transform_accuracy_with_horner(self, rng):
        # End-to-end: the default (Horner) plan still meets the tolerance.
        x, y, c = make_points_2d(rng, m=900)
        n_modes = (30, 30)
        exact = nudft_type1([x, y], c, n_modes)
        for eps in (1e-4, 1e-8):
            with Plan(1, n_modes, eps=eps, precision="double") as plan:
                plan.set_pts(x, y)
                approx = plan.execute(c)
            assert relative_l2_error(approx, exact) < 12 * eps


# --------------------------------------------------------------------------- #
# stencil cache (function level)
# --------------------------------------------------------------------------- #
class TestStencilCache:
    def test_cached_spread_matches_uncached(self, rng):
        fine_shape = (48, 40)
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 1200)
        c = rng.standard_normal(1200) + 1j * rng.standard_normal(1200)
        cache = build_stencil_cache(grid_coords, sort, kernel, kernel_eval="exact")
        base = spread_gm(fine_shape, grid_coords, c, kernel, np.complex128)
        cached = spread_subproblems(fine_shape, c, cache, sort.permutation,
                                    make_subproblems(sort, 1024), np.complex128)
        np.testing.assert_allclose(cached, base, rtol=1e-12, atol=1e-12)
        sparse = spread_cached(fine_shape, c, cache, sort.permutation, np.complex128)
        np.testing.assert_allclose(sparse, base, rtol=1e-10, atol=1e-10)

    def test_cached_interp_matches_uncached(self, rng):
        fine_shape = (40, 40)
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 1000)
        grid = rng.standard_normal(fine_shape) + 1j * rng.standard_normal(fine_shape)
        cache = build_stencil_cache(grid_coords, sort, kernel, kernel_eval="exact")
        base = interp_gm(grid, grid_coords, kernel, np.complex128)
        cached = interp_subproblems(grid, cache, sort.permutation,
                                    make_subproblems(sort, 1024), np.complex128)
        np.testing.assert_allclose(cached, base, rtol=1e-12, atol=1e-12)
        sparse = interp_cached(grid, cache, sort.permutation, np.complex128)
        np.testing.assert_allclose(sparse, base, rtol=1e-10, atol=1e-10)

    def test_budget_disables_fused_form(self, rng):
        fine_shape = (32, 32)
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 500)
        fused = build_stencil_cache(grid_coords, sort, kernel)
        lean = build_stencil_cache(grid_coords, sort, kernel, fuse_budget=0)
        assert fused.is_fused and fused.interp_matrix is not None
        assert not lean.is_fused and lean.interp_matrix is None
        # The per-dimension arrays are still there for the over-budget engine.
        c = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        a = spread_cached(fine_shape, c, fused, sort.permutation, np.complex128)
        b = spread_subproblems(fine_shape, c, lean, sort.permutation,
                               make_subproblems(sort, 1024), np.complex128)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_sm_spread_with_cache(self, rng):
        fine_shape = (64, 48)
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 2000)
        subs = make_subproblems(sort, 256)
        c = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        cache = build_stencil_cache(grid_coords, sort, kernel, kernel_eval="exact")
        base = spread_sm(fine_shape, grid_coords, c, kernel, sort, subs, np.complex128)
        cached = spread_subproblems(fine_shape, c, cache, sort.permutation, subs,
                                    np.complex128)
        np.testing.assert_allclose(cached, base, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# bin-ordered operator (function level)
# --------------------------------------------------------------------------- #
FINE_SHAPES = [(96,), (40, 36), (24, 20, 16)]


def _one_bin_sort(grid_coords, fine_shape):
    """A bin sort with a single bin: its permutation is the user order."""
    sort = bin_sort(grid_coords, fine_shape, fine_shape)
    np.testing.assert_array_equal(sort.permutation, np.arange(grid_coords[0].shape[0]))
    return sort


def _reference_point_state(grid_coords, fine_shape, kernel, row_order):
    """Per-dimension ``(i0, idx, vals)`` as a points-slow broadcasting build.

    Horner evaluation over an ``(M, w)`` array with a length-``w`` inner
    axis and an int64 ``np.mod`` wrap: the reference the set-up path must
    reproduce bit for bit.
    """
    w = kernel.width
    coeffs = horner_coefficients(w, kernel.beta)
    offsets = np.arange(w, dtype=np.int64)
    state = []
    for d, n in enumerate(fine_shape):
        g = grid_coords[d] if row_order is None else grid_coords[d][row_order]
        i0 = np.ceil(g - 0.5 * w).astype(np.int64)
        u = (2.0 * (g - i0) - (w - 1.0))[:, None]
        vals = np.broadcast_to(coeffs[:, -1], (g.shape[0], w)).copy()
        for k in range(coeffs.shape[1] - 2, -1, -1):
            vals *= u
            vals += coeffs[:, k]
        state.append((i0, np.mod(i0[:, None] + offsets[None, :], n), vals))
    return state


def _reference_operator(state, fine_shape, dtype):
    """CSR ``(data, indices, indptr)`` by broadcast tensor products."""
    m = state[0][0].shape[0]
    flat, weights = state[0][1], state[0][2]
    for d in range(1, len(fine_shape)):
        flat = (flat[:, :, None] * fine_shape[d]
                + state[d][1][:, None, :]).reshape(m, -1)
        weights = (weights[:, :, None] * state[d][2][:, None, :]).reshape(m, -1)
    k = flat.shape[1]
    return (weights.reshape(-1).astype(dtype), flat.reshape(-1),
            np.arange(0, (m + 1) * k, k))


class TestBinOrderedOperator:
    @pytest.mark.parametrize("fine_shape", FINE_SHAPES)
    def test_rows_are_a_permutation_of_user_order(self, rng, fine_shape):
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 1500)
        plain = build_stencil_cache(grid_coords, _one_bin_sort(grid_coords, fine_shape),
                                    kernel)
        ordered = build_stencil_cache(grid_coords, sort, kernel)
        back = ordered.interp_matrix[np.argsort(sort.permutation)]
        ref = plain.interp_matrix
        assert back.dtype == ref.dtype == np.float64
        assert ordered.interp_matrix.indices.dtype == np.int32
        assert ordered.interp_matrix.indptr.dtype == np.int32
        # Bit-identical: the kernel is evaluated pointwise, so permuting the
        # coordinates first only moves rows.
        assert np.array_equal(back.indptr, ref.indptr)
        assert np.array_equal(back.indices, ref.indices)
        assert np.array_equal(back.data.view(np.uint64), ref.data.view(np.uint64))
        for d in range(len(fine_shape)):
            assert np.array_equal(ordered.vals[d], plain.vals[d][sort.permutation])

    @pytest.mark.parametrize("fine_shape", FINE_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_budget", [True, False])
    def test_build_matches_broadcast_reference(self, rng, fine_shape, dtype,
                                               in_budget):
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 1500)
        frac = grid_coords[0] - np.ceil(grid_coords[0] - 0.5 * kernel.width)
        horner = kernel.evaluate_offsets_horner(frac)
        assert horner.shape == (1500, kernel.width) and horner.dtype == np.float64
        assert horner.flags.c_contiguous
        cache = build_stencil_cache(grid_coords, sort, kernel,
                                    fuse_budget=DEFAULT_FUSE_BUDGET if in_budget else 0,
                                    dtype=dtype)
        state = _reference_point_state(grid_coords, fine_shape, kernel,
                                       sort.permutation)
        assert cache.is_fused == in_budget
        for d, (i0, idx, vals) in enumerate(state):
            assert np.array_equal(cache.i0[d], i0)
            assert np.array_equal(cache.idx[d], idx)
            assert cache.vals[d].dtype == np.float64
            assert np.array_equal(cache.vals[d].view(np.uint64), vals.view(np.uint64))
        if in_budget:
            data, indices, indptr = _reference_operator(state, fine_shape, dtype)
            op = cache.interp_matrix
            assert op.data.dtype == np.dtype(dtype)
            assert np.array_equal(op.data, data)
            assert np.array_equal(np.signbit(op.data), np.signbit(data))
            assert np.array_equal(op.indices, indices)
            assert np.array_equal(op.indptr, indptr)

    def test_over_budget_cache_is_bin_ordered(self, rng):
        fine_shape = (40, 36)
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 500)
        lean = build_stencil_cache(grid_coords, sort, kernel, fuse_budget=0)
        fused = build_stencil_cache(grid_coords, sort, kernel)
        plain = build_stencil_cache(grid_coords, _one_bin_sort(grid_coords, fine_shape),
                                    kernel, fuse_budget=0)
        assert lean.interp_matrix is None
        for d in range(2):
            assert np.array_equal(lean.i0[d], fused.i0[d])
            assert np.array_equal(lean.vals[d], fused.vals[d])
            assert np.array_equal(lean.vals[d], plain.vals[d][sort.permutation])

    @pytest.mark.parametrize("fine_shape", FINE_SHAPES)
    @pytest.mark.parametrize("n_trans", [1, 3])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_cached_operators_match_direct_sums(self, rng, fine_shape, n_trans,
                                                precision):
        m = 1500
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, m)
        real, cplx, tol = ((np.float32, np.complex64, 1e-6) if precision == "single"
                           else (np.float64, np.complex128, 1e-12))
        # As a plan builds them: float64 to spread, the precision's dtype to
        # interpolate.
        spread_cache = build_stencil_cache(grid_coords, sort, kernel,
                                           kernel_eval="exact")
        interp_cache = build_stencil_cache(grid_coords, sort, kernel,
                                           kernel_eval="exact", dtype=real)
        order = sort.permutation
        assert interp_cache.interp_matrix.dtype == real
        c = (rng.standard_normal((n_trans, m))
             + 1j * rng.standard_normal((n_trans, m))).astype(cplx)
        grid = (rng.standard_normal((n_trans,) + fine_shape)
                + 1j * rng.standard_normal((n_trans,) + fine_shape)).astype(cplx)

        spread = spread_cached(fine_shape, c, spread_cache, order, cplx)
        assert spread.dtype == cplx and spread.shape == (n_trans,) + fine_shape
        base = spread_gm(fine_shape, grid_coords, c, kernel, np.complex128)
        assert relative_l2_error(spread, base) < tol
        values = interp_cached(grid, interp_cache, order, cplx)
        assert values.dtype == cplx and values.shape == (n_trans, m)
        base = interp_gm(grid, grid_coords, kernel, np.complex128)
        assert relative_l2_error(values, base) < tol

        # Strided destinations receive exactly the allocated results.
        wide = fine_shape[:-1] + (2 * fine_shape[-1],)
        out = np.zeros((n_trans,) + wide, cplx)[..., ::2]
        assert spread_cached(fine_shape, c, spread_cache, order, cplx, out=out) is out
        assert np.array_equal(out, spread)
        out = np.zeros((2 * n_trans, m), cplx)[::2]
        assert interp_cached(grid, interp_cache, order, cplx, out=out) is out
        assert np.array_equal(out, values)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_plan_operator_dtype_follows_type(self, rng, precision):
        x, y, _ = make_points_2d(rng, m=2000)
        single = precision == "single"
        with Plan(1, (32, 32), precision=precision) as p1, \
                Plan(2, (32, 32), precision=precision) as p2, \
                Plan(3, 2, precision=precision) as p3:
            p1.set_pts(x, y)
            p2.set_pts(x, y)
            p3.set_pts(x, y, s=3 * x, t=3 * y)
            # Spreading accumulates in float64; interpolation-only type 2
            # runs in the precision's dtype (type 3 spreads, and its inner
            # type-2 plan interpolates).
            assert p1._stencil.interp_matrix.dtype == np.float64
            assert p3._stencil.interp_matrix.dtype == np.float64
            expected = np.float32 if single else np.float64
            assert p2._stencil.interp_matrix.dtype == expected
            assert p3._t3_inner._stencil.interp_matrix.dtype == expected
            assert f"sparse-op {np.dtype(expected)}, bin-ordered" in p2.report()


class TestClusteredSinglePrecision:
    @pytest.mark.parametrize("n_modes", [(64,), (32, 32)])
    def test_type1_clustered_within_ten_eps(self, n_modes):
        # 2^16 points inside an 8-fine-cell box with positive-mean strengths:
        # every touched cell sums ~10^4-10^5 terms of one sign, the case that
        # puts float32 accumulation (a float32 spread operator) at ~2e-5.
        rng = np.random.default_rng(20)
        eps, m = 1e-6, 1 << 16
        with Plan(1, n_modes, eps=eps, precision="single") as plan:
            width = [8 * 2 * np.pi / n for n in plan.fine_shape]
            pts = [rng.uniform(0.3, 0.3 + w, m) for w in width]
            c = (rng.uniform(0.5, 1.5, m)
                 + 1j * rng.uniform(0.5, 1.5, m)).astype(np.complex64)
            plan.set_pts(*pts)
            out = plan.execute(c)
        sel = tuple(rng.integers(0, n, 64) for n in n_modes)
        modes = [mode_indices(n)[k].astype(np.float64) for n, k in zip(n_modes, sel)]
        exact = nudft_type3(pts, c.astype(np.complex128), modes, isign=-1)
        assert relative_l2_error(out[sel], exact) <= 10 * eps


# --------------------------------------------------------------------------- #
# one point state per point set
# --------------------------------------------------------------------------- #
SHARE_MODES = {1: (48,), 2: (24, 20), 3: (12, 10, 8)}
SHARE_EPS = {"single": 1e-5, "double": 1e-11}


def _share_points(rng, n_modes, m, dist):
    """``rand`` points over the whole box or ``cluster`` points in 8 fine cells."""
    if dist == "rand":
        return [rng.uniform(-np.pi, np.pi, m) for _ in n_modes]
    return [rng.uniform(0.0, 8 * 2 * np.pi / (2 * n), m) for n in n_modes]


def _share_data(rng, n_modes, m, precision):
    dtype = np.complex64 if precision == "single" else np.complex128
    c = (rng.standard_normal(m) + 1j * rng.standard_normal(m)).astype(dtype)
    f = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)).astype(dtype)
    return c, f


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _point_state_line(plan):
    return next(line for line in plan.report().splitlines()
                if line.strip().startswith("point state:"))


def _alone(nufft_type, n_modes, coords, data, **kw):
    """Output of a plan built with no sibling alive."""
    gc.collect()
    with Plan(nufft_type, n_modes, **kw) as plan:
        plan.set_pts(*coords)
        assert "built" in _point_state_line(plan)
        out = plan.execute(data)
    gc.collect()
    return out


class TestSharedPointState:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("dist", ["rand", "cluster"])
    def test_type1_and_type2_share_one_state(self, dim, precision, dist):
        rng = np.random.default_rng([dim, precision == "single", dist == "rand"])
        n_modes, m = SHARE_MODES[dim], 400
        coords = _share_points(rng, n_modes, m, dist)
        c, f = _share_data(rng, n_modes, m, precision)
        kw = dict(eps=SHARE_EPS[precision], precision=precision)
        want1 = _alone(1, n_modes, coords, c, **kw)
        want2 = _alone(2, n_modes, coords, f, **kw)

        p1, p2 = Plan(1, n_modes, **kw), Plan(2, n_modes, **kw)
        p1.set_pts(*[a.copy() for a in coords])
        p2.set_pts(*[a.copy() for a in coords])
        state = p1._points
        assert p2._points is state
        assert "built" in _point_state_line(p1)
        assert "shared" in _point_state_line(p2)
        assert state.digest[:12] in _point_state_line(p2)

        op1, op2 = p1._stencil.interp_matrix, p2._stencil.interp_matrix
        assert op1.dtype == np.float64
        assert op2.dtype == (np.float32 if precision == "single" else np.float64)
        for name in ("indices", "indptr"):
            assert np.shares_memory(getattr(op1, name), getattr(op2, name))
        for d in range(dim):
            assert p1._stencil.vals[d] is p2._stencil.vals[d]
        shared = (state.grid_coords + p1._stencil.arrays() + p2._stencil.arrays()
                  + [state.sort.permutation, state.sort.bin_counts])
        assert not any(a.flags.writeable for a in shared)

        assert _same_bits(p1.execute(c), want1)
        assert _same_bits(p2.execute(f), want2)
        # Re-pointing, then destroying, one plan leaves the other untouched.
        p1.set_pts(*_share_points(rng, n_modes, m, dist))
        assert p1._points is not state and p2._points is state
        assert _same_bits(p2.execute(f), want2)
        p1.destroy()
        gc.collect()
        assert _same_bits(p2.execute(f), want2)

        alive, key = weakref.ref(state), state.key
        del state, op1, op2, shared
        p2.destroy()
        gc.collect()
        assert alive() is None
        assert key not in points_module._REGISTRY

    def test_type3_releases_both_states(self, rng):
        # A type-3 plan's inner type-2 plan holds the target points' state;
        # destroying the type-3 plan releases both states.
        x, y, c = make_points_2d(rng, m=300)
        with Plan(3, 2, eps=1e-6) as p3:
            p3.set_pts(x, y, s=3 * x, t=3 * y)
            inner = weakref.ref(p3._t3_inner._points)
            outer = weakref.ref(p3._points)
            assert outer() is not inner()
        gc.collect()
        assert inner() is None and outer() is None

    def test_parameters_that_shape_the_state_split_it(self, rng):
        x, y, _ = make_points_2d(rng, m=500)
        base = dict(eps=1e-6, precision="double")
        with Plan(1, (24, 20), **base) as ref, Plan(2, (24, 20), **base) as same:
            ref.set_pts(x, y)
            same.set_pts(x, y)
            assert same._points is ref._points
            for change in (dict(bin_shape=(8, 8)), dict(eps=1e-9),
                           dict(stencil_budget=0), dict(kernel_eval="exact")):
                with Plan(1, (24, 20), **dict(base, **change)) as other:
                    other.set_pts(x, y)
                    assert other._points is not ref._points, change
            with Plan(1, (24, 20), **base) as moved:
                moved.set_pts(x + 1e-3, y)
                assert moved._points is not ref._points

    def test_equal_digests_need_equal_coordinates(self, rng, monkeypatch):
        # Force every digest to collide: the coordinate check alone must keep
        # different points apart.
        class Collide:
            def __init__(self, **kwargs):
                pass

            def update(self, data):
                pass

            def hexdigest(self):
                return "0" * 32

        monkeypatch.setattr(points_module.hashlib, "blake2b", Collide)
        x, y, c = make_points_2d(rng, m=500)
        x2, y2, _ = make_points_2d(rng, m=500)
        want = nudft_type1([x2, y2], c, (20, 20))
        with Plan(1, (20, 20), eps=1e-9, precision="double") as first, \
                Plan(1, (20, 20), eps=1e-9, precision="double") as second:
            first.set_pts(x, y)
            second.set_pts(x2, y2)
            assert second._points is not first._points
            assert second._points.key == first._points.key
            assert relative_l2_error(second.execute(c), want) < 1e-7

    def test_concurrent_set_pts_on_equal_points(self, rng, monkeypatch):
        # More threads than cores, with a short switch interval, race set_pts
        # on equal points: one sort and one index build must serve them all.
        calls = []
        for name in ("bin_sort", "build_stencil_cache"):
            real = getattr(plan_module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(plan_module, name, spy)
        x, y, c = make_points_2d(rng, m=3000)
        c = c.astype(np.complex64)
        f = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))).astype(
            np.complex64)
        want = {1: _alone(1, (32, 32), (x, y), c), 2: _alone(2, (32, 32), (x, y), f)}
        calls.clear()
        plans = [Plan(1 + k % 2, (32, 32)) for k in range(8)]
        barrier = threading.Barrier(len(plans))
        errors = []

        def run(plan):
            try:
                barrier.wait(timeout=30)
                plan.set_pts(x.copy(), y.copy())
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(p,)) for p in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert sorted(calls) == ["bin_sort", "build_stencil_cache"]
        assert all(p._points is plans[0]._points for p in plans)
        for p in plans:
            data = c if p.nufft_type == 1 else f
            assert _same_bits(p.execute(data), want[p.nufft_type])
            p.destroy()

    def test_only_the_first_set_pts_sorts_and_builds(self, rng, monkeypatch):
        calls = []
        for name in ("bin_sort", "build_stencil_cache"):
            real = getattr(plan_module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(plan_module, name, spy)
        x, y, c = make_points_2d(rng, m=800)
        c = c.astype(np.complex64)
        f = np.ones((20, 20), np.complex64)
        with Plan(2, (20, 20)) as p2, Plan(1, (20, 20)) as p1:
            p2.set_pts(x, y)
            assert calls == ["bin_sort", "build_stencil_cache"]
            p1.set_pts(x, y)
            assert len(calls) == 2
            for _ in range(3):
                p2.execute(f)
                p1.execute(c)
            assert len(calls) == 2


# --------------------------------------------------------------------------- #
# batched spreading / interpolation (function level)
# --------------------------------------------------------------------------- #
class TestBatchedFunctions:
    @pytest.mark.parametrize("fine_shape", [(40, 36), (24, 20, 16)])
    def test_batched_spread_equals_loop(self, rng, fine_shape):
        kernel, grid_coords, _ = _grid_setup(rng, fine_shape, 1500)
        block = rng.standard_normal((4, 1500)) + 1j * rng.standard_normal((4, 1500))
        batched = spread_gm(fine_shape, grid_coords, block, kernel, np.complex128)
        assert batched.shape == (4,) + fine_shape
        for t in range(4):
            single = spread_gm(fine_shape, grid_coords, block[t], kernel,
                               np.complex128)
            np.testing.assert_allclose(batched[t], single, rtol=1e-11, atol=1e-11)

    def test_batched_sm_spread_equals_loop(self, rng):
        fine_shape = (48, 48)
        kernel, grid_coords, sort = _grid_setup(rng, fine_shape, 1200)
        subs = make_subproblems(sort, 200)
        block = rng.standard_normal((3, 1200)) + 1j * rng.standard_normal((3, 1200))
        batched = spread_sm(fine_shape, grid_coords, block, kernel, sort, subs,
                            np.complex128)
        for t in range(3):
            single = spread_sm(fine_shape, grid_coords, block[t], kernel, sort, subs,
                               np.complex128)
            np.testing.assert_allclose(batched[t], single, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("fine_shape", [(40, 36), (20, 18, 16)])
    def test_batched_interp_equals_loop(self, rng, fine_shape):
        kernel, grid_coords, _ = _grid_setup(rng, fine_shape, 1100)
        grids = (rng.standard_normal((3,) + fine_shape)
                 + 1j * rng.standard_normal((3,) + fine_shape))
        batched = interp_gm(grids, grid_coords, kernel, np.complex128)
        assert batched.shape == (3, 1100)
        for t in range(3):
            single = interp_gm(grids[t], grid_coords, kernel, np.complex128)
            np.testing.assert_allclose(batched[t], single, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# plan-level batched execution
# --------------------------------------------------------------------------- #
class TestPlanBatchedEngine:
    @pytest.mark.parametrize("method", ["GM", "GM-sort", "SM"])
    def test_type1_matches_legacy_loop(self, rng, method):
        x, y, _ = make_points_2d(rng, m=800)
        block = rng.standard_normal((5, 800)) + 1j * rng.standard_normal((5, 800))
        n_modes = (22, 26)
        with Plan(1, n_modes, n_trans=5, eps=1e-7, method=method,
                  precision="double") as plan:
            plan.set_pts(x, y)
            fast = plan.execute(block)
        with Plan(1, n_modes, n_trans=5, eps=1e-7, method=method,
                  precision="double", **LEGACY) as plan:
            plan.set_pts(x, y)
            slow = plan.execute(block)
        assert relative_l2_error(fast, slow) < 1e-8

    def test_type2_matches_legacy_loop(self, rng):
        x, y, z, _ = make_points_3d(rng, m=700)
        n_modes = (12, 10, 14)
        block = (rng.standard_normal((4,) + n_modes)
                 + 1j * rng.standard_normal((4,) + n_modes))
        with Plan(2, n_modes, n_trans=4, eps=1e-8, precision="double") as plan:
            plan.set_pts(x, y, z)
            fast = plan.execute(block)
        with Plan(2, n_modes, n_trans=4, eps=1e-8, precision="double",
                  **LEGACY) as plan:
            plan.set_pts(x, y, z)
            slow = plan.execute(block)
        assert relative_l2_error(fast, slow) < 1e-9

    def test_3d_type1_batched_accuracy(self, rng):
        x, y, z, _ = make_points_3d(rng, m=600)
        block = rng.standard_normal((3, 600)) + 1j * rng.standard_normal((3, 600))
        n_modes = (10, 12, 8)
        with Plan(1, n_modes, n_trans=3, eps=1e-6, precision="double") as plan:
            plan.set_pts(x, y, z)
            out = plan.execute(block)
        for t in range(3):
            exact = nudft_type1([x, y, z], block[t], n_modes)
            assert relative_l2_error(out[t], exact) < 1e-4

    def test_stencil_cache_invalidated_by_set_pts(self, rng):
        x, y, c = make_points_2d(rng, m=500)
        x2, y2, c2 = make_points_2d(rng, m=650)
        plan = Plan(1, (20, 20), eps=1e-7, precision="double")
        plan.set_pts(x, y)
        first_cache = plan._stencil
        assert first_cache is not None
        plan.execute(c)
        plan.set_pts(x2, y2)
        assert plan._stencil is not first_cache
        assert plan._stencil.n_points == 650
        second = plan.execute(c2)
        exact = nudft_type1([x2, y2], c2, (20, 20))
        assert relative_l2_error(second, exact) < 1e-5
        plan.destroy()
        assert plan._stencil is None

    def test_repeated_execute_reuses_cache(self, rng):
        x, y, c = make_points_2d(rng, m=400)
        d = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        with Plan(1, (16, 16), eps=1e-6, precision="double") as plan:
            plan.set_pts(x, y)
            cache = plan._stencil
            fc = plan.execute(c)
            fd = plan.execute(d)
            assert plan._stencil is cache  # execute never rebuilds the cache
        assert relative_l2_error(fc, nudft_type1([x, y], c, (16, 16))) < 1e-4
        assert relative_l2_error(fd, nudft_type1([x, y], d, (16, 16))) < 1e-4

    def test_spread_only_batched(self, rng):
        x, y, _ = make_points_2d(rng, m=300)
        block = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        with Plan(1, (16, 16), n_trans=2, eps=1e-4, spread_only=True,
                  precision="double") as plan:
            plan.set_pts(x, y)
            fine = plan.execute(block)
            assert fine.shape == (2,) + plan.fine_shape
            # spread-only type 2: interpolate straight off a fine-shaped block
        with Plan(2, (16, 16), n_trans=2, eps=1e-4, spread_only=True,
                  precision="double") as plan2:
            plan2.set_pts(x, y)
            vals = plan2.execute(fine.astype(np.complex128))
            assert vals.shape == (2, 300)

    def test_budgetless_plan_falls_back_to_perdim_cache(self, rng):
        x, y, _ = make_points_2d(rng, m=350)
        block = rng.standard_normal((3, 350)) + 1j * rng.standard_normal((3, 350))
        with Plan(1, (18, 18), n_trans=3, eps=1e-7, precision="double",
                  stencil_budget=0) as lean, \
                Plan(1, (18, 18), n_trans=3, eps=1e-7, precision="double") as fat:
            lean.set_pts(x, y)
            fat.set_pts(x, y)
            assert lean._stencil is not None and not lean._stencil.is_fused
            assert fat._stencil.interp_matrix is not None
            np.testing.assert_allclose(lean.execute(block), fat.execute(block),
                                       rtol=1e-9, atol=1e-9)


# --------------------------------------------------------------------------- #
# simple API batching
# --------------------------------------------------------------------------- #
class TestSimpleBatched:
    def test_nufft2d1_stacked_strengths(self, rng):
        x, y, _ = make_points_2d(rng, m=500)
        block = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))
        out = nufft2d1(x, y, block, (18, 18), eps=1e-7, precision="double")
        assert out.shape == (3, 18, 18)
        for t in range(3):
            exact = nudft_type1([x, y], block[t], (18, 18))
            assert relative_l2_error(out[t], exact) < 1e-5

    def test_nufft2d2_stacked_modes_requires_n_trans(self, rng):
        x, y, _ = make_points_2d(rng, m=200)
        stack = (rng.standard_normal((2, 12, 12))
                 + 1j * rng.standard_normal((2, 12, 12)))
        out = nufft2d2(x, y, stack, eps=1e-6, precision="double", n_trans=2)
        assert out.shape == (2, 200)
        with pytest.raises(ValueError):
            nufft2d2(x, y, stack, eps=1e-6)  # stacked input without n_trans
