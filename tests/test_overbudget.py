"""Over-budget spreading and interpolation: the per-subproblem box-GEMM engine.

A plan whose stencil footprint ``M * w^d`` exceeds ``stencil_budget`` keeps
only the per-dimension stencils and runs spread/interp through
:func:`repro.core.spread.spread_subproblems` /
:func:`repro.core.interp.interp_subproblems`.  These tests pin that engine
against the in-budget fused CSR operator (``stencil_budget=0`` forces every
plan over budget), check that the two halves are adjoint, and that its memory
does not grow with the stencil footprint.
"""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

import repro.core.plan as plan_module
from repro import Plan
from repro.core.interp import interp_subproblems
from repro.core.spread import _subproblem_boxes, spread_subproblems

DIM_MODES = {1: (40,), 2: (20, 24), 3: (10, 12, 8)}
EPS = {"double": 1e-12, "single": 1e-5}
#: Bound on the relative difference between the two engines.
TOL = {"double": 1e-12, "single": 10 * np.finfo(np.float32).eps}


def _points(rng, n_modes, m, dist):
    """``rand`` points over the whole box or ``cluster`` points in 8 fine cells.

    The cluster sits at the origin, so its stencils wrap around the periodic
    boundary.
    """
    if dist == "rand":
        return [rng.uniform(-np.pi, np.pi, m) for _ in n_modes]
    return [rng.uniform(0.0, 8 * 2 * np.pi / (2 * n), m) for n in n_modes]


def _data(rng, shape, precision):
    dtype = np.complex128 if precision == "double" else np.complex64
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("nufft_type", [1, 2])
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("method", ["GM", "GM-sort", "SM"])
@pytest.mark.parametrize("n_trans", [1, 3])
@pytest.mark.parametrize("dist", ["rand", "cluster"])
def test_overbudget_matches_fused(dim, nufft_type, precision, method, n_trans, dist):
    rng = np.random.default_rng(100 * dim + 10 * nufft_type + n_trans)
    n_modes = DIM_MODES[dim]
    m = 400
    coords = _points(rng, n_modes, m, dist)
    shape = (n_trans, m) if nufft_type == 1 else (n_trans,) + n_modes
    data = _data(rng, shape, precision)
    kw = dict(n_trans=n_trans, eps=EPS[precision], precision=precision, method=method)
    with Plan(nufft_type, n_modes, stencil_budget=0, **kw) as lean, \
            Plan(nufft_type, n_modes, **kw) as fused:
        lean.set_pts(*coords)
        fused.set_pts(*coords)
        assert lean._stencil.interp_matrix is None
        assert fused._stencil.interp_matrix is not None
        got = lean.execute(data)
        want = fused.execute(data)
    assert got.dtype == want.dtype
    assert _rel(got, want) <= TOL[precision]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_type3_overbudget_matches_fused(dim):
    # Type 3 spreads on its rescaled grid and interpolates in its inner
    # type-2 plan; both run the over-budget engine when the budget is 0.
    rng = np.random.default_rng(dim)
    m = 300
    coords = _points(rng, (1,) * dim, m, "rand")
    targets = dict(zip("stu", [rng.uniform(-20.0, 20.0, m) for _ in range(dim)]))
    c = _data(rng, m, "double")
    with Plan(3, dim, eps=1e-12, precision="double", stencil_budget=0) as lean, \
            Plan(3, dim, eps=1e-12, precision="double") as fused:
        lean.set_pts(*coords, **targets)
        fused.set_pts(*coords, **targets)
        assert lean._stencil.interp_matrix is None
        assert _rel(lean.execute(c), fused.execute(c)) <= TOL["double"]


@pytest.mark.parametrize("nufft_type", [1, 2])
def test_box_wider_than_fine_grid(nufft_type):
    # A tiny grid with a wide kernel: one subproblem's footprint box spans
    # more nodes than the fine grid has, so the wrapped add-back (and the
    # gather) revisit the same grid cells from several box runs.
    rng = np.random.default_rng(7)
    n_modes = (4, 4)
    m = 200
    coords = _points(rng, n_modes, m, "rand")
    shape = (2, m) if nufft_type == 1 else (2,) + n_modes
    data = _data(rng, shape, "double")
    kw = dict(n_trans=2, eps=1e-12, precision="double")
    with Plan(nufft_type, n_modes, stencil_budget=0, **kw) as lean, \
            Plan(nufft_type, n_modes, **kw) as fused:
        lean.set_pts(*coords)
        fused.set_pts(*coords)
        boxes = _subproblem_boxes(lean._stencil, lean._subproblems)
        assert any(np.any(shape > np.asarray(lean.fine_shape)) for _, _, shape in boxes)
        assert _rel(lean.execute(data), fused.execute(data)) <= TOL["double"]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_trans", [1, 3])
def test_spread_interp_adjoint(dim, n_trans):
    # <spread(c), g> == <c, interp(g)> for the over-budget engine itself.
    rng = np.random.default_rng(dim + 10 * n_trans)
    n_modes = DIM_MODES[dim]
    m = 500
    with Plan(1, n_modes, n_trans=n_trans, eps=1e-12, precision="double",
              stencil_budget=0) as plan:
        plan.set_pts(*_points(rng, n_modes, m, "cluster" if dim == 2 else "rand"))
        args = (plan._stencil, plan._points.sort.permutation, plan._subproblems)
        c = _data(rng, (n_trans, m), "double")
        g = _data(rng, (n_trans,) + plan.fine_shape, "double")
        lhs = np.vdot(g, spread_subproblems(plan.fine_shape, c, *args, np.complex128))
        rhs = np.vdot(interp_subproblems(g, *args, np.complex128), c)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


#: Small subproblems, so both point counts below fill every box to ``MSUB``.
MSUB = 64


def _execute_peak(m, out):
    """Traced peak of one warm over-budget type-1 execute with ``out=``."""
    rng = np.random.default_rng(m)
    with Plan(1, (16, 16, 16), eps=1e-6, precision="double", method="GM-sort",
              stencil_budget=0, max_subproblem_size=MSUB) as plan:
        plan.set_pts(*_points(rng, (16, 16, 16), m, "rand"))
        c = _data(rng, m, "double")
        plan.execute(c, out=out)  # warm: workspace and subproblems exist
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            plan.execute(c, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fine_bytes = int(np.prod(plan.fine_shape)) * 16
        padded = [b + plan.kernel.width + 1 for b in plan.bin_shape]
        # One subproblem's working set: the complex right factor and box,
        # the dense factors and their tail product.
        box_bytes = MSUB * int(np.prod(padded[1:])) * (16 + 8) + MSUB * sum(padded) * 8
        return peak, fine_bytes, box_bytes, plan.kernel.width


def test_overbudget_memory_does_not_grow_with_footprint():
    out = np.empty((16, 16, 16), dtype=np.complex128)
    m_small, m_big = 8000, 32000
    small_peak, fine_bytes, box_bytes, w = _execute_peak(m_small, out)
    big_peak, _, _, _ = _execute_peak(m_big, out)
    # 4x the points is 4x the footprint M * w^d (w = 7: ~2.7M vs ~11M
    # stencil entries), yet the peak stays a few fine-grid blocks plus one
    # subproblem's box plus the O(M) per-dimension box bounds.
    assert w == 7
    for m, peak in ((m_small, small_peak), (m_big, big_peak)):
        assert peak <= 4 * fine_bytes + 2 * box_bytes + 2 * 3 * 8 * m, (m, peak)
    assert big_peak < 2 * small_peak


def test_boxes_cover_every_point_once():
    rng = np.random.default_rng(3)
    with Plan(1, (20, 24), eps=1e-9, precision="double", stencil_budget=0,
              max_subproblem_size=64) as plan:
        plan.set_pts(*_points(rng, (20, 24), 700, "rand"))
        cache = plan._stencil
        seen = []
        for sel, lo, shape in _subproblem_boxes(cache, plan._subproblems):
            assert sel.stop - sel.start <= 64
            for d in range(2):
                assert cache.i0[d][sel].min() == lo[d]
                assert cache.i0[d][sel].max() + cache.width == lo[d] + shape[d]
            seen.append(plan._points.sort.permutation[sel])
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(700))


def test_all_methods_share_one_engine():
    # GM, GM-sort and SM over budget run the same engine: identical bits.
    rng = np.random.default_rng(11)
    coords = _points(rng, (20, 24), 600, "rand")
    c = _data(rng, 600, "double")
    outs = []
    for method in ("GM", "GM-sort", "SM"):
        with Plan(1, (20, 24), eps=1e-9, precision="double", method=method,
                  stencil_budget=0, backend="cached") as plan:
            plan.set_pts(*coords)
            outs.append(plan.execute(c))
    for a, b in itertools.combinations(outs, 2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("dist", ["rand", "cluster"])
def test_overbudget_plans_share_one_point_state(dim, precision, dist, monkeypatch):
    # Over budget there is no operator, so the type-1 and type-2 plans hold
    # the very same bin-ordered stencil; only the first set_pts builds it,
    # execute builds nothing, and the outputs match plans built alone.
    rng = np.random.default_rng([dim, precision == "single", dist == "rand"])
    n_modes, m = DIM_MODES[dim], 400
    coords = _points(rng, n_modes, m, dist)
    c = _data(rng, m, precision)
    f = _data(rng, n_modes, precision)
    kw = dict(eps=EPS[precision], precision=precision, stencil_budget=0)
    want = []
    for nufft_type, data in ((1, c), (2, f)):
        gc.collect()
        with Plan(nufft_type, n_modes, **kw) as alone:
            alone.set_pts(*coords)
            want.append(alone.execute(data))
    gc.collect()

    calls = []
    for name in ("bin_sort", "build_stencil_cache"):
        real = getattr(plan_module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(plan_module, name, spy)
    with Plan(1, n_modes, **kw) as p1, Plan(2, n_modes, **kw) as p2:
        p1.set_pts(*[a.copy() for a in coords])
        p2.set_pts(*[a.copy() for a in coords])
        assert calls == ["bin_sort", "build_stencil_cache"]
        assert p1._points is p2._points
        assert p1._stencil is p2._stencil and not p1._stencil.is_fused
        assert not any(a.flags.writeable for a in p1._stencil.arrays())
        for _ in range(2):
            got = (p1.execute(c), p2.execute(f))
        assert len(calls) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
