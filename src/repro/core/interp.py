"""Interpolation (type-2 step 3): GM and GM-sort methods.

Interpolation evaluates, at every nonuniform target point, the kernel-weighted
sum of the ``w^d`` fine-grid values around it (paper Sec. II-B step 3).  On
the GPU the only algorithmic lever is the *order* in which threads visit the
points: unsorted (GM) threads in a warp read scattered grid regions, while
bin-sorted (GM-sort) threads read localized, cache-friendly regions.  There
are no write conflicts (each thread owns its output ``c_j``), which is why the
paper applies no SM-style scheme to interpolation.  On the host the visiting
order changes nothing at all -- each ``c_j`` is one sum -- so ``interp_gm``
is the only direct gather, for every method.  The over-budget engine
(:func:`interp_subproblems`) reuses the SM subproblem split of the
bin-ordered stencil cache for every method: a subproblem's footprint box is
gathered once and contracted with one GEMM, the transpose of
:func:`~repro.core.spread.spread_subproblems`.
"""

from __future__ import annotations

import numpy as np

from ..gpu.profiler import KernelProfile
from ..gpu.threadblock import padded_bin_shape
from ..gpu.transactions import (
    l2_miss_fraction_localized,
    l2_miss_fraction_random,
    localized_sector_ops,
    scattered_sector_ops,
)
from .options import SpreadMethod
from .spread import (
    _box_factors,
    _box_runs,
    _chunk_stencil,
    _l2,
    _point_chunk,
    _point_read_bytes,
    _spread_flops,
    _stencil_offsets,
    _subproblem_boxes,
    _tail_factor,
)

__all__ = [
    "interp_cached",
    "interp_gm",
    "interp_subproblems",
    "interp_kernel_profiles",
]


def _as_grid_batch(grid, ndim):
    """View the fine grid as a ``(n_trans, *fine_shape)`` block; flag batched.

    Complex grids keep their dtype (no complex128 round-trip, no copy for
    strided views); real-valued inputs are promoted to complex128.
    """
    grid = np.asarray(grid)
    if not np.iscomplexobj(grid):
        grid = grid.astype(np.complex128)
    batched = grid.ndim == ndim + 1
    return (grid if batched else grid[None]), batched


def _interp_points(grids, grid_coords, kernel, out):
    """Interpolate every point into ``out``, in user order, chunk by chunk.

    ``grids`` has shape ``(n_trans, *fine_shape)`` and ``out`` shape
    ``(n_trans, M)``; each chunk gathers the fine-grid values of all
    transforms at once and contracts them against the shared kernel weights.
    """
    ndim = len(grid_coords)
    fine_shape = grids.shape[1:]
    n_trans = grids.shape[0]
    flat = grids.reshape(n_trans, -1)
    chunk = _point_chunk(n_trans, kernel.width ** ndim)

    for start in range(0, out.shape[1], chunk):
        sel = slice(start, start + chunk)
        flat_idx, wprod = _chunk_stencil(grid_coords, fine_shape, kernel, sel)
        gathered = flat[:, flat_idx]  # (n_trans, m, w^d)
        out[:, sel] = np.einsum("tmk,mk->tm", gathered, wprod)
    return out


def interp_cached(grid, cache, order, dtype=np.complex64, out=None):
    """Interpolate via the cached sparse operator (one pass over all transforms).

    ``interp_matrix @ grid`` performs the kernel-weighted gather for every
    transform at once, contracting in the operator's dtype (float32 weights
    for single-precision type-2 plans).  One transform runs two contiguous
    matvecs over the real and imaginary parts (scipy's single-vector kernel
    beats a two-column mat-mat); a batch runs one real mat-mat over the
    interleaved-real ``(n_fine, 2 n_trans)`` view of the grids.  The values
    come out in the operator's row order ``order`` (the bin-sort
    permutation) and are scattered back to user order.  ``out``, when given,
    must be a ``(n_trans, M)`` array; the result is written into it and it
    is returned.
    """
    if cache is None or cache.interp_matrix is None:
        raise ValueError("interp_cached needs a stencil cache with a sparse operator")
    grids, batched = _as_grid_batch(grid, cache.ndim)
    n_trans = grids.shape[0]
    flat = grids.reshape(n_trans, -1)
    matrix = cache.interp_matrix
    op_real = matrix.dtype
    op_cplx = np.result_type(op_real, np.complex64)
    if n_trans == 1:
        vals = np.empty((1, matrix.shape[0]), op_cplx)
        vals.real = matrix @ np.ascontiguousarray(flat[0].real, dtype=op_real)
        vals.imag = matrix @ np.ascontiguousarray(flat[0].imag, dtype=op_real)
    else:
        cols = np.ascontiguousarray(flat.T, dtype=op_cplx)  # (n_fine, n_trans)
        vals = (matrix @ cols.view(op_real)).view(op_cplx).T
    values = out if out is not None else np.empty((n_trans, matrix.shape[0]), dtype)
    values[:, order] = vals
    return values if out is not None or batched else values[0]


def _interp_box(cache, sel, lo, shape, box):
    """``(n_trans, P)`` values of one subproblem from its ``(L_0, n_trans, ...)`` box."""
    if cache.ndim == 1:
        # See repro.core.spread._spread_box: gather the P x w stencil
        # entries rather than contracting a mostly-zero dense K_0.
        return np.einsum("pkt,pk->tp", box[_stencil_offsets(cache, sel, lo, 0)],
                         cache.vals[0][sel])
    factors = _box_factors(cache, sel, lo, shape)
    rows = factors[0] @ box.reshape(shape[0], -1).view(np.float64)
    rows = rows.view(np.complex128).reshape(factors[0].shape[0], box.shape[1], -1)
    return np.einsum("ptk,pk->tp", rows, _tail_factor(factors))


def interp_subproblems(grid, cache, order, subproblems, dtype=np.complex64,
                       out=None):
    """Interpolate via per-subproblem padded-box gathers and one GEMM each.

    The transpose of :func:`~repro.core.spread.spread_subproblems`, for
    stencil caches too large to fuse: for each SM subproblem (a contiguous
    run of the bin-ordered cache; ``order`` maps it back to user points) the
    wrapped footprint box ``(L_0, n_trans, L_1, ...)`` is gathered from the
    fine grid, contracted along axis 0 against the dense factor ``K_0`` with
    one real GEMM (the complex box viewed as interleaved reals), and the
    remaining axes are contracted per point against
    ``K_1 ⊗ ... ⊗ K_{d-1}``.  Every method (GM, GM-sort, SM) runs this one
    engine; the method changes only the simulated cost profiles.

    ``grid`` may be ``(*fine_shape)`` or ``(n_trans, *fine_shape)``;
    ``out``, when given, is the ``(n_trans, M)`` destination.
    """
    grids, batched = _as_grid_batch(grid, cache.ndim)
    n_trans = grids.shape[0]
    fine_shape = grids.shape[1:]
    values = out if out is not None else np.empty((n_trans, cache.n_points), dtype)
    for sel, lo, shape in _subproblem_boxes(cache, subproblems):
        box = np.empty((shape[0], n_trans) + tuple(shape[1:]), dtype=np.complex128)
        box_t = box.swapaxes(0, 1)
        for src, dst in _box_runs(lo, shape, fine_shape):
            box_t[(slice(None),) + src] = grids[(slice(None),) + dst]
        values[:, order[sel]] = _interp_box(cache, sel, lo, shape, box)
    if out is not None:
        return out
    return values if batched else values[0]


def interp_gm(grid, grid_coords, kernel, dtype=np.complex64, out=None):
    """The exact direct gather: targets visited in user order.

    Kernels are evaluated on the fly with the exact ES form.  ``grid`` may be
    ``(*fine_shape)`` or a stacked ``(n_trans, *fine_shape)`` block; the
    output gains a matching leading axis (or lands in ``out``).
    """
    ndim = len(grid_coords)
    grids, batched = _as_grid_batch(grid, ndim)
    m = grid_coords[0].shape[0]
    values = out if out is not None else np.zeros((grids.shape[0], m), dtype=dtype)
    _interp_points(grids, grid_coords, kernel, values)
    if out is not None:
        return out
    return values if batched else values[0]


def interp_kernel_profiles(method, sort, kernel, precision, threads_per_block=128,
                           spec=None):
    """Exec-phase kernel profiles for one interpolation pass."""
    method = SpreadMethod.parse(method)
    if method is SpreadMethod.SM:
        method = SpreadMethod.GM_SORT
    ndim = len(sort.fine_shape)
    w = kernel.width
    m = sort.n_points
    real_sz = precision.real_itemsize
    cplx_sz = precision.complex_itemsize
    grid_bytes = float(np.prod(sort.fine_shape)) * cplx_sz
    reads = float(m) * (w ** ndim)
    l2 = _l2(spec)

    if method is SpreadMethod.GM:
        profile = KernelProfile(
            name=f"interp_{ndim}d_gm",
            grid_blocks=max(1.0, m / threads_per_block),
            block_threads=threads_per_block,
            flops=_spread_flops(m, w, ndim),
            stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz),
            gather_sector_ops=scattered_sector_ops(reads, min(cplx_sz, 16)),
            gather_miss_fraction=l2_miss_fraction_random(grid_bytes, l2),
        )
        return [profile]

    rows = float(m) * (w ** (ndim - 1))
    sector_ops = localized_sector_ops(rows, w, cplx_sz, reuse_factor=1.5)
    active_bins = min(sort.n_nonempty_bins, 2 * 80)
    padded_cells = float(np.prod(padded_bin_shape(sort.bin_shape, w)))
    footprint = active_bins * padded_cells * cplx_sz
    profile = KernelProfile(
        name=f"interp_{ndim}d_gmsort",
        grid_blocks=max(1.0, m / threads_per_block),
        block_threads=threads_per_block,
        flops=_spread_flops(m, w, ndim),
        stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz, with_index=True),
        gather_sector_ops=sector_ops + 2.0 * m,
        gather_miss_fraction=l2_miss_fraction_localized(footprint, l2),
    )
    return [profile]
