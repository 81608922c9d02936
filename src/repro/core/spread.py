"""Spreading (type-1 step 1): GM, GM-sort and SM methods.

Numerically all three methods compute the same fine-grid array

.. math::

    b_{l} = \\sum_{j=1}^{M} c_j\\, \\psi_{per}(l h - x_j)

(paper Eq. (7)); they differ in *how* the work is organized on the GPU, which
is what the cost profiles capture:

``GM``
    one thread per point in user order, atomic adds straight to global memory
    (scattered, uncoalesced, collision-prone for clustered points);
``GM-sort``
    same, but points are processed in bin-sorted order so a warp's writes form
    localized, cache-resident, partially coalesced runs;
``SM``
    bin-sorted points are split into subproblems of at most ``Msub`` points;
    each subproblem accumulates into a *padded bin* copy in shared memory and
    then adds that copy back to global memory once (paper Fig. 1).

On the host the three methods differ only in summation order, so the
exact direct sum is one function, ``spread_gm`` (user order, chunked
``bincount``, kernel evaluated on the fly).  ``spread_sm`` keeps the padded-bin
accumulation of paper Fig. 1 as a fidelity check of that scheme; the
``reference`` backend runs it for SM plans.  The fast engines also run one
sum for every method, over the bin-ordered stencil cache (``order`` is its
bin-sort permutation): ``spread_cached`` (the fused sparse operator) within
the stencil budget, and ``spread_subproblems`` (per-subproblem padded-box
GEMMs, the host form of the SM scheme) over it.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..gpu.atomics import dilated_occupied_cells, occupied_cells_estimate
from ..gpu.profiler import KernelProfile
from ..gpu.threadblock import check_shared_memory_fit, padded_bin_shape
from ..gpu.transactions import (
    l2_miss_fraction_localized,
    l2_miss_fraction_random,
    localized_sector_ops,
    scattered_sector_ops,
    sectors_for_contiguous_run,
)
from .binsort import make_subproblems
from .options import SpreadMethod
from .stencil import _tensor_columns, _tensor_weights

__all__ = [
    "compute_kernel_stencil",
    "spread_cached",
    "spread_gm",
    "spread_sm",
    "spread_subproblems",
    "spread_kernel_profiles",
]

#: Stencil entries (points x w^d x n_trans) per accumulation chunk: keeps the
#: fused index/weight temporaries comfortably in memory for any width.
_CHUNK_ENTRIES = 1 << 22

#: Approximate flop cost of one ES kernel evaluation (sqrt + exp + mults).
_FLOPS_PER_KERNEL_EVAL = 12.0


# --------------------------------------------------------------------------- #
# kernel stencil evaluation
# --------------------------------------------------------------------------- #
def compute_kernel_stencil(grid_coords_d, n_fine_d, kernel):
    """Per-dimension stencil: first grid index and kernel values for each point.

    For fine-grid coordinate ``g`` (in ``[0, n)``), the kernel of width ``w``
    touches the ``w`` consecutive grid nodes starting at
    ``i0 = ceil(g - w/2)``; node ``i0 + r`` lies at distance ``g - (i0 + r)``
    from the point.

    Returns
    -------
    i0 : ndarray of int64, shape (M,)
        First grid node index (may be negative / >= n; callers wrap mod n).
    vals : ndarray, shape (M, w)
        Kernel values at the ``w`` nodes.
    """
    g = np.asarray(grid_coords_d, dtype=np.float64)
    w = kernel.width
    i0 = np.ceil(g - 0.5 * w).astype(np.int64)
    vals = kernel.evaluate_offsets(g - i0)
    return i0, vals


def _as_strength_batch(strengths):
    """View strengths as a ``(n_trans, M)`` complex block; flag if batched.

    Complex inputs keep their dtype (and their strides -- no copy), so
    single-precision batches flow through spreading without a complex128
    round-trip; real-valued inputs are promoted to complex128.
    """
    strengths = np.asarray(strengths)
    batched = strengths.ndim == 2
    block = strengths if batched else strengths[None, :]
    if not np.iscomplexobj(block):
        block = block.astype(np.complex128)
    return block, batched


def _point_chunk(n_trans, entries_per_point):
    """Points per accumulation chunk given the per-point fused entry count."""
    return max(256, _CHUNK_ENTRIES // max(1, n_trans * entries_per_point))


def _chunk_stencil(grid_coords, fine_shape, kernel, sel):
    """Fused ``(flat_idx, weights)`` of shape (m, w^d) for the selected points.

    Evaluates the exact stencils on the fly (the seed behaviour); the fast
    engines read the plan-level stencil cache instead.
    """
    offsets = np.arange(kernel.width, dtype=np.int64)
    idx_per_dim, vals_per_dim = [], []
    for d in range(len(fine_shape)):
        i0, vals = compute_kernel_stencil(grid_coords[d][sel], fine_shape[d], kernel)
        idx_per_dim.append(np.mod(i0[:, None] + offsets[None, :], fine_shape[d]))
        vals_per_dim.append(vals)
    return _tensor_columns(idx_per_dim, fine_shape), _tensor_weights(vals_per_dim)


def _accumulate_chunk(grid_real, grid_imag, flat_idx, weights_real, weights_imag):
    """Accumulate one chunk's weights into preallocated real/imag grid views.

    ``grid_real`` / ``grid_imag`` are float64 views of the (possibly batched)
    complex grid; the ``bincount`` results are added into them in place, so no
    complex full-grid temporary is materialized per chunk.  ``bincount`` is
    far faster than ``np.add.at`` for large update counts and numerically
    equivalent up to summation order.
    """
    size = grid_real.size
    idx = flat_idx.ravel()
    wr = np.bincount(idx, weights=weights_real.ravel(), minlength=size)
    wi = np.bincount(idx, weights=weights_imag.ravel(), minlength=size)
    grid_real += wr.reshape(grid_real.shape)
    grid_imag += wi.reshape(grid_imag.shape)


def _grid_views(grids):
    """Real and imaginary in-place views of a complex grid block.

    Works for both precisions (``.real``/``.imag`` of a complex array are
    writable views); ``bincount`` increments are float64 either way and are
    rounded into the grid's native precision on accumulation.
    """
    flat = grids.reshape(grids.shape[0], -1)
    return flat.real, flat.imag


def _spread_points(grids, grid_coords, strengths, kernel):
    """Spread every point into ``grids``, in user order, chunk by chunk.

    ``grids`` has shape ``(n_trans, *fine_shape)`` and ``strengths`` shape
    ``(n_trans, M)``; all transforms are accumulated in one fused
    ``bincount`` pass per chunk (the indices of transform ``t`` are offset by
    ``t * n_fine``), so the Python-level loop over transforms disappears.
    """
    ndim = len(grid_coords)
    fine_shape = grids.shape[1:]
    n_trans = grids.shape[0]
    size = int(np.prod(fine_shape))
    grid_real, grid_imag = _grid_views(grids)
    k_entries = kernel.width ** ndim
    chunk = _point_chunk(n_trans, k_entries)
    t_offsets = (np.arange(n_trans, dtype=np.int64) * size)[:, None, None]

    for start in range(0, strengths.shape[1], chunk):
        sel = slice(start, start + chunk)
        flat_idx, wprod = _chunk_stencil(grid_coords, fine_shape, kernel, sel)
        cw = strengths[:, sel]
        if n_trans == 1:
            weights_real = cw.real[0, :, None] * wprod
            weights_imag = cw.imag[0, :, None] * wprod
            _accumulate_chunk(grid_real, grid_imag, flat_idx,
                              weights_real, weights_imag)
        else:
            big_idx = flat_idx[None, :, :] + t_offsets
            weights_real = cw.real[:, :, None] * wprod[None, :, :]
            weights_imag = cw.imag[:, :, None] * wprod[None, :, :]
            _accumulate_chunk(grid_real, grid_imag, big_idx,
                              weights_real, weights_imag)
    return grids


# --------------------------------------------------------------------------- #
# numeric spreaders
# --------------------------------------------------------------------------- #
def spread_cached(fine_shape, strengths, cache, order, dtype=np.complex64, out=None):
    """Spread via the cached sparse operator (one pass over all transforms).

    Requires a fused :class:`~repro.core.stencil.StencilCache` carrying the
    CSR interpolation matrix; ``interp_matrix.T`` *is* the spreading operator.
    The ``(n_trans, M)`` strength block is gathered once into the rows' point
    order ``order`` (the bin-sort permutation) as an ``(M, n_trans)`` complex
    array of the operator's precision, and its interleaved-real
    ``(M, 2 n_trans)`` view is spread with one real sparse mat-mat: real and
    imaginary parts share the real-valued kernel weights.  ``out``, when
    given, must be a ``(n_trans, *fine_shape)`` array; the result is written
    into it and it is returned.
    """
    if cache is None or cache.interp_matrix is None:
        raise ValueError("spread_cached needs a stencil cache with a sparse operator")
    block, batched = _as_strength_batch(strengths)
    matrix = cache.interp_matrix
    op_cplx = np.result_type(matrix.dtype, np.complex64)
    cols = np.ascontiguousarray(block.T[order], dtype=op_cplx)  # (M, n_trans)
    # matrix.T is a CSC view (no copy); the product is (n_fine, 2 n_trans).
    flat = (matrix.T @ cols.view(matrix.dtype)).view(op_cplx)
    if out is not None:
        if out.flags.c_contiguous:
            out.reshape(out.shape[0], -1)[...] = flat.T
        else:
            # reshape of a strided destination would be a copy, losing the
            # write -- assign through the destination's own strides instead.
            out[...] = np.ascontiguousarray(flat.T).reshape(out.shape)
        return out
    grids = np.ascontiguousarray(flat.T, dtype=dtype)
    grids = grids.reshape((block.shape[0],) + tuple(fine_shape))
    return grids if batched else grids[0]


# --------------------------------------------------------------------------- #
# over-budget engine: per-subproblem padded-box GEMMs
# --------------------------------------------------------------------------- #
def _subproblem_boxes(cache, subproblems):
    """Yield ``(sel, lo, shape)`` per subproblem: its points and footprint box.

    ``sel`` slices the subproblem's points out of the bin-ordered cache; the
    box starts at the unwrapped fine-grid node ``lo = min(i0)`` per dimension
    and spans ``shape = max(i0) - min(i0) + w`` nodes, so it holds every
    stencil of the subproblem and always lies inside its padded bin.
    """
    starts = subproblems.offsets
    lo = np.stack([np.minimum.reduceat(a, starts) for a in cache.i0], axis=1)
    hi = np.stack([np.maximum.reduceat(a, starts) for a in cache.i0], axis=1)
    shape = hi - lo + cache.width
    for k in range(starts.shape[0]):
        start = int(starts[k])
        yield slice(start, start + int(subproblems.counts[k])), lo[k], shape[k]


def _stencil_offsets(cache, sel, lo, d):
    """Box-local node offsets ``(P, w)`` of the points' stencils along ``d``."""
    return (cache.i0[d][sel] - lo[d])[:, None] + np.arange(cache.width)


def _box_factors(cache, sel, lo, shape):
    """Dense per-dimension kernel factors ``K_d`` of shape ``(P, L_d)``.

    Row ``p`` of ``K_d`` holds point ``p``'s ``w`` cached kernel values at
    its offset inside the box and zeros elsewhere, so the box contribution of
    the subproblem is the tensor product ``K_0 ⊗ K_1 ⊗ ...`` contracted
    with the strengths.
    """
    rows = np.arange(sel.stop - sel.start)[:, None]
    factors = []
    for d in range(cache.ndim):
        k = np.zeros((rows.shape[0], int(shape[d])))
        k[rows, _stencil_offsets(cache, sel, lo, d)] = cache.vals[d][sel]
        factors.append(k)
    return factors


def _tail_factor(factors):
    """Row-wise tensor product of ``K_1 ... K_{d-1}`` as ``(P, L_1 ... L_{d-1})``."""
    n_pts = factors[0].shape[0]
    tail = np.ones((n_pts, 1))
    for k in factors[1:]:
        tail = (tail[:, :, None] * k[:, None, :]).reshape(n_pts, -1)
    return tail


def _box_runs(lo, shape, fine_shape):
    """``(box_slices, grid_slices)`` pairs covering a box with periodic wrap.

    Per dimension the box's nodes ``lo .. lo + L - 1`` map to ``mod n`` in
    contiguous runs: at most two when ``L <= n``, so a box is added back
    with at most ``2^d`` slice-adds.  A box wider than the grid (tiny grids,
    wide kernels) takes more runs, which alias the same grid cells across
    *separate* adds -- each add still sees distinct destination cells.
    """
    per_dim = []
    for start, length, n in zip(lo, shape, fine_shape):
        runs = []
        pos, dst = 0, int(start) % n
        while pos < length:
            step = min(int(length) - pos, n - dst)
            runs.append((slice(pos, pos + step), slice(dst, dst + step)))
            pos += step
            dst = 0
        per_dim.append(runs)
    for combo in itertools.product(*per_dim):
        yield (tuple(src for src, _ in combo), tuple(dst for _, dst in combo))


def _spread_box(cache, sel, lo, shape, c):
    """One subproblem's ``(n_trans, *shape)`` box from its ``(n_trans, P)`` strengths."""
    n_trans, n_pts = c.shape
    if cache.ndim == 1:
        # A 1D box spans a whole bin (L_0 >> w) and the GEMM would have only
        # 2 * n_trans columns, so a dense K_0 is mostly zeros: scatter the
        # P x w stencil entries with one bincount per real/imaginary part.
        length = int(shape[0])
        idx = (_stencil_offsets(cache, sel, lo, 0)[None]
               + length * np.arange(n_trans)[:, None, None]).ravel()
        weights = c[:, :, None] * cache.vals[0][sel]
        size = n_trans * length
        box = (np.bincount(idx, weights.real.ravel(), size)
               + 1j * np.bincount(idx, weights.imag.ravel(), size))
        return box.reshape(n_trans, length)
    factors = _box_factors(cache, sel, lo, shape)
    u = np.multiply(c.T[:, :, None], _tail_factor(factors)[:, None, :],
                    dtype=np.complex128)
    box = factors[0].T @ u.reshape(n_pts, -1).view(np.float64)
    box = box.view(np.complex128).reshape((int(shape[0]), n_trans) + tuple(shape[1:]))
    return box.swapaxes(0, 1)


def spread_subproblems(fine_shape, strengths, cache, order, subproblems,
                       dtype=np.complex64, out=None):
    """Spread via per-subproblem padded-box GEMMs (paper Fig. 1, on the host).

    The engine for stencil caches too large to fuse into a sparse operator:
    it needs only the cached per-dimension ``i0`` / ``vals``, in the bin
    order ``order``.  For each SM subproblem (a contiguous run of them, at
    most ``Msub`` points) the tight footprint box is accumulated with one
    real GEMM, ``K_0^T @ (c ⊗ K_1 ⊗ ... ⊗ K_{d-1})``, where the complex
    ``(P, n_trans, L_1 ... L_{d-1})`` right factor is viewed as interleaved
    reals, and the box is then added back to the fine grid with periodic wrap
    (:func:`_box_runs`).  Memory per step is one subproblem's box, bounded by
    ``Msub`` and the padded bin, whatever ``M * w^d`` is.  GM, GM-sort and SM
    compute the same sum, so every method runs this one engine.

    ``strengths`` may be ``(M,)`` or ``(n_trans, M)``; ``out``, when given,
    is the ``(n_trans, *fine_shape)`` destination (any strides).
    """
    block, batched = _as_strength_batch(strengths)
    n_trans = block.shape[0]
    grids = out if out is not None else np.empty((n_trans,) + tuple(fine_shape), dtype)
    grids[...] = 0
    for sel, lo, shape in _subproblem_boxes(cache, subproblems):
        box = _spread_box(cache, sel, lo, shape, block[:, order[sel]])
        for src, dst in _box_runs(lo, shape, fine_shape):
            grids[(slice(None),) + dst] += box[(slice(None),) + src]
    if out is not None:
        return out
    return grids if batched else grids[0]


# --------------------------------------------------------------------------- #
# exact direct sums (kernel evaluated on the fly)
# --------------------------------------------------------------------------- #
def spread_gm(fine_shape, grid_coords, strengths, kernel, dtype=np.complex64,
              out=None):
    """The exact direct sum of paper Eq. (7): points spread in user order.

    Kernels are evaluated on the fly with the exact ES form.  GM-sort visits
    the same points in bin-sorted order, which on the host changes only the
    summation order, so this is the direct spreader for every method.
    ``strengths`` may be ``(M,)`` or a stacked ``(n_trans, M)`` block; the
    output gains a matching leading axis (or is written into ``out``).
    """
    block, batched = _as_strength_batch(strengths)
    if out is None:
        grids = np.zeros((block.shape[0],) + tuple(fine_shape), dtype=dtype)
    elif out.flags.c_contiguous:
        grids = out
        grids.fill(0)
    else:
        # The fused bincount pass needs flat C-order views of the grid;
        # accumulate into a contiguous scratch and assign through the
        # destination's strides at the end.
        grids = np.zeros(out.shape, dtype=out.dtype)
    _spread_points(grids, grid_coords, block, kernel)
    if out is None:
        return grids if batched else grids[0]
    if grids is not out:
        out[...] = grids
    return out


def spread_sm(fine_shape, grid_coords, strengths, kernel, sort, subproblems,
              dtype=np.complex64, out=None):
    """SM spreading: per-subproblem padded-bin accumulation then write-back.

    Follows paper Fig. 1 steps 2-3 exactly: each subproblem spreads its points
    into a local padded-bin array ("shared memory"), indexed by local
    coordinates ``s = l - Delta`` where ``Delta`` is the padded bin's offset in
    the fine grid, and the padded bin is then added back into the global grid
    with periodic wrapping ``l(s) = (s + Delta) mod n``.

    ``strengths`` may be ``(M,)`` or a ``(n_trans, M)`` block; all transforms
    of a subproblem share one fused accumulation pass into a
    ``(n_trans, padded_bin)`` local buffer.
    """
    ndim = len(fine_shape)
    block, batched = _as_strength_batch(strengths)
    n_trans = block.shape[0]
    if out is not None:
        grids = out
        grids.fill(0)
    else:
        grids = np.zeros((n_trans,) + tuple(fine_shape), dtype=dtype)
    w = kernel.width
    pad = int(np.ceil(w / 2.0))
    bin_shape = sort.bin_shape
    bins_per_dim = sort.bins_per_dim
    local_shape = padded_bin_shape(bin_shape, w)
    local_size = int(np.prod(local_shape))
    offsets = np.arange(w, dtype=np.int64)
    t_offsets = (np.arange(n_trans, dtype=np.int64) * local_size)[:, None, None]
    t_ix = np.arange(n_trans)

    perm = sort.permutation
    for k in range(subproblems.n_subproblems):
        b = int(subproblems.bin_ids[k])
        start = int(subproblems.offsets[k])
        count = int(subproblems.counts[k])
        sel = perm[start:start + count]

        # Bin coordinates (x fastest) and padded-bin origin Delta.
        bcoords = []
        rem = b
        for d in range(ndim):
            bcoords.append(rem % bins_per_dim[d])
            rem //= bins_per_dim[d]
        delta = [bcoords[d] * bin_shape[d] - pad for d in range(ndim)]

        idx_per_dim = []
        vals_per_dim = []
        for d in range(ndim):
            i0, vals = compute_kernel_stencil(grid_coords[d][sel], fine_shape[d], kernel)
            local_idx = i0[:, None] + offsets[None, :] - delta[d]
            if local_idx.min() < 0 or local_idx.max() >= local_shape[d]:
                raise AssertionError(
                    "subproblem point writes outside its padded bin -- "
                    "bin assignment and padding are inconsistent"
                )
            idx_per_dim.append(local_idx)
            vals_per_dim.append(vals)

        flat_idx = _tensor_columns(idx_per_dim, local_shape)
        wprod = _tensor_weights(vals_per_dim)
        cw = block[:, sel]
        local = np.zeros((n_trans, local_size), dtype=np.complex128)
        local_real, local_imag = _grid_views(local)
        big_idx = flat_idx[None, :, :] + t_offsets if n_trans > 1 else flat_idx
        _accumulate_chunk(local_real, local_imag, big_idx,
                          cw.real[:, :, None] * wprod[None, :, :],
                          cw.imag[:, :, None] * wprod[None, :, :])

        # Step 3: atomic add the padded bin back into global memory, with wrap.
        # np.add.at (not fancy-index +=) so that padded cells aliasing the same
        # fine cell -- which happens when the padded bin is wider than the fine
        # grid itself, e.g. tiny grids with wide kernels -- all accumulate.
        wrapped = [
            np.mod(delta[d] + np.arange(local_shape[d], dtype=np.int64), fine_shape[d])
            for d in range(ndim)
        ]
        np.add.at(grids, np.ix_(t_ix, *wrapped),
                  local.reshape((n_trans,) + tuple(local_shape)))

    if out is not None:
        return out
    return grids if batched else grids[0]


# --------------------------------------------------------------------------- #
# cost profiles
# --------------------------------------------------------------------------- #
def _point_read_bytes(n_points, ndim, real_itemsize, complex_itemsize, with_index=False):
    bytes_per_point = ndim * real_itemsize + complex_itemsize
    if with_index:
        bytes_per_point += 4  # sorted-index array entry (int32 in CUDA code)
    return float(n_points) * bytes_per_point


def _spread_flops(n_points, width, ndim):
    evals = ndim * width * _FLOPS_PER_KERNEL_EVAL
    accum = (width ** ndim) * (2.0 * ndim + 2.0)
    return float(n_points) * (evals + accum)


def _occupancy_stats(sort, kernel_width, complex_itemsize):
    """Distinct-cell and footprint estimates shared by the profile builders.

    ``sort`` may be a :class:`~repro.core.binsort.BinSort` or a
    :class:`~repro.core.binsort.SpreadStats`; the preferred contention input
    is the exact occupied-cell count, with the bin-histogram estimate as a
    fallback for objects that do not carry it.
    """
    ndim = len(sort.fine_shape)
    total_cells = float(np.prod(sort.fine_shape))
    n_point_cells = getattr(sort, "n_occupied_cells", 0)
    if n_point_cells and n_point_cells > 0:
        occupied = dilated_occupied_cells(n_point_cells, kernel_width, ndim, total_cells)
    else:
        cells_per_bin = float(np.prod(sort.bin_shape))
        occupied = occupied_cells_estimate(
            sort.bin_counts, cells_per_bin, kernel_width, ndim
        )
    occupied = min(occupied, total_cells)
    grid_bytes = total_cells * complex_itemsize
    occupied_bytes = occupied * complex_itemsize
    return occupied, grid_bytes, occupied_bytes


def spread_kernel_profiles(method, sort, kernel, precision, threads_per_block=128,
                           spec=None):
    """Exec-phase kernel profiles for one spreading pass.

    Parameters
    ----------
    method : SpreadMethod
        GM, GM_SORT or SM (AUTO must be resolved by the caller).
    sort : BinSort
        Bin statistics of the nonuniform points (computed for every method --
        GM does not *use* the permutation, but its contention estimate needs
        the occupancy histogram).
    kernel : ESKernel or compatible
        Spreading kernel (only ``width`` matters here).
    precision : Precision
        Determines item sizes.
    threads_per_block : int
        Launch geometry for the cost model.
    spec : DeviceSpec, optional
        Needed by the SM method to validate the shared-memory fit.

    Returns
    -------
    list of KernelProfile
    """
    method = SpreadMethod.parse(method)
    ndim = len(sort.fine_shape)
    w = kernel.width
    m = sort.n_points
    real_sz = precision.real_itemsize
    cplx_sz = precision.complex_itemsize
    occupied, grid_bytes, occupied_bytes = _occupancy_stats(sort, w, cplx_sz)
    ops = float(m) * (w ** ndim)

    if method is SpreadMethod.GM:
        working_set = min(grid_bytes, occupied_bytes)
        profile = KernelProfile(
            name=f"spread_{ndim}d_gm",
            grid_blocks=max(1.0, m / threads_per_block),
            block_threads=threads_per_block,
            flops=_spread_flops(m, w, ndim),
            stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz),
            global_atomic_ops=ops,
            global_atomic_sector_ops=scattered_sector_ops(ops, min(cplx_sz, 16)),
            global_atomic_distinct_addresses=occupied,
            global_atomic_miss_fraction=l2_miss_fraction_random(working_set, _l2(spec)),
        )
        return [profile]

    if method is SpreadMethod.GM_SORT:
        # Localized writes: each point writes w^(d-1) contiguous rows of w cells.
        rows = float(m) * (w ** (ndim - 1))
        sector_ops = localized_sector_ops(rows, w, cplx_sz, reuse_factor=1.5)
        active_bins = min(sort.n_nonempty_bins, 2 * 80)  # blocks in flight
        padded_cells = float(np.prod(padded_bin_shape(sort.bin_shape, w)))
        footprint = active_bins * padded_cells * cplx_sz
        profile = KernelProfile(
            name=f"spread_{ndim}d_gmsort",
            grid_blocks=max(1.0, m / threads_per_block),
            block_threads=threads_per_block,
            flops=_spread_flops(m, w, ndim),
            stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz, with_index=True),
            gather_sector_ops=2.0 * m,  # indirect (permuted) point loads
            gather_miss_fraction=0.2,
            global_atomic_ops=ops,
            global_atomic_sector_ops=sector_ops,
            global_atomic_distinct_addresses=occupied,
            global_atomic_miss_fraction=l2_miss_fraction_localized(footprint, _l2(spec)),
        )
        return [profile]

    if method is SpreadMethod.SM:
        # Default Msub = 1024 (paper Remark 1); callers with a different cap
        # (the Plan, the Msub ablation bench) call spread_sm_kernel_profiles
        # directly with their own subproblem split.
        subproblems = make_subproblems(sort, 1024)
        return spread_sm_kernel_profiles(
            sort, kernel, precision, subproblems, threads_per_block, spec
        )

    raise ValueError(f"cannot profile method {method!r}")


def spread_sm_kernel_profiles(sort, kernel, precision, subproblems,
                              threads_per_block=128, spec=None):
    """Exec-phase profiles for the SM spreader with an explicit subproblem split."""
    ndim = len(sort.fine_shape)
    w = kernel.width
    m = sort.n_points
    real_sz = precision.real_itemsize
    cplx_sz = precision.complex_itemsize
    occupied, grid_bytes, occupied_bytes = _occupancy_stats(sort, w, cplx_sz)

    if spec is not None:
        check_shared_memory_fit(sort.bin_shape, w, cplx_sz, spec)

    local_shape = padded_bin_shape(sort.bin_shape, w)
    padded_cells = float(np.prod(local_shape))
    n_sub = max(1, subproblems.n_subproblems)
    ops = float(m) * (w ** ndim)

    # Shared-memory contention: distinct addresses a subproblem's points hit.
    # A subproblem of P points whose point cells span ``point_cells`` distinct
    # cells writes a region of the padded bin that is that set dilated by the
    # kernel width; intra-block serialization only matters when the resulting
    # region is much smaller than the number of active lanes.
    avg_points_per_sub = m / n_sub if n_sub else 0.0
    n_point_cells = getattr(sort, "n_occupied_cells", 0) or 1
    point_cells_per_sub = min(
        max(1.0, avg_points_per_sub),
        max(1.0, n_point_cells / max(1, sort.n_nonempty_bins)),
    )
    cells_per_sub = dilated_occupied_cells(point_cells_per_sub, w, ndim, padded_cells)
    cells_per_sub = max(1.0, cells_per_sub)

    spread_profile = KernelProfile(
        name=f"spread_{ndim}d_sm",
        grid_blocks=float(n_sub),
        block_threads=threads_per_block,
        flops=_spread_flops(m, w, ndim),
        stream_bytes=_point_read_bytes(m, ndim, real_sz, cplx_sz, with_index=True),
        shared_atomic_ops=ops,
        shared_atomic_distinct_addresses=cells_per_sub,
        shared_mem_per_block=padded_cells * cplx_sz,
    )

    # Step 3: write the padded bins back to global memory with coalesced atomics.
    writeback_ops = float(n_sub) * padded_cells
    rows = float(n_sub) * padded_cells / local_shape[-1]
    writeback_sectors = rows * sectors_for_contiguous_run(local_shape[-1] * cplx_sz)
    writeback_profile = KernelProfile(
        name=f"spread_{ndim}d_sm_writeback",
        grid_blocks=float(n_sub),
        block_threads=threads_per_block,
        flops=2.0 * writeback_ops,
        global_atomic_ops=writeback_ops,
        global_atomic_sector_ops=writeback_sectors,
        global_atomic_distinct_addresses=max(padded_cells, occupied),
        global_atomic_miss_fraction=l2_miss_fraction_random(
            min(grid_bytes, occupied_bytes), _l2(spec)
        ),
        shared_mem_per_block=padded_cells * cplx_sz,
    )
    return [spread_profile, writeback_profile]


def _l2(spec):
    """L2 size of the given spec, defaulting to the V100."""
    if spec is not None:
        return spec.l2_cache_bytes
    from ..gpu.device import V100_SPEC

    return V100_SPEC.l2_cache_bytes
