"""Plan-level stencil cache: precomputed spreading geometry for one point set.

The paper's plan / set_pts / execute separation (Sec. V-A) exists so that the
per-point work that depends only on the *points* -- not on the strengths -- is
paid once and amortized over many ``execute`` calls (the MTIP use case, where
the same nonuniform points are reused across ``n_trans`` strength vectors and
across solver iterations).

At ``set_pts`` time we therefore precompute and store, per dimension:

* ``i0``      -- the first fine-grid node each point touches (unwrapped),
* ``idx``     -- the ``w`` wrapped (periodic) node indices per point,
* ``vals``    -- the ``w`` kernel values per point (Horner-evaluated by
  default, see :func:`repro.kernels.es_kernel.horner_coefficients`),

and, when the footprint ``M * w^d`` fits a memory budget, the *fused* form:

* ``flat_idx`` -- the ``w^d`` wrapped flat fine-grid indices per point,
* ``weights``  -- the ``w^d`` tensor-product kernel values per point,
* ``interp_matrix`` -- the same data as a ``(M, n_fine)`` CSR sparse matrix
  with int32 indices (when scipy is available), whose transpose is the
  spreading operator.

The operator is built in *bin order* when the caller passes the plan's
:attr:`~repro.core.binsort.BinSort.permutation` as ``row_order``: row ``r``
holds point ``row_order[r]``, so consecutive rows touch neighbouring
fine-grid cells -- the host form of the paper's GM-sort locality
(Sec. III-A).  The grid coordinates are permuted once, before kernel
evaluation, so every per-point array of such a cache is in that order.  The
operator's dtype is the caller's choice: interpolation sums only ``w^d``
terms per output and tolerates float32 weights, while spreading accumulates
every point landing on a cell and keeps float64.

``execute`` then never calls ``evaluate_offsets`` again: spreading becomes a
single sparse mat-mat over the interleaved-real ``(M, 2 n_trans)`` strength
block and interpolation the transposed gather.  Over budget, only the
per-dimension arrays exist (in user order) and the cached backend runs the
per-subproblem padded-box GEMM engine
(:func:`repro.core.spread.spread_subproblems`) on them, so the budget bounds
the cache's memory, not which execute path is fast.  The cache is tied to one
point set; ``Plan.set_pts`` rebuilds it, which is exactly the invalidation
the paper's interface implies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StencilCache",
    "build_stencil_cache",
    "stencil_cache_arrays",
    "stencil_cache_from_arrays",
    "stencil_cache_key",
    "DEFAULT_FUSE_BUDGET",
]

#: Maximum number of fused stencil entries (``M * w^d``) materialized by the
#: cache; above this only the per-dimension arrays are kept.  32M entries is
#: ~128 MB of int32 column indices plus ~256 MB of float64 weights (~128 MB
#: for a float32 operator) in the CSR operator; the float64 tensor-product
#: weights, another ~256 MB, live only while a float32 operator is assembled.
DEFAULT_FUSE_BUDGET = 1 << 25

try:  # pragma: no cover - exercised indirectly everywhere scipy exists
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - offline images always ship scipy
    _sparse = None


@dataclass
class StencilCache:
    """Precomputed per-point spreading geometry (see module docstring).

    Attributes
    ----------
    fine_shape : tuple of int
        Fine-grid dimensions the indices refer to.
    width : int
        Kernel width ``w``.
    i0 : list of ndarray, each (M,)
        Unwrapped first node per dimension (the SM spreader needs the
        unwrapped value to localize points inside a padded bin).
    idx : list of ndarray, each (M, w)
        Wrapped node indices per dimension.
    vals : list of ndarray, each (M, w)
        Kernel values per dimension.
    flat_idx : ndarray (M, w^d) or None
        Fused wrapped flat indices (only when within budget and no sparse
        operator was assembled -- the CSR matrix supersedes them, so keeping
        both would hold the large int64 index array as dead memory).
    weights : ndarray (M, w^d) or None
        Fused tensor-product kernel values (same lifetime as ``flat_idx``;
        when the sparse operator exists it owns this data as ``matrix.data``).
    interp_matrix : scipy.sparse.csr_matrix (M, prod(fine_shape)) or None
        Row ``r`` holds the stencil of point ``row_order[r]`` (point ``r``
        without a row order); ``interp_matrix @ grid`` is interpolation and
        ``interp_matrix.T @ c`` is spreading, both in row order.  Its dtype
        is the operator dtype the cache was built with.
    kernel_eval : str
        Which kernel evaluation built the values ("horner" or "exact").
    row_order : ndarray (M,) or None
        The point order of every per-point array above (a bin-sort
        permutation), or ``None`` for user order.  Only caches carrying the
        sparse operator are reordered; the over-budget engine indexes the
        per-dimension arrays by user point number.
    """

    fine_shape: tuple
    width: int
    i0: list
    idx: list
    vals: list
    flat_idx: np.ndarray = None
    weights: np.ndarray = None
    interp_matrix: object = None
    kernel_eval: str = "horner"
    row_order: np.ndarray = None

    @property
    def n_points(self):
        return self.i0[0].shape[0]

    @property
    def ndim(self):
        return len(self.fine_shape)

    @property
    def is_fused(self):
        return self.flat_idx is not None or self.interp_matrix is not None

    def nbytes(self):
        """Host memory held by the cache (for reporting)."""
        total = sum(a.nbytes for a in self.i0)
        total += sum(a.nbytes for a in self.idx)
        total += sum(a.nbytes for a in self.vals)
        if self.flat_idx is not None:
            total += self.flat_idx.nbytes + self.weights.nbytes
        if self.interp_matrix is not None:
            total += (self.interp_matrix.data.nbytes
                      + self.interp_matrix.indices.nbytes
                      + self.interp_matrix.indptr.nbytes)
        if self.row_order is not None:
            total += self.row_order.nbytes
        return int(total)


def _tensor_stencil(idx_per_dim, vals_per_dim, fine_shape, dtype=np.float64):
    """Fuse per-dimension stencils into flat indices and product weights.

    Returns ``(flat_idx, weights)`` of shape ``(M, w^d)`` where ``flat_idx``
    indexes the flattened fine grid and ``weights`` holds the separable kernel
    tensor product, multiplied in float64 (x factor first) and rounded once
    to ``dtype``.
    """
    ndim = len(fine_shape)
    m = idx_per_dim[0].shape[0]
    if ndim == 1:
        return (idx_per_dim[0].reshape(m, -1),
                vals_per_dim[0].reshape(m, -1).astype(dtype, copy=False))
    if ndim == 2:
        n2 = fine_shape[1]
        flat_idx = idx_per_dim[0][:, :, None] * n2 + idx_per_dim[1][:, None, :]
    else:
        n2, n3 = fine_shape[1], fine_shape[2]
        flat_idx = (
            idx_per_dim[0][:, :, None, None] * (n2 * n3)
            + idx_per_dim[1][:, None, :, None] * n3
            + idx_per_dim[2][:, None, None, :]
        )
    weights = vals_per_dim[0]
    for d in range(1, ndim):
        weights = _row_outer(weights, vals_per_dim[d],
                             dtype if d == ndim - 1 else np.float64)
    return flat_idx.reshape(m, -1), weights


def _row_outer(a, b, dtype):
    """Row-wise outer product ``out[m, i*w + j] = a[m, i] * b[m, j]``.

    Both forms are faster than a broadcast multiply over a length-``w``
    inner axis: ``einsum`` for float64, and for a narrower ``dtype`` a
    float64 multiply that rounds straight into the output (no float64
    temporary), which is bit-identical to rounding the float64 product.
    """
    m = a.shape[0]
    if np.dtype(dtype) == np.float64:
        return np.einsum("mi,mj->mij", a, b).reshape(m, -1)
    out = np.empty((m, a.shape[1], b.shape[1]), dtype=dtype)
    np.multiply(a[:, :, None], b[:, None, :], out=out, casting="unsafe")
    return out.reshape(m, -1)


def build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval="horner",
                        fuse_budget=DEFAULT_FUSE_BUDGET, build_matrix=True,
                        store=None, points_digest=None, row_order=None,
                        dtype=np.float64):
    """Build the stencil cache for one point set.

    Parameters
    ----------
    grid_coords : sequence of ndarray
        Per-dimension fine-grid coordinates in ``[0, n_d)``.
    fine_shape : tuple of int
    kernel : ESKernel or compatible
        Must provide ``width`` and ``evaluate_offsets``; the Horner fast path
        additionally needs ``evaluate_offsets_horner`` (ES kernel only) and
        silently falls back to the exact form otherwise.
    kernel_eval : {"horner", "exact"}
    fuse_budget : int
        Maximum fused entry count ``M * w^d`` (see :data:`DEFAULT_FUSE_BUDGET`).
    build_matrix : bool
        Whether to assemble the CSR operator (requires scipy and a fused cache).
    store : ArtifactStore, optional
        Warm-state store (kind ``"stencil"``).  With ``points_digest`` also
        given, the cache is served from the store when present and persisted
        (single-flight) when built, keyed by the digest plus every kernel
        parameter above -- a restarted process with the same points skips the
        whole build.  A served cache carries the row order it was built with.
    points_digest : str, optional
        Content digest of the nonuniform points (e.g.
        :meth:`repro.service.TransformRequest.points_key`).  Required for
        store participation: the grid coordinates themselves are too large to
        key on.
    row_order : ndarray of int, optional
        Point order of the operator's rows, normally the plan's bin-sort
        permutation; ignored (user order kept) when no operator is built.
    dtype : numpy dtype
        Dtype of the operator's weights: float64 for any cache that spreads,
        the plan's real dtype is enough for interpolation-only use.
    """
    if kernel_eval not in ("horner", "exact"):
        raise ValueError(f"kernel_eval must be 'horner' or 'exact', got {kernel_eval!r}")
    dtype = np.dtype(dtype)
    if store is not None and points_digest is not None:
        key = stencil_cache_key(points_digest, fine_shape, kernel, kernel_eval,
                                fuse_budget, build_matrix, dtype)
        arrays = store.get_or_build(
            "stencil", key,
            lambda: stencil_cache_arrays(_build_stencil_cache(
                grid_coords, fine_shape, kernel, kernel_eval, fuse_budget,
                build_matrix, row_order, dtype, store=store,
            )),
        )
        cache = stencil_cache_from_arrays(arrays)
        if cache is not None:
            return cache
        # Deserialization impossible (e.g. a matrix-bearing entry without
        # scipy): fall through to a fresh build.
    return _build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval,
                                fuse_budget, build_matrix, row_order, dtype,
                                store=store)


def _build_stencil_cache(grid_coords, fine_shape, kernel, kernel_eval,
                         fuse_budget, build_matrix, row_order, dtype,
                         store=None):
    """The actual build (no store lookup); see :func:`build_stencil_cache`."""
    ndim = len(fine_shape)
    w = kernel.width
    use_horner = kernel_eval == "horner" and hasattr(kernel, "evaluate_offsets_horner")
    offsets = np.arange(w, dtype=np.int64)
    m = np.shape(grid_coords[0])[0]
    fused = m * (w ** ndim) <= fuse_budget
    with_matrix = fused and build_matrix and _sparse is not None
    if not with_matrix:
        row_order = None

    i0_list, idx_list, vals_list = [], [], []
    for d in range(ndim):
        g = np.asarray(grid_coords[d], dtype=np.float64)
        if row_order is not None:
            # Permute the M coordinates once: every (M, w) array below then
            # comes out in row order without a gather of its own.
            g = g[row_order]
        i0 = np.ceil(g - 0.5 * w).astype(np.int64)
        frac = g - i0
        if use_horner:
            vals = kernel.evaluate_offsets_horner(frac, store=store)
        else:
            vals = kernel.evaluate_offsets(frac)
        i0_list.append(i0)
        idx_list.append(_wrapped_nodes(i0, offsets, fine_shape[d]))
        vals_list.append(vals)

    flat_idx = weights = matrix = None
    if with_matrix:
        n_fine = int(np.prod(fine_shape))
        k = w ** ndim
        # Build scipy's index arrays directly in the narrowest dtype it would
        # pick, so it keeps them instead of converting a full int64 copy.
        index_dtype = np.int32 if max(n_fine, m * k) < 2 ** 31 else np.int64
        # The operator supersedes the fused arrays (every cached spread and
        # interp goes through it), so they are not kept beside it.
        columns, entries = _tensor_stencil(
            [a.astype(index_dtype) for a in idx_list], vals_list, fine_shape,
            dtype)
        indptr = np.arange(0, (m + 1) * k, k, dtype=index_dtype)
        matrix = _sparse.csr_matrix(
            (entries.reshape(-1), columns.reshape(-1), indptr),
            shape=(m, n_fine),
        )
    elif fused:
        flat_idx, weights = _tensor_stencil(idx_list, vals_list, fine_shape)
    return StencilCache(
        fine_shape=tuple(int(n) for n in fine_shape),
        width=int(w),
        i0=i0_list,
        idx=idx_list,
        vals=vals_list,
        flat_idx=flat_idx,
        weights=weights,
        interp_matrix=matrix,
        kernel_eval="horner" if use_horner else "exact",
        row_order=row_order,
    )


def _wrapped_nodes(i0, offsets, n_fine):
    """``np.mod(i0[:, None] + offsets, n_fine)`` without an int64 division.

    ``i0 mod n`` is in ``[0, n)``, so adding an offset below ``w`` overshoots
    the period by less than ``w``: one conditional subtraction wraps it when
    ``w <= n + 1`` (every plan's fine grid has ``n >= 2w``), more only on
    grids narrower than the kernel.
    """
    nodes = np.mod(i0, n_fine)[:, None] + offsets
    for _ in range((offsets.shape[0] - 2) // n_fine + 1):
        np.subtract(nodes, n_fine, out=nodes, where=nodes >= n_fine)
    return nodes


# --------------------------------------------------------------------------- #
# artifact-store serialization
# --------------------------------------------------------------------------- #
def stencil_cache_key(points_digest, fine_shape, kernel, kernel_eval,
                      fuse_budget, build_matrix, dtype=np.float64):
    """The artifact key one stencil cache is stored under.

    Every input that shapes the cache's values participates: the points
    digest, the fine-grid geometry, the kernel parameters, the evaluation
    mode, the fusion knobs and the operator dtype.  Two processes computing
    the same key get operators with the same entries (the build is
    deterministic).  The row order is not keyed -- it depends on the bin
    shape -- but travels with the entry, which is all the operators need.
    """
    grid = "x".join(str(int(n)) for n in fine_shape)
    return (f"pts={points_digest}.grid={grid}.w={int(kernel.width)}"
            f".beta={float(kernel.beta):.9g}.eval={kernel_eval}"
            f".budget={int(fuse_budget)}.matrix={int(bool(build_matrix))}"
            f".op={np.dtype(dtype).name}")


def stencil_cache_arrays(cache):
    """Flatten a :class:`StencilCache` into a ``{name: ndarray}`` payload.

    The per-dimension lists are stacked into single ``(ndim, ...)`` members:
    npz access cost is dominated by fixed per-member overhead (header parse,
    CRC, allocation), so fewer, larger members load measurably faster --
    that load is the warm path's floor.
    """
    arrays = {
        "fine_shape": np.asarray(cache.fine_shape, dtype=np.int64),
        "width": np.asarray(cache.width, dtype=np.int64),
        "kernel_eval": np.asarray(cache.kernel_eval),
        "i0": np.stack(cache.i0),
        "idx": np.stack(cache.idx),
        "vals": np.stack(cache.vals),
    }
    if cache.flat_idx is not None:
        arrays["flat_idx"] = cache.flat_idx
        arrays["weights"] = cache.weights
    if cache.interp_matrix is not None:
        arrays["csr_data"] = cache.interp_matrix.data
        arrays["csr_indices"] = cache.interp_matrix.indices
        arrays["csr_indptr"] = cache.interp_matrix.indptr
    if cache.row_order is not None:
        arrays["row_order"] = cache.row_order
    return arrays


def stencil_cache_from_arrays(arrays):
    """Rebuild a :class:`StencilCache` from :func:`stencil_cache_arrays`.

    Returns ``None`` when the payload cannot be realized in this process
    (a CSR-bearing entry without scipy available) -- the caller then falls
    back to a fresh build.
    """
    fine_shape = tuple(int(n) for n in np.asarray(arrays["fine_shape"]))
    ndim = len(fine_shape)
    has_matrix = "csr_data" in arrays
    if has_matrix and _sparse is None:  # pragma: no cover - images ship scipy
        return None
    matrix = None
    if has_matrix:
        m = int(arrays["i0"].shape[1])
        matrix = _sparse.csr_matrix(
            (arrays["csr_data"], arrays["csr_indices"], arrays["csr_indptr"]),
            shape=(m, int(np.prod(fine_shape))),
        )
    return StencilCache(
        fine_shape=fine_shape,
        width=int(arrays["width"]),
        i0=[arrays["i0"][d] for d in range(ndim)],
        idx=[arrays["idx"][d] for d in range(ndim)],
        vals=[arrays["vals"][d] for d in range(ndim)],
        flat_idx=arrays.get("flat_idx"),
        weights=arrays.get("weights"),
        interp_matrix=matrix,
        kernel_eval=str(arrays["kernel_eval"]),
        row_order=arrays.get("row_order"),
    )
