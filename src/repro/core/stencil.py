"""Stencil cache: the precomputed spreading geometry of one point set.

The per-point work that depends only on the *points* is paid once, at
``set_pts`` (paper Sec. V-A), and amortized over every ``execute``.  Per
dimension the cache holds

* ``i0``   -- the first fine-grid node each point touches (unwrapped),
* ``idx``  -- the ``w`` wrapped (periodic) node indices per point,
* ``vals`` -- the ``w`` kernel values per point (Horner-evaluated by
  default, see :func:`repro.kernels.es_kernel.horner_coefficients`),

and, when the footprint ``M * w^d`` fits a memory budget, the fused
``interp_matrix``: a ``(M, n_fine)`` CSR matrix with int32 indices whose
transpose is the spreading operator.  ``execute`` then never evaluates the
kernel again; over budget the cached backend runs the per-subproblem
padded-box GEMM engine (:func:`repro.core.spread.spread_subproblems`) on the
per-dimension arrays, so the budget bounds memory, not which path is fast.

Every per-point array is in the *bin order* of the points'
:class:`~repro.core.binsort.BinSort` (row ``r`` holds point
``sort.permutation[r]``; the coordinates are permuted once, before kernel
evaluation), so consecutive rows touch neighbouring fine-grid cells -- the
host form of the paper's GM-sort locality (Sec. III-A).  Interpolation sums
only ``w^d`` terms per output and tolerates float32 weights; spreading
accumulates every point landing on a cell and keeps float64.
:meth:`StencilCache.astype` gives the cache in another weights dtype sharing
every other array, the CSR ``indices`` / ``indptr`` included (see
:mod:`repro.core.points`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

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
#: for a float32 operator) in the CSR operator.
DEFAULT_FUSE_BUDGET = 1 << 25


@dataclass
class StencilCache:
    """Precomputed per-point spreading geometry, in bin order (see module
    docstring).

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
    interp_matrix : scipy.sparse.csr_matrix (M, prod(fine_shape)) or None
        The fused operator (None over budget): ``interp_matrix @ grid`` is
        interpolation and ``interp_matrix.T @ c`` is spreading, both in bin
        order.  Its dtype is the operator dtype the cache was built with.
    kernel_eval : str
        Which kernel evaluation built the values ("horner" or "exact").
    """

    fine_shape: tuple
    width: int
    i0: list
    idx: list
    vals: list
    interp_matrix: object = None
    kernel_eval: str = "horner"

    @property
    def n_points(self):
        return self.i0[0].shape[0]

    @property
    def ndim(self):
        return len(self.fine_shape)

    @property
    def is_fused(self):
        return self.interp_matrix is not None

    def arrays(self):
        """Every array the cache holds."""
        out = list(self.i0) + list(self.idx) + list(self.vals)
        if self.interp_matrix is not None:
            op = self.interp_matrix
            out += [op.data, op.indices, op.indptr]
        return out

    def nbytes(self):
        """Host memory held by the cache (for reporting)."""
        return int(sum(a.nbytes for a in self.arrays()))

    def astype(self, dtype):
        """This cache with operator weights in ``dtype``, recomputed from
        ``vals`` (rounded once from float64, as a build in ``dtype`` rounds
        them); every other array, CSR ``indices`` / ``indptr`` included, is
        shared.  Without an operator or already in ``dtype``: ``self``."""
        op = self.interp_matrix
        if op is None or op.dtype == np.dtype(dtype):
            return self
        data = _tensor_weights(self.vals, dtype).reshape(-1)
        return replace(self, interp_matrix=sparse.csr_matrix(
            (data, op.indices, op.indptr), shape=op.shape))


def _tensor_columns(idx_per_dim, fine_shape):
    """Flat wrapped fine-grid indices ``(M, w^d)`` of the stencil tensor product."""
    m = idx_per_dim[0].shape[0]
    flat_idx = idx_per_dim[0]
    for d in range(1, len(fine_shape)):
        flat_idx = (flat_idx[:, :, None] * fine_shape[d]
                    + idx_per_dim[d][:, None, :]).reshape(m, -1)
    return flat_idx


def _tensor_weights(vals_per_dim, dtype=np.float64):
    """Separable kernel tensor product ``(M, w^d)``: multiplied in float64
    (x factor first) and rounded once to ``dtype``."""
    ndim = len(vals_per_dim)
    m = vals_per_dim[0].shape[0]
    if ndim == 1:
        return vals_per_dim[0].reshape(m, -1).astype(dtype, copy=False)
    weights = vals_per_dim[0]
    for d in range(1, ndim):
        weights = _row_outer(weights, vals_per_dim[d],
                             dtype if d == ndim - 1 else np.float64)
    return weights


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


def build_stencil_cache(grid_coords, sort, kernel, kernel_eval="horner",
                        fuse_budget=DEFAULT_FUSE_BUDGET, store=None,
                        points_digest=None, dtype=np.float64):
    """Build the stencil cache for one point set, in the bin order of ``sort``.

    Parameters
    ----------
    grid_coords : sequence of ndarray
        Per-dimension fine-grid coordinates in ``[0, n_d)``, in user order.
    sort : BinSort
        The points' bin sort; supplies the fine grid and the row order.
    kernel : ESKernel or compatible
        Must provide ``width`` and ``evaluate_offsets``; "horner" falls back
        to them without ``evaluate_offsets_horner`` (ES kernel only).
    kernel_eval : {"horner", "exact"}
    fuse_budget : int
        Maximum fused entry count ``M * w^d`` (see :data:`DEFAULT_FUSE_BUDGET`).
    store : ArtifactStore, optional
        Warm-state store (kind ``"stencil"``).  With ``points_digest`` also
        given, the cache is served from the store when present and persisted
        (single-flight) when built, keyed by the digest plus every parameter
        above -- a restarted process with the same points skips the whole
        build.
    points_digest : str, optional
        Content digest of the points, required for store participation.
    dtype : numpy dtype
        Dtype of the operator's weights: float64 for any cache that spreads,
        the plan's real dtype is enough for interpolation-only use.
    """
    if kernel_eval not in ("horner", "exact"):
        raise ValueError(f"kernel_eval must be 'horner' or 'exact', got {kernel_eval!r}")
    dtype = np.dtype(dtype)
    if store is not None and points_digest is not None:
        key = stencil_cache_key(points_digest, sort.fine_shape, sort.bin_shape,
                                kernel, kernel_eval, fuse_budget, dtype)
        return stencil_cache_from_arrays(store.get_or_build(
            "stencil", key,
            lambda: stencil_cache_arrays(_build_stencil_cache(
                grid_coords, sort, kernel, kernel_eval, fuse_budget, dtype,
                store=store,
            )),
        ))
    return _build_stencil_cache(grid_coords, sort, kernel, kernel_eval,
                                fuse_budget, dtype, store=store)


def _build_stencil_cache(grid_coords, sort, kernel, kernel_eval, fuse_budget,
                         dtype, store=None):
    """The actual build (no store lookup); see :func:`build_stencil_cache`."""
    fine_shape = tuple(int(n) for n in sort.fine_shape)
    ndim = len(fine_shape)
    w = kernel.width
    use_horner = kernel_eval == "horner" and hasattr(kernel, "evaluate_offsets_horner")
    offsets = np.arange(w, dtype=np.int64)
    order = sort.permutation
    m = order.shape[0]

    i0_list, idx_list, vals_list = [], [], []
    for d in range(ndim):
        # Permute the M coordinates once: every (M, w) array below then
        # comes out in bin order without a gather of its own.
        g = np.asarray(grid_coords[d], dtype=np.float64)[order]
        i0 = np.ceil(g - 0.5 * w).astype(np.int64)
        frac = g - i0
        if use_horner:
            vals = kernel.evaluate_offsets_horner(frac, store=store)
        else:
            vals = kernel.evaluate_offsets(frac)
        i0_list.append(i0)
        idx_list.append(_wrapped_nodes(i0, offsets, fine_shape[d]))
        vals_list.append(vals)

    matrix = None
    if m * (w ** ndim) <= fuse_budget:
        n_fine = int(np.prod(fine_shape))
        k = w ** ndim
        # Build scipy's index arrays directly in the narrowest dtype it would
        # pick, so it keeps them instead of converting a full int64 copy.
        index_dtype = np.int32 if max(n_fine, m * k) < 2 ** 31 else np.int64
        columns = _tensor_columns([a.astype(index_dtype) for a in idx_list],
                                  fine_shape)
        entries = _tensor_weights(vals_list, dtype)
        indptr = np.arange(0, (m + 1) * k, k, dtype=index_dtype)
        matrix = sparse.csr_matrix(
            (entries.reshape(-1), columns.reshape(-1), indptr),
            shape=(m, n_fine),
        )
    return StencilCache(
        fine_shape=fine_shape,
        width=int(w),
        i0=i0_list,
        idx=idx_list,
        vals=vals_list,
        interp_matrix=matrix,
        kernel_eval="horner" if use_horner else "exact",
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
def stencil_cache_key(points_digest, fine_shape, bin_shape, kernel, kernel_eval,
                      fuse_budget, dtype=np.float64):
    """The artifact key one stencil cache is stored under.

    Every input that shapes the cache's values participates: the points
    digest, the fine-grid geometry, the bin shape (which fixes the row
    order), the kernel parameters, the evaluation mode, the fusion budget
    and the operator dtype.  Two processes computing the same key get caches
    with the same entries in the same order (the build is deterministic).
    """
    grid = "x".join(str(int(n)) for n in fine_shape)
    bins = "x".join(str(int(n)) for n in bin_shape)
    return (f"pts={points_digest}.grid={grid}.bins={bins}.w={int(kernel.width)}"
            f".beta={float(kernel.beta):.9g}.eval={kernel_eval}"
            f".budget={int(fuse_budget)}.op={np.dtype(dtype).name}")


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
    if cache.is_fused:
        op = cache.interp_matrix
        arrays.update(csr_data=op.data, csr_indices=op.indices, csr_indptr=op.indptr)
    return arrays


def stencil_cache_from_arrays(arrays):
    """Rebuild a :class:`StencilCache` from :func:`stencil_cache_arrays`."""
    fine_shape = tuple(int(n) for n in np.asarray(arrays["fine_shape"]))
    matrix = None
    if "csr_data" in arrays:
        matrix = sparse.csr_matrix(
            (arrays["csr_data"], arrays["csr_indices"], arrays["csr_indptr"]),
            shape=(arrays["i0"].shape[1], int(np.prod(fine_shape))),
        )
    return StencilCache(
        fine_shape=fine_shape,
        width=int(arrays["width"]),
        i0=list(arrays["i0"]),
        idx=list(arrays["idx"]),
        vals=list(arrays["vals"]),
        interp_matrix=matrix,
        kernel_eval=str(arrays["kernel_eval"]),
    )
