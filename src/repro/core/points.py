"""Point state: the per-point products of one point set, shared by its plans.

A :class:`PointState` holds everything ``set_pts`` derives from the points
alone (paper Sec. V-A): the fine-grid coordinates, their
:class:`~repro.core.binsort.BinSort`, the bin-ordered
:class:`~repro.core.stencil.StencilCache` per operator dtype (all dtypes
share the per-dimension stencils and the CSR ``indices`` / ``indptr``) and
the SM subproblem split per ``Msub``.  :func:`shared_point_state` keeps one
state per key (a digest of the coordinates, the fine shape, the kernel, its
evaluation, the bin shape and the stencil budget) in a weak registry, so
every plan on equal points holds one object, which dies with the last of
them.  A key hit is shared only if the coordinates compare equal, and shared
arrays are read-only, so sharing never changes a result.
"""

from __future__ import annotations

import hashlib
import threading
import weakref

import numpy as np

from .binsort import make_subproblems

__all__ = ["PointState", "shared_point_state"]

_REGISTRY = weakref.WeakValueDictionary()
_REGISTRY_LOCK = threading.Lock()


def _freeze(arrays):
    for a in arrays:
        a.flags.writeable = False


class PointState:
    """The per-point products of one point set; each is built at most once."""

    def __init__(self, key, grid_coords):
        self.key = key
        self.digest = key[0]
        self.grid_coords = list(grid_coords)
        _freeze(self.grid_coords)
        self.sort = None
        self._stencils = {}
        self._subproblems = {}
        self._lock = threading.Lock()

    def prepare(self, build_sort, build_stencil=None, dtype=None):
        """Build the sort (``build_sort()``) and, given ``build_stencil(sort)``,
        the ``dtype`` stencil unless built -- a further dtype by
        :meth:`StencilCache.astype`.  True if a builder ran."""
        with self._lock:
            built = self.sort is None
            if built:
                sort = build_sort()
                _freeze([sort.permutation, sort.bin_index, sort.bin_counts,
                         sort.bin_starts])
                self.sort = sort
            if build_stencil is not None and self.stencil(dtype) is None:
                base = next(iter(self._stencils.values()), None)
                if base is None:
                    base, built = build_stencil(self.sort), True
                cache = base.astype(dtype)
                _freeze(cache.arrays())
                self._stencils[np.dtype(dtype)] = cache
            return built

    def stencil(self, dtype):
        """The stencil cache with ``dtype`` operator weights (None if not built)."""
        return self._stencils.get(np.dtype(dtype))

    def subproblems(self, max_size):
        """The SM split of the bin sort into subproblems of <= ``max_size`` points."""
        subs = self._subproblems.get(max_size)
        if subs is None:
            subs = make_subproblems(self.sort, max_size)
            _freeze([subs.bin_ids, subs.offsets, subs.counts])
            subs = self._subproblems.setdefault(max_size, subs)
        return subs

    def nbytes(self):
        """Host memory held by the state, each shared buffer counted once."""
        arrays = list(self.grid_coords)
        if self.sort is not None:
            arrays += [self.sort.permutation, self.sort.bin_index,
                       self.sort.bin_counts, self.sort.bin_starts]
        for cache in list(self._stencils.values()):
            arrays += cache.arrays()
        buffers = {(a.__array_interface__["data"][0], a.nbytes) for a in arrays}
        return int(sum(n for _, n in buffers))


def shared_point_state(grid_coords, fine_shape, kernel, kernel_eval, bin_shape,
                       stencil_budget):
    """The registered :class:`PointState` of equal points under these
    parameters, or a new one (registered unless the key is taken)."""
    h = hashlib.blake2b(digest_size=16)
    for c in grid_coords:
        h.update(np.ascontiguousarray(c))
    key = (h.hexdigest(), tuple(fine_shape), kernel.width, kernel.beta,
           kernel_eval, tuple(bin_shape), stencil_budget)
    with _REGISTRY_LOCK:
        state = _REGISTRY.get(key)
        if state is None:
            state = _REGISTRY[key] = PointState(key, grid_coords)
            return state
    if all(np.array_equal(a, b) for a, b in zip(state.grid_coords, grid_coords)):
        return state
    return PointState(key, grid_coords)
