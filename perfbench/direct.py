"""Sampled direct sums: the benchmark's own accuracy check.

The NUFFT outputs are compared with the exact nonuniform DFT evaluated at a
seeded sample of output entries only, so a check costs a small fraction of
the full O(N * M) sum: type 1 on a tensor sub-grid of modes (stratified
random indices per axis, which keeps the sum separable), type 2 at a random
subset of points.  Mode ordering and exponent signs follow
``repro.core.exact``: every axis runs over ascending ``k`` from ``-N//2``.
"""

from __future__ import annotations

import numpy as np

#: Complex entries per intermediate array of the type-1 sum (16 MB).
_ELEMS = 1 << 20


def sample_axes(n_modes, side, rng):
    """Per axis, ``side`` sorted indices: one at random from each of ``side``
    equal strata, so low and high frequencies are both always checked."""
    axes = []
    for n in n_modes:
        edges = np.linspace(0, n, min(side, n) + 1).astype(np.int64)
        axes.append(rng.integers(edges[:-1], edges[1:]))
    return axes


def sample_points(n_points, count, rng):
    """``count`` distinct point indices, sorted."""
    return np.sort(rng.choice(n_points, size=min(count, n_points), replace=False))


def type1_at(points, strengths, n_modes, axes_idx, isign):
    """Exact ``f_k = sum_j c_j exp(isign i k.x_j)`` on the sub-grid ``axes_idx``.

    The frequency of array index ``p`` on an axis of length ``N`` is
    ``p - N//2``.  Returns an array of shape ``[len(i) for i in axes_idx]``.
    """
    c = np.asarray(strengths, dtype=np.complex128)
    freqs = [(idx - n // 2).astype(np.float64) for idx, n in zip(axes_idx, n_modes)]
    shape = [f.shape[0] for f in freqs]
    # The leading axes are expanded per chunk of points and the last one is
    # contracted by a matmul; the chunk keeps the expansion near _ELEMS.
    chunk = max(256, _ELEMS // int(np.prod(shape[:-1])))
    out = np.zeros(shape, dtype=np.complex128)
    for lo in range(0, c.shape[0], chunk):
        factors = [np.exp(isign * 1j * np.outer(f, x[lo:lo + chunk]))
                   for f, x in zip(freqs, points)]
        lead = factors[0] * c[lo:lo + chunk]
        for f in factors[1:-1]:
            lead = (lead[:, None, :] * f[None, :, :]).reshape(-1, f.shape[1])
        if len(factors) == 1:
            out += lead.sum(axis=1)
        else:
            out += (lead @ factors[-1].T).reshape(shape)
    return out


def type2_at(points, modes, indices, isign):
    """Exact ``c_j = sum_k f_k exp(isign i k.x_j)`` at the points ``indices``."""
    modes = np.asarray(modes, dtype=np.complex128)
    factors = []
    for d, n in enumerate(modes.shape):
        k = np.arange(-(n // 2), (n + 1) // 2, dtype=np.float64)
        factors.append(np.exp(isign * 1j * np.outer(k, points[d][indices])))
    axes = "abc"[:modes.ndim]
    spec = f"{axes}," + ",".join(f"{a}s" for a in axes) + "->s"
    return np.einsum(spec, modes, *factors, optimize=True)


def rel_l2(approx, exact):
    """Relative l2 error of ``approx`` against ``exact``."""
    approx = np.asarray(approx, dtype=np.complex128)
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
