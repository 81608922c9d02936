"""The gridding pipeline shared by every baseline library's numerics.

FINUFFT, CUNFFT and gpuNUFFT all compute the same three-step NUFFT of paper
Sec. II-B; numerically they differ only in the window (ES, Gaussian,
Kaiser-Bessel).  Their execution strategies -- sorted CPU blocks, unsorted
GPU atomics, output-driven sectors -- change the summation order at most, so
they live in each library's cost model, not here.  Both transforms run the
exact direct sums of :mod:`repro.core.spread` / :mod:`repro.core.interp` in
double precision and round to the requested precision once at the end.
"""

from __future__ import annotations

import numpy as np

from ..core.binsort import to_grid_coordinates
from ..core.deconvolve import CorrectionFactors
from ..core.gridsize import fine_grid_shape
from ..core.interp import interp_gm
from ..core.options import Precision
from ..core.spread import spread_gm

__all__ = ["gridding_type1", "gridding_type2"]


def _geometry(kernel, n_modes, points):
    """Fine grid, per-dimension grid coordinates and correction factors."""
    fine_shape = fine_grid_shape(n_modes, kernel.width)
    grid_coords = [to_grid_coordinates(points[d], fine_shape[d])
                   for d in range(len(n_modes))]
    return fine_shape, grid_coords, CorrectionFactors(kernel, n_modes, fine_shape)


def gridding_type1(kernel, points, strengths, n_modes, precision):
    """Type 1 with window ``kernel``: spread -> FFT -> truncate and deconvolve."""
    precision = Precision.parse(precision)
    fine_shape, grid_coords, correction = _geometry(kernel, n_modes, points)
    strengths = np.asarray(strengths).astype(np.complex128)
    fine = spread_gm(fine_shape, grid_coords, strengths, kernel, dtype=np.complex128)
    return correction.truncate_and_scale(np.fft.fftn(fine),
                                         dtype=precision.complex_dtype)


def gridding_type2(kernel, points, modes, precision):
    """Type 2 with window ``kernel``: pre-correct and pad -> inverse FFT -> interp."""
    precision = Precision.parse(precision)
    modes = np.asarray(modes)
    fine_shape, grid_coords, correction = _geometry(kernel, modes.shape, points)
    fine = correction.pad_and_scale(modes, dtype=np.complex128)
    fine = np.fft.ifftn(fine) * float(np.prod(fine_shape))
    return interp_gm(fine, grid_coords, kernel, dtype=precision.complex_dtype)
