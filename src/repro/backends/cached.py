"""Cached backend: fused batched numerics over the plan-level stencil cache.

The fast path introduced by the batched execution engine: ``set_pts``
precomputes the per-point kernel stencils (and, within budget, the CSR sparse
spread/interp operator) once per point set, and every stage then processes
the whole ``n_trans`` block in one fused pass -- a sparse mat-mat for
spreading, a batched multi-axis FFT, broadcast correction factors, and the
transposed sparse gather for interpolation.  The stencils are in bin-sort
order, so both sparse passes visit the fine grid in cache order (the host
form of GM-sort), and the complex block is one interleaved-real operand.
The operator's weights are float64, except for single-precision type-2
plans, which only interpolate and use float32.

``stencil_budget`` bounds memory only: over it the CSR operator is not built,
and spread/interp run the per-subproblem padded-box GEMM engine
(:func:`~repro.core.spread.spread_subproblems`,
:func:`~repro.core.interp.interp_subproblems`) over contiguous slices of the
per-dimension stencils instead, whose working set is one subproblem's box.
GM, GM-sort and SM compute the same sums, so every method runs the same
engine here; the method only changes the simulated cost profiles.  No
simulated-GPU profiles are recorded; this backend is pure throughput.
"""

from __future__ import annotations

from ..core.interp import interp_cached, interp_subproblems
from ..core.spread import spread_cached, spread_subproblems
from .base import ExecutionBackend

__all__ = ["CachedBackend"]


class CachedBackend(ExecutionBackend):
    """Fused batched numerics over the stencil cache; see module docstring."""

    name = "cached"
    records_profiles = False

    # ------------------------------------------------------------------ #
    def spread(self, plan, strengths, pipeline, out=None):
        cache = plan._stencil
        order = plan._points.sort.permutation
        cplx = plan.precision.complex_dtype
        if cache.is_fused:
            return spread_cached(plan.fine_shape, strengths, cache, order, cplx, out=out)
        return spread_subproblems(plan.fine_shape, strengths, cache, order,
                                  plan._subproblems, cplx, out=out)

    def fft_forward(self, plan, fine, pipeline):
        # Native precision end to end: pocketfft transforms complex64 blocks
        # without the historical complex128 round-trip (two full-grid copies).
        axes = tuple(range(1, plan.ndim + 1))
        return plan._fft.forward(fine, axes=axes)

    def fft_inverse(self, plan, fine, pipeline):
        axes = tuple(range(1, plan.ndim + 1))
        return plan._fft.inverse(fine, axes=axes)

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        return plan.correction.truncate_and_scale(
            fine_hat, dtype=plan.precision.complex_dtype, out=out
        )

    def precorrect(self, plan, modes, pipeline, out=None):
        return plan.correction.pad_and_scale(
            modes, dtype=plan.precision.complex_dtype, out=out
        )

    def interp(self, plan, fine, pipeline, out=None):
        cache = plan._stencil
        order = plan._points.sort.permutation
        cplx = plan.precision.complex_dtype
        if cache.is_fused:
            return interp_cached(fine, cache, order, cplx, out=out)
        return interp_subproblems(fine, cache, order, plan._subproblems, cplx, out=out)
