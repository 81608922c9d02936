"""Reference backend: exact dense numpy numerics, one transform at a time.

This is the seed implementation's execution strategy: every stage loops over
the ``n_trans`` transforms, kernels are evaluated on the fly through the
exact ``exp(beta*(sqrt(1-z^2)-1))`` form (no plan-level stencil cache), and no
simulated-GPU profiles are recorded.  GM and GM-sort plans spread with the
direct sum :func:`~repro.core.spread.spread_gm`; SM plans keep the padded-bin
accumulation of paper Fig. 1 (:func:`~repro.core.spread.spread_sm`) as a
fidelity check of that scheme.  Interpolation is always the direct gather
:func:`~repro.core.interp.interp_gm`.  It is the ground truth the ``cached``
and ``device_sim`` backends are validated against, and the baseline the
throughput benchmark measures speedups from.
"""

from __future__ import annotations

import numpy as np

from ..core.interp import interp_gm
from ..core.options import SpreadMethod
from ..core.spread import spread_gm, spread_sm
from .base import ExecutionBackend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ExecutionBackend):
    """Per-transform exact numerics; see module docstring."""

    name = "reference"
    records_profiles = False
    uses_stencil_cache = False

    # ------------------------------------------------------------------ #
    def _spread_one(self, plan, strengths):
        cplx = plan.precision.complex_dtype
        points = plan._points
        if plan.method is SpreadMethod.SM:
            return spread_sm(plan.fine_shape, points.grid_coords, strengths,
                             plan.kernel, points.sort, plan._subproblems, cplx)
        return spread_gm(plan.fine_shape, points.grid_coords, strengths,
                         plan.kernel, cplx)

    @staticmethod
    def _stacked(parts, out):
        """Stack per-transform results, landing in ``out`` when provided.

        The reference loop keeps its double-precision internal math; honouring
        ``out=`` only changes where the stacked block is stored (the copy into
        single-precision storage is the ground-truth rounding step).
        """
        if out is not None:
            for t, part in enumerate(parts):
                out[t] = part
            return out
        return np.stack(parts)

    def spread(self, plan, strengths, pipeline, out=None):
        return self._stacked(
            [self._spread_one(plan, strengths[t])
             for t in range(strengths.shape[0])],
            out,
        )

    def fft_forward(self, plan, fine, pipeline):
        return np.stack([
            plan._fft.forward(fine[t].astype(np.complex128, copy=False))
            for t in range(fine.shape[0])
        ])

    def fft_inverse(self, plan, fine, pipeline):
        return np.stack([
            plan._fft.inverse(fine[t].astype(np.complex128, copy=False))
            for t in range(fine.shape[0])
        ])

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        cplx = plan.precision.complex_dtype
        return self._stacked(
            [plan.correction.truncate_and_scale(fine_hat[t], dtype=cplx)
             for t in range(fine_hat.shape[0])],
            out,
        )

    def precorrect(self, plan, modes, pipeline, out=None):
        return self._stacked(
            [plan.correction.pad_and_scale(modes[t], dtype=np.complex128)
             for t in range(modes.shape[0])],
            out,
        )

    def interp(self, plan, fine, pipeline, out=None):
        cplx = plan.precision.complex_dtype
        return self._stacked(
            [interp_gm(fine[t], plan._points.grid_coords, plan.kernel, cplx)
             for t in range(fine.shape[0])],
            out,
        )
