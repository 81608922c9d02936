"""Device-sim backend: real numerics plus simulated-GPU kernel profiles.

Numerically this backend delegates every stage to the shared ``cached``
instance, looked up at call time so that a re-registered or instrumented
``cached`` backend is the one that runs, then attaches the per-stage
:class:`~repro.gpu.profiler.KernelProfile` records the paper's cost model
prices: method-specific spread/interp kernels, the cuFFT launches (recorded by
:class:`~repro.gpu.fft.DeviceFFT`), and the deconvolution passes.  Plans on
this backend therefore report the paper's three timings (``exec``, ``total``,
``total+mem``) after every execute -- it is the default backend.

The module-level :func:`spread_stage_profiles` / :func:`interp_stage_profiles`
helpers are the single dispatch point from a spreading *method* to its kernel
profiles; :mod:`repro.metrics.modeling` builds its paper-scale estimates
through the same functions, so modelled benchmarks and executed plans can
never disagree about what a method costs.
"""

from __future__ import annotations

from ..core.deconvolve import deconvolve_kernel_profile
from ..core.interp import interp_kernel_profiles
from ..core.options import SpreadMethod
from ..core.spread import spread_kernel_profiles, spread_sm_kernel_profiles
from .base import ExecutionBackend, get_backend

__all__ = ["DeviceSimBackend", "spread_stage_profiles", "interp_stage_profiles"]


def spread_stage_profiles(method, sort, kernel, precision, threads_per_block=128,
                          spec=None, subproblems=None):
    """Kernel profiles of one spreading pass for the given method.

    ``sort`` may be a :class:`~repro.core.binsort.BinSort` or a
    :class:`~repro.core.binsort.SpreadStats` (the paper-scale modelling path);
    ``subproblems`` supplies the SM decomposition when the caller already has
    one (a Plan, or an estimated count from a scaled histogram).
    """
    method = SpreadMethod.parse(method)
    if method is SpreadMethod.SM and subproblems is not None:
        return spread_sm_kernel_profiles(
            sort, kernel, precision, subproblems, threads_per_block, spec
        )
    return spread_kernel_profiles(
        method, sort, kernel, precision, threads_per_block, spec
    )


def interp_stage_profiles(method, sort, kernel, precision, threads_per_block=128,
                          spec=None):
    """Kernel profiles of one interpolation pass (SM falls back to GM-sort)."""
    return interp_kernel_profiles(
        method, sort, kernel, precision, threads_per_block, spec
    )


class DeviceSimBackend(ExecutionBackend):
    """Profiled execution on the simulated device; see module docstring."""

    name = "device_sim"
    records_profiles = True

    @staticmethod
    def _add_fused_stage(plan, pipeline, profiles, n_trans):
        """Record one fused launch per stage kernel.

        The batched engine processes all ``n_trans`` transforms of a stage in
        a single pass, so the *work* scales with the batch but the launch
        does not -- matching cuFINUFFT's batched kernels.  (``n_trans=1``
        records the profiles unchanged.)

        Each launch first passes the device's fault gate
        (:meth:`~repro.gpu.device.Device.check_launch`): an attached
        :class:`~repro.faults.FaultInjector` may raise a transient kernel
        failure, an injected OOM or a device-lost error here -- the stage
        boundary where a real ``cudaGetLastError`` would report them.
        """
        for prof in profiles:
            plan.device.check_launch(prof.name)
            pipeline.add_kernel(prof.scaled(n_trans), phase="exec")

    # ------------------------------------------------------------------ #
    def spread(self, plan, strengths, pipeline, out=None):
        fine = get_backend("cached").spread(plan, strengths, pipeline, out=out)
        subproblems = plan._subproblems if plan.method is SpreadMethod.SM else None
        profiles = spread_stage_profiles(
            plan.method, plan._points.sort, plan.kernel, plan.precision,
            plan.opts.threads_per_block, plan.device.spec, subproblems=subproblems,
        )
        self._add_fused_stage(plan, pipeline, profiles, strengths.shape[0])
        return fine

    def fft_forward(self, plan, fine, pipeline):
        # DeviceFFT records one fused batched-cufft profile by itself; the
        # launch still passes the device's fault gate like every stage.
        plan.device.check_launch("cufft_forward")
        return get_backend("cached").fft_forward(plan, fine, pipeline)

    def fft_inverse(self, plan, fine, pipeline):
        plan.device.check_launch("cufft_inverse")
        return get_backend("cached").fft_inverse(plan, fine, pipeline)

    def deconvolve(self, plan, fine_hat, pipeline, out=None):
        modes = get_backend("cached").deconvolve(plan, fine_hat, pipeline, out=out)
        profile = deconvolve_kernel_profile(
            plan.n_modes, plan.precision.complex_itemsize
        )
        self._add_fused_stage(plan, pipeline, [profile], fine_hat.shape[0])
        return modes

    def precorrect(self, plan, modes, pipeline, out=None):
        fine = get_backend("cached").precorrect(plan, modes, pipeline, out=out)
        profile = deconvolve_kernel_profile(
            plan.n_modes, plan.precision.complex_itemsize, name="precorrect"
        )
        self._add_fused_stage(plan, pipeline, [profile], modes.shape[0])
        return fine

    def interp(self, plan, fine, pipeline, out=None):
        result = get_backend("cached").interp(plan, fine, pipeline, out=out)
        profiles = interp_stage_profiles(
            plan.interp_method, plan._points.sort, plan.kernel, plan.precision,
            plan.opts.threads_per_block, plan.device.spec,
        )
        self._add_fused_stage(plan, pipeline, profiles, fine.shape[0])
        return result
