"""Baseline NUFFT libraries the paper benchmarks against.

All three comparators are reimplemented here (per the substitution policy in
``DESIGN.md``), each with *numerics* faithful to its algorithm/kernel and a
*cost model* faithful to its documented execution strategy:

* :mod:`repro.baselines.finufft_cpu` -- FINUFFT, the multithreaded CPU library
  (28 threads in the paper's runs);
* :mod:`repro.baselines.cunfft`     -- CUNFFT, GPU NFFT with (fast) Gaussian
  gridding and unsorted input-driven spreading;
* :mod:`repro.baselines.gpunufft`   -- gpuNUFFT, sector-based GPU gridding with
  a Kaiser-Bessel window and an imaging-grade accuracy floor.

Numerically the three differ only in the window, so their ``type1`` /
``type2`` share one pipeline, :mod:`repro.baselines.gridding`.
:mod:`repro.baselines.registry` exposes them behind one adapter interface used
by the benchmark harness.
"""

from .cunfft import CunfftLibrary
from .finufft_cpu import FinufftCPU
from .gpunufft import GpuNufftLibrary
from .registry import available_libraries, get_library

__all__ = [
    "FinufftCPU",
    "CunfftLibrary",
    "GpuNufftLibrary",
    "get_library",
    "available_libraries",
]
