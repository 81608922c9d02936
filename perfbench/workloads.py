"""The benchmark's workloads, driven through the public ``repro`` API.

Every workload is a closed loop with one client in one process, on default
options (so the backend is ``device_sim``).  Inputs come only from the seed.
README.md in this directory says why each workload exists.

``iter-2d``
    One type-2 and one type-1 plan over the same 2D points; an op is one
    type-2 execute followed by one type-1 execute (an A^H A apply), with
    reused ``out=`` buffers.
``hiacc-3d``
    3D type 1 at eps 1e-12 on clustered points, over the stencil budget; an
    op is one execute.
``serve-mixed``
    Rounds of 16 one-shot requests through a default ``TransformService``:
    4 point sets (2 recurring, 2 fresh per round) x 4 requests, half type 1
    and half type 2, submitted in shuffled order and then flushed.  An op is
    one request.
"""

from __future__ import annotations

import math
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import direct
from spans import Tracer, layer_metrics

#: Set-ups per run: at least SETUP_MIN_REPS, and more while their total
#: stays under SETUP_MIN_SECONDS (up to SETUP_MAX_REPS); ``setup_s`` is
#: their median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPS = 25
#: Accuracy checks sample CHECK_SIDE modes per axis (type 1) or
#: CHECK_POINTS points (type 2) of each checked output.  Library workloads
#: check only two ops per run, so their type-1 sub-grids grow to as many modes
#: as CHECK_WORK complex multiply-adds allow.
CHECK_SIDE = 16
CHECK_POINTS = 256
CHECK_WORK = 1 << 28
#: Traced units the exact counts are taken over (the first ones of the run).
COUNT_UNITS = 4
#: Serving rounds run after the plan pool first fills, before timing starts.
WARM_EXTRA_ROUNDS = 4
#: Upper bound on warm-up rounds spent waiting for the pool to fill.
WARM_MAX_ROUNDS = 40
#: Smallest share of traced op wall time the layer spans must cover.
MIN_COVERAGE = 0.9
#: serve-mixed rounds: point sets kept across rounds, point sets drawn anew
#: each round, and requests per point set.
RECURRING_SETS = 2
FRESH_SETS = 2
REQUESTS_PER_SET = 4
#: Exponent sign of each transform type when ``isign`` is left at its default.
ISIGN = {1: -1, 2: 1}


@dataclass(frozen=True)
class LibrarySpec:
    """Plans over one fixed point set; an op runs ``chain`` in order."""

    n_modes: tuple
    n_points: int
    chain: tuple
    precision: str
    eps: float
    dist: str


@dataclass(frozen=True)
class ServeSpec:
    """One-shot requests through a default ``TransformService``."""

    n_modes: tuple
    n_points: int
    precision: str
    eps: float


WORKLOADS = {
    "iter-2d": LibrarySpec((256, 256), 1 << 18, (2, 1), "single", 1e-6, "rand"),
    "hiacc-3d": LibrarySpec((32, 32, 32), 20000, (1,), "double", 1e-12, "cluster"),
    "serve-mixed": ServeSpec((128, 128), 1 << 15, "single", 1e-6),
}

#: End-to-end metrics in report order: name -> unit.
E2E_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "nupts_per_s": "pts/s", "rel_err": "1", "ok_ratio": "1",
    "peak_rss_mb": "MB", "modelled_op_s": "model_s",
}

#: Per-layer metrics in report order: name -> unit.
LAYER_UNITS = {
    "service.submit_s": "s", "request.points_key_s": "s",
    "service.flush_self_s": "s", "service.block_size_mean": "count",
    "pool.hit_ratio": "1", "pool.recurring_skip_ratio": "1",
    "pool.plans_created": "count", "plan.init_s": "s", "plan.set_pts_s": "s",
    "plan.set_pts_self_s": "s", "binsort.bin_sort_s": "s",
    "stencil.build_s": "s", "stencil.mb": "MB", "stencil.fused_ratio": "1",
    "plan.execute_self_s": "s", "backend.spread_s": "s",
    "backend.interp_s": "s", "backend.fft_s": "s", "backend.correct_s": "s",
    "backend.profile_s": "s", "spread.ns_per_pt": "ns", "interp.ns_per_pt": "ns",
    "spread.flops": "MAC", "interp.flops": "MAC",
    "spread.bytes_computed": "B", "interp.bytes_computed": "B",
    "allocs.exec_events": "count", "model.exec_s": "model_s",
    "model.setup_s": "model_s", "model.mem_s": "model_s",
    "trace.coverage": "1", "trace.overhead": "1",
}


@dataclass
class Measured:
    """Raw measurements of one run, before they become metrics."""

    tol: float
    pts_per_op: int
    ops_per_unit: int
    setup_per_op: bool
    setup_times: list = field(default_factory=list)
    op_times: dict = field(default_factory=dict)     # unit -> [op seconds]
    unit_walls: dict = field(default_factory=dict)   # unit -> seconds
    traced_units: list = field(default_factory=list)
    errs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    modelled_op_s: float = 0.0
    pool_counts: dict = field(default_factory=dict)  # unit -> serving counts
    notes: list = field(default_factory=list)

    def record_errs(self, errs):
        """Keep checked errors; an output over tolerance fails its op."""
        self.errs.extend(errs)
        self.failed += sum(1 for e in errs if not e <= self.tol)


@dataclass
class RunResult:
    """``metrics`` maps name -> (value, unit, sample description)."""

    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: list
    tracer: Tracer = None


# ---------------------------------------------------------------------- #
# inputs and checks
# ---------------------------------------------------------------------- #
def _complex(rng, shape, precision):
    dtype = np.complex64 if precision == "single" else np.complex128
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def _points(n_modes, n_points, dist, rng):
    """The paper's ``rand`` (whole box) or ``cluster`` (8 fine cells) points."""
    if dist == "rand":
        return [rng.uniform(-np.pi, np.pi, n_points) for _ in n_modes]
    # A box of 8 cells of the 2x upsampled fine grid per dimension.
    return [rng.uniform(0.0, 8 * 2 * np.pi / (2 * n), n_points) for n in n_modes]


def _check(nufft_type, points, data, output, n_modes, rng, side=CHECK_SIDE):
    """Relative l2 error of ``output`` at a seeded sample of its entries."""
    if nufft_type == 1:
        axes_idx = direct.sample_axes(n_modes, side, rng)
        exact = direct.type1_at(points, data, n_modes, axes_idx, ISIGN[1])
        return direct.rel_l2(output[np.ix_(*axes_idx)], exact)
    idx = direct.sample_points(points[0].shape[0], CHECK_POINTS, rng)
    return direct.rel_l2(output[idx], direct.type2_at(points, data, idx, ISIGN[2]))


# ---------------------------------------------------------------------- #
# shared run skeleton
# ---------------------------------------------------------------------- #
def _timed_loop(seconds, tracer, run_unit, m):
    """Run units until ``seconds`` pass; a traced run traces every other unit.

    At least ``2 * COUNT_UNITS`` units run, so the count window is full.
    """
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or k < 2 * COUNT_UNITS:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.unit = k
            tracer.install()
            m.traced_units.append(k)
        try:
            run_unit(k)
        finally:
            if traced:
                tracer.uninstall()
        k += 1


def _more_setups(times):
    return len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS)


def _tail(times, units):
    """Highest whole percentile of ``times`` that leaves >= 10 of the ``units``
    timed units beyond it, and its value.

    Units, not ops, are counted because the ops of one serve round all wait
    for the same ``flush``: a round is one sample of the tail, not 16.
    """
    pct = math.floor(100 * (units - 10) / units) if units > 10 else 100
    return float(np.percentile(times, pct)), pct


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _finish(tracer, m):
    """The end-to-end (untraced run) or per-layer (traced run) metrics."""
    notes = list(m.notes)
    ops = [t for ts in m.op_times.values() for t in ts]
    if tracer is None:
        tail, pct = _tail(ops, len(m.op_times))
        ops_per_s = len(ops) / sum(m.unit_walls.values())
        values = {
            "setup_s": float(np.median(m.setup_times)),
            "op_p50_s": float(np.median(ops)),
            "op_tail_s": tail,
            "ops_per_s": ops_per_s,
            "nupts_per_s": ops_per_s * m.pts_per_op,
            "rel_err": max(m.errs, default=1.0),
            "ok_ratio": 1.0 - m.failed / m.attempted,
            "peak_rss_mb": _peak_rss_mb(),
            "modelled_op_s": m.modelled_op_s,
        }
        samples = {"setup_s": f"median of {len(m.setup_times)} set-ups",
                   "op_tail_s": f"p{pct} of {len(ops)} ops in "
                                f"{len(m.op_times)} timed units",
                   "rel_err": f"max of {len(m.errs)} checked outputs, "
                              f"tolerance {m.tol:g}",
                   "ok_ratio": f"{m.attempted - m.failed} of {m.attempted} ops ok",
                   "modelled_op_s": "simulated V100"}
        for key in ("op_p50_s", "ops_per_s", "nupts_per_s"):
            samples[key] = f"{len(ops)} ops"
        units = E2E_UNITS
    else:
        count_units = m.traced_units[:COUNT_UNITS]
        values = layer_metrics(tracer.spans, m.traced_units, m.unit_walls,
                               m.ops_per_unit, count_units, m.setup_per_op,
                               len(m.setup_times))
        values.update(_pool_metrics(m, count_units))
        traced = set(m.traced_units)
        t_on = [t for k, ts in m.op_times.items() if k in traced for t in ts]
        t_off = [t for k, ts in m.op_times.items() if k not in traced for t in ts]
        values["trace.overhead"] = float(np.median(t_on) / np.median(t_off) - 1.0)
        samples = {}
        notes.append(f"{len(m.traced_units)} traced units of {len(m.op_times)}; "
                     f"counts over the first {len(count_units)}")
        if values["trace.coverage"] < MIN_COVERAGE:
            notes.append(f"FAIL: trace coverage {values['trace.coverage']:.3f} "
                         f"is below {MIN_COVERAGE}")
        units = LAYER_UNITS
    bad = [e for e in m.errs if not e <= m.tol]
    if not m.errs:
        notes.append("FAIL: no output was checked")
    if bad:
        notes.append(f"FAIL: {len(bad)} checked outputs exceed the tolerance "
                     f"{m.tol:g} (worst {max(bad):.3g})")
    correct = m.failed == 0 and not any(n.startswith("FAIL") for n in notes)
    metrics = {k: (values[k], units[k], samples.get(k, "")) for k in units}
    return RunResult(metrics, m.attempted, m.failed, correct, notes, tracer)


def _pool_metrics(m, units):
    """Serving counts over the count window (all 0 without a service)."""
    if not m.pool_counts:
        return {"service.block_size_mean": 0.0, "pool.hit_ratio": 0.0,
                "pool.recurring_skip_ratio": 0.0, "pool.plans_created": 0.0}
    c = {key: sum(m.pool_counts[u][key] for u in units)
         for key in m.pool_counts[units[0]]}
    lookups = c["hits"] + c["misses"]
    return {
        "service.block_size_mean": c["block_size"] / (m.ops_per_unit * len(units)),
        "pool.hit_ratio": c["hits"] / lookups if lookups else 0.0,
        "pool.recurring_skip_ratio": (c["recurring_skipped"] / c["recurring"]
                                      if c["recurring"] else 0.0),
        "pool.plans_created": c["plans_created"] / len(units),
    }


def _attempt(fn, m):
    """Call ``fn``; a raise fails the op and keeps the first traceback."""
    try:
        fn()
    except Exception:
        m.failed += 1
        if not any(n.startswith("FAIL: op raised") for n in m.notes):
            m.notes.append("FAIL: op raised\n" + traceback.format_exc())


# ---------------------------------------------------------------------- #
# library workloads: iter-2d, hiacc-3d
# ---------------------------------------------------------------------- #
def run_library(spec, seed, seconds, tracer):
    from repro import Plan

    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng([seed, 1])
    points = _points(spec.n_modes, spec.n_points, spec.dist, rng)
    data = _complex(rng, spec.n_modes if spec.chain[0] == 2 else (spec.n_points,),
                    spec.precision)
    m = Measured(tol=10 * spec.eps, pts_per_op=spec.n_points * len(spec.chain),
                 ops_per_unit=1, setup_per_op=False)

    if tracer is not None:
        tracer.unit = "setup"
        tracer.install()
    plans = []
    while _more_setups(m.setup_times):
        for plan in plans:
            plan.destroy()
        plans = []
        t0 = time.perf_counter()
        for nufft_type in spec.chain:
            plans.append(Plan(nufft_type, spec.n_modes, eps=spec.eps,
                              precision=spec.precision))
            plans[-1].set_pts(*points)
        m.setup_times.append(time.perf_counter() - t0)
    cplx = np.complex64 if spec.precision == "single" else np.complex128
    outs = [np.empty(spec.n_modes if t == 1 else (spec.n_points,), cplx)
            for t in spec.chain]

    def op():
        x = data
        for plan, out in zip(plans, outs):
            plan.execute(x, out=out)
            x = out

    side = max(CHECK_SIDE, int((CHECK_WORK / spec.n_points) ** (1 / len(spec.n_modes))))

    def check_last_op():
        x, errs = data, []
        for t, out in zip(spec.chain, outs):
            errs.append(_check(t, points, x, out, spec.n_modes, check_rng, side))
            x = out
        return max(errs)

    if tracer is not None:
        tracer.unit = "warmup"
    _attempt(op, m)
    if tracer is not None:
        tracer.uninstall()
    m.attempted += 1
    m.record_errs([check_last_op()])

    def run_unit(k):
        t0 = time.perf_counter()
        _attempt(op, m)
        dt = time.perf_counter() - t0
        m.op_times[k] = [dt]
        m.unit_walls[k] = dt
        m.attempted += 1

    _timed_loop(seconds, tracer, run_unit, m)
    m.record_errs([check_last_op()])
    m.modelled_op_s = sum(plan.timings()["exec"] for plan in plans)
    for plan in plans:
        plan.destroy()
    return _finish(tracer, m)


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #
def run_serve(spec, seed, seconds, tracer):
    from repro import TransformService

    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng([seed, 1])
    recurring = [_points(spec.n_modes, spec.n_points, "rand", rng)
                 for _ in range(RECURRING_SETS)]
    per_round = (RECURRING_SETS + FRESH_SETS) * REQUESTS_PER_SET
    m = Measured(tol=10 * spec.eps, pts_per_op=spec.n_points,
                 ops_per_unit=per_round, setup_per_op=True)

    def round_requests():
        sets = [(i, True, pts) for i, pts in enumerate(recurring)]
        sets += [(RECURRING_SETS + i, False,
                  _points(spec.n_modes, spec.n_points, "rand", rng))
                 for i in range(FRESH_SETS)]
        reqs = []
        for set_id, is_recurring, pts in sets:
            for j in range(REQUESTS_PER_SET):
                t = 1 if j % 2 == 0 else 2
                data = _complex(rng, (spec.n_points,) if t == 1 else spec.n_modes,
                                spec.precision)
                reqs.append(dict(zip("xyz", pts), nufft_type=t, n_modes=spec.n_modes,
                                 data=data, eps=spec.eps, precision=spec.precision,
                                 tag=(set_id, is_recurring, t)))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def serve_round(svc, reqs):
        """Submit then flush; returns results, per-request latency, round wall."""
        starts = []
        for kw in reqs:
            starts.append(time.perf_counter())
            svc.submit(**kw)
        results = svc.flush()
        end = time.perf_counter()
        m.attempted += len(results)
        m.failed += sum(1 for r in results if r.error is not None)
        return results, [end - s for s in starts], end - starts[0]

    if tracer is not None:
        tracer.unit = "setup"
        tracer.install()
    svc = None
    while _more_setups(m.setup_times):
        if svc is not None:
            svc.close()
        reqs = round_requests()
        t0 = time.perf_counter()
        svc = TransformService()
        serve_round(svc, reqs)
        m.setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.unit = "warmup"
    warm = 0
    while svc.pool.n_idle < svc.pool.max_plans and warm < WARM_MAX_ROUNDS:
        serve_round(svc, round_requests())
        warm += 1
    for _ in range(WARM_EXTRA_ROUNDS):
        serve_round(svc, round_requests())
    if tracer is not None:
        tracer.uninstall()
    svc.reset_metrics()

    def run_unit(k):
        reqs = round_requests()
        stats = svc.stats
        before = (stats.plans_created, stats.plan_cache_hits, stats.plan_cache_misses)
        results, latencies, wall = serve_round(svc, reqs)
        m.op_times[k] = latencies
        m.unit_walls[k] = wall
        rec = [r for kw, r in zip(reqs, results) if kw["tag"][1]]
        m.pool_counts[k] = {
            "plans_created": stats.plans_created - before[0],
            "hits": stats.plan_cache_hits - before[1],
            "misses": stats.plan_cache_misses - before[2],
            "recurring": len(rec),
            "recurring_skipped": sum(r.setpts_reused for r in rec),
            "block_size": sum(r.block_size for r in results),
        }
        # One sampled request of each type is checked per round, untimed.
        for t in (1, 2):
            picks = [i for i, kw in enumerate(reqs) if kw["tag"][2] == t]
            i = picks[check_rng.integers(len(picks))]
            if results[i].error is None:
                kw = reqs[i]
                pts = [kw[a] for a in "xyz"[:len(spec.n_modes)]]
                m.record_errs([_check(t, pts, kw["data"], results[i].output,
                                      spec.n_modes, check_rng)])

    _timed_loop(seconds, tracer, run_unit, m)
    m.modelled_op_s = svc.makespan() / (len(m.op_times) * per_round)
    svc.close()
    return _finish(tracer, m)


def run(name, seed, seconds, trace):
    """Run workload ``name`` and return its metrics."""
    spec = WORKLOADS[name]
    tracer = Tracer() if trace else None
    runner = run_serve if isinstance(spec, ServeSpec) else run_library
    return runner(spec, seed, seconds, tracer)
