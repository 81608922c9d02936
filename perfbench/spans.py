"""Layer spans recorded from outside the program.

Nothing under ``src/`` knows about this tracer.  :meth:`Tracer.install` wraps
the public entry points of each layer (plan, bin sort, stencil cache, the
shared ``device_sim`` and ``cached`` backend instances, service intake and
flush, the request points digest) with functions that append a span
``[name, start, end, parent, unit, attrs]`` to an in-memory list;
:meth:`Tracer.uninstall` restores the originals.  A span's parent is the span
open when it started and ``unit`` is the op (or serve round) it belongs to.
Spans are written out once, when the run ends.

Wrapping adds a Python call per layer crossing, so spans are only recorded in
the traced run; end-to-end metrics always come from the untraced run.
"""

from __future__ import annotations

import json
import statistics
import time

#: Backend stage methods wrapped on the shared backend instances.
STAGES = ("spread", "interp", "fft_forward", "fft_inverse", "deconvolve",
          "precorrect")
#: Spans that dispatch an op into the layers below them.  Their self time is
#: time no wrapped layer accounts for, so ``trace.coverage`` leaves it out.
DISPATCH = ("plan.execute", "service.submit", "service.flush")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.unit = "setup"
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds counts.

        ``attrs`` runs after the span has closed, so its cost is charged to
        the enclosing span's self time, never to the layer it describes.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by its traced wrapper until :meth:`uninstall`."""
        own = vars(owner).get(attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def install(self):
        """Wrap every layer entry point the benchmark reports on."""
        import repro.core.plan as plan_module
        from repro import Plan, TransformRequest, TransformService, get_backend

        self.patch(Plan, "__init__", "plan.init")
        self.patch(Plan, "set_pts", "plan.set_pts", _set_pts_attrs)
        self.patch(Plan, "execute", "plan.execute", _execute_attrs)
        self.patch(plan_module, "bin_sort", "binsort.bin_sort")
        self.patch(plan_module, "build_stencil_cache", "stencil.build",
                   _stencil_attrs)
        for backend in ("device_sim", "cached"):
            instance = get_backend(backend)
            for stage in STAGES:
                attrs = (_stage_attrs
                         if backend == "cached" and stage in ("spread", "interp")
                         else None)
                self.patch(instance, stage, f"{backend}.{stage}", attrs)
        self.patch(TransformService, "submit", "service.submit")
        self.patch(TransformService, "flush", "service.flush")
        self.patch(TransformRequest, "points_key", "request.points_key")

    def uninstall(self):
        """Restore every patched attribute (instance attributes are deleted)."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, unit, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": unit,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------- #
# counts recorded at the layer boundaries
# ---------------------------------------------------------------------- #
def _set_pts_attrs(args, plan):
    return {"model_setup": plan.timings()["setup"]}


def _execute_attrs(args, result):
    plan = args[0]
    t = plan.timings()
    return {"model_exec": t["exec"], "model_mem": t["mem"],
            "alloc_events": plan.last_allocs.total_events}


def _stencil_attrs(args, cache):
    return {"nbytes": cache.nbytes(), "fused": bool(cache.is_fused)}


def _stage_attrs(args, result):
    """Computed work of one spread or interp pass: M*B*w^d MACs, and the bytes
    of the stencil arrays that pass reads plus the strengths and fine grid."""
    plan, block = args[0], args[1]
    batch, m = block.shape[0], plan.n_points
    cache = plan._stencil
    if cache.interp_matrix is not None:       # fused CSR operator
        stencil = cache.interp_matrix.data.nbytes + cache.interp_matrix.indices.nbytes
    elif cache.is_fused:                      # fused index and weight arrays
        stencil = cache.flat_idx.nbytes + cache.weights.nbytes
    else:                                     # per-dimension fallback
        stencil = sum(a.nbytes for a in cache.idx + cache.vals)
    n_fine = 1
    for n in plan.fine_shape:
        n_fine *= n
    cplx = plan.precision.complex_itemsize
    return {"pts": batch * m, "flops": batch * m * plan.kernel.width ** plan.ndim,
            "bytes": stencil + batch * (m + n_fine) * cplx}


# ---------------------------------------------------------------------- #
# per-layer metrics from the spans
# ---------------------------------------------------------------------- #
def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    self_t = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_t[parent] -= end - start
    return self_t


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, units, unit_wall, ops_per_unit, count_units,
                  setup_per_op, setup_reps):
    """Per-layer metrics (values only) from the spans of one traced run.

    ``units`` are the traced timed units and ``unit_wall`` their wall times;
    ``count_units`` is the fixed window exact counts are taken over.
    ``setup_per_op`` says whether ``set_pts`` runs inside ops (serving) or
    only in set-up (library workloads, ``setup_reps`` set-ups per run).
    """
    self_t = self_times(spans)
    per_unit = {u: {} for u in units}
    per_call = {}

    def add(u, key, value):
        if u in per_unit:
            per_unit[u][key] = per_unit[u].get(key, 0.0) + value

    setup_model = 0.0
    for i, (name, start, end, parent, unit, attrs) in enumerate(spans):
        dur = end - start
        per_call.setdefault(name, []).append((dur, self_t[i], attrs))
        if name not in DISPATCH:
            add(unit, "covered", self_t[i])
        add(unit, name, dur)
        add(unit, name + ":self", self_t[i])
        if name.startswith("device_sim."):
            add(unit, "profile:self", self_t[i])
        if attrs:
            for key, value in attrs.items():
                add(unit, f"{name}:{key}", float(value))
        if name == "plan.set_pts" and unit == "setup":
            setup_model += attrs["model_setup"]

    def timed(*keys, self_time=False, per_op=True):
        """Median over traced units of the per-op (or per-unit) sum of ``keys``."""
        suffix = ":self" if self_time else ""
        div = ops_per_unit if per_op else 1
        return _median([sum(per_unit[u].get(k + suffix, 0.0) for k in keys) / div
                        for u in units])

    def counted(key):
        """Per-op mean over the count window of a per-unit count."""
        total = sum(per_unit[u].get(key, 0.0) for u in count_units)
        return total / (ops_per_unit * max(len(count_units), 1))

    def ns_per_pt(stage):
        vals = [1e9 * per_unit[u].get(stage, 0.0) / per_unit[u][stage + ":pts"]
                for u in units if per_unit[u].get(stage + ":pts")]
        return _median(vals)

    def call_median(name, self_time=False):
        return _median([s if self_time else d for d, s, _ in per_call.get(name, ())])

    builds = [a for _, _, a in per_call.get("stencil.build", ())]
    alloc_events = sum(per_unit[u].get("plan.execute:alloc_events", 0.0)
                       for u in count_units)
    exec_calls = sum(1 for s in spans if s[0] == "plan.execute" and s[4] in count_units)
    walls = sum(unit_wall[u] for u in units)
    model_setup = (counted("plan.set_pts:model_setup") if setup_per_op
                   else setup_model / max(setup_reps, 1))
    return {
        "service.submit_s": timed("service.submit"),
        "request.points_key_s": timed("request.points_key"),
        "service.flush_self_s": timed("service.flush", self_time=True, per_op=False),
        "plan.init_s": call_median("plan.init"),
        "plan.set_pts_s": call_median("plan.set_pts"),
        "plan.set_pts_self_s": call_median("plan.set_pts", self_time=True),
        "binsort.bin_sort_s": call_median("binsort.bin_sort"),
        "stencil.build_s": call_median("stencil.build"),
        "stencil.mb": (sum(a["nbytes"] for a in builds) / len(builds) / 1e6
                       if builds else 0.0),
        "stencil.fused_ratio": (sum(a["fused"] for a in builds) / len(builds)
                                if builds else 0.0),
        "plan.execute_self_s": timed("plan.execute", self_time=True),
        "backend.spread_s": timed("cached.spread"),
        "backend.interp_s": timed("cached.interp"),
        "backend.fft_s": timed("cached.fft_forward", "cached.fft_inverse"),
        "backend.correct_s": timed("cached.deconvolve", "cached.precorrect"),
        "backend.profile_s": timed("profile:self"),
        "spread.ns_per_pt": ns_per_pt("cached.spread"),
        "interp.ns_per_pt": ns_per_pt("cached.interp"),
        "spread.flops": counted("cached.spread:flops"),
        "interp.flops": counted("cached.interp:flops"),
        "spread.bytes_computed": counted("cached.spread:bytes"),
        "interp.bytes_computed": counted("cached.interp:bytes"),
        "allocs.exec_events": alloc_events / exec_calls if exec_calls else 0.0,
        "model.exec_s": counted("plan.execute:model_exec"),
        "model.setup_s": model_setup,
        "model.mem_s": counted("plan.execute:model_mem"),
        "trace.coverage": (sum(per_unit[u].get("covered", 0.0) for u in units)
                           / walls if walls else 0.0),
    }
