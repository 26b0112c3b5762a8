"""Per-layer tracing of pclindex from outside the package.

The tracer replaces module and class attributes of pclindex (and
``numpy.linalg.solve``) with wrappers that record one span per call:
layer name, start, end, parent span and job.  A function imported into
other pclindex modules under another name (``from .greedy import ag2``,
``simulate as run_simulation``) is wrapped at every such binding, so the
call is seen whichever module makes it.  Spans stay in flat arrays until
the run ends.  A layer's self time is its spans' duration minus the
time their child spans cover.  ``uninstall`` puts every original
attribute back and checks that no wrapper is left anywhere in the
package, so that untraced runs execute the unmodified code.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "job"


def _hook_sum(counter: str, fn):
    def hook(counts, args, result):
        counts[counter] += fn(args, result)
    return hook


# (span name, owner, attribute, hook); owner is "module" or "module:Class"
TARGETS = (
    ("setsystem.inner_boundary", "pclindex.setsystem:SetSystem", "inner_boundary", None),
    ("setsystem.contains", "pclindex.setsystem:SetSystem", "__contains__", None),
    ("greedy.ag2", "pclindex.greedy", "ag2", None),
    ("greedy.workload", "pclindex.greedy:WorkloadOracle", "workload", None),
    ("bandit.pcl_index", "pclindex.bandit", "pcl_index", None),
    ("bandit.activity_measure", "pclindex.bandit", "activity_measure", None),
    ("bandit.normalized_passive_cost", "pclindex.bandit", "normalized_passive_cost", None),
    ("linalg.solve", "numpy.linalg", "solve",
     _hook_sum("linalg.solve.flops", lambda a, r: 2.0 * np.shape(a[0])[0] ** 3 / 3.0)),
    ("dp.solve", "pclindex.dp", "solve",
     _hook_sum("dp.pi_passes", lambda a, r: r.iterations)),
    ("dp.crosscheck_indices", "pclindex.dp", "crosscheck_indices", None),
    ("dp.nu_sweep", "pclindex.dp", "nu_sweep", None),
    ("dp.fair_charge", "pclindex.dp", "fair_charge", None),
    ("admission.indices", "pclindex.admission", "indices",
     _hook_sum("admission.indices.states", lambda a, r: a[0].n)),
    ("admission.workload_table", "pclindex.admission", "workload_table", None),
    ("admission.uniformize", "pclindex.admission", "uniformize", None),
    ("policies.index_table", "pclindex.policies", "routing_index_table", None),
    ("policies.index_table", "pclindex.policies", "mts_index_table", None),
    ("policies.decide", "pclindex.policies", "routing_decide", None),
    ("policies.decide", "pclindex.policies", "shortest_queue_decide", None),
    ("policies.decide", "pclindex.policies", "naive_decide", None),
    ("policies.decide", "pclindex.policies", "mts_decide", None),
    ("policies.decide", "pclindex.policies", "least_stock_decide", None),
    ("policies.rate_lookups", "pclindex.policies:QueueSpec", "mu_at", None),
    ("policies.rate_lookups", "pclindex.policies:QueueSpec", "h_at", None),
    ("policies.rate_lookups", "pclindex.policies:ProductSpec", "lam_at", None),
    ("policies.rate_lookups", "pclindex.policies:ProductSpec", "mu_at", None),
    ("policies.rate_lookups", "pclindex.policies:ProductSpec", "net_cost", None),
    ("policies.switching_curve", "pclindex.policies", "switching_curve", None),
    ("simulate", "pclindex.simulate", "simulate",
     _hook_sum("simulate.events", lambda a, r: r.events)),
    ("modelio.load_model", "pclindex.modelio", "load_model",
     _hook_sum("modelio.bytes_read", lambda a, r: os.path.getsize(a[0]))),
    ("cli.main", "pclindex.cli", "main", None),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; create one per traced phase, ``install`` it, run
    jobs inside ``job(k)``, then ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, defaultdict] = {}
        self._stack = [-1]
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job_id.append(self._job)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def wrap(self, name: str, fn, hook=None):
        nid = self._nid(name)
        clock = time.perf_counter
        start, end, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            i = self._open(nid)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counts.setdefault(self._job, defaultdict(float)), args, result)
            return result

        traced.__wrapped__ = fn
        traced.__bench_traced__ = True
        return traced

    def install(self):
        """Wrap every target at its home and at every pclindex alias."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pclindex" or name.startswith("pclindex.")]
        for name, owner_name, attr, hook in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, hook)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original and (module, alias) != (owner, attr):
                        self._patch(module, alias, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; returns the problems found."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        problems = [f"{getattr(owner, '__name__', owner)}.{attr} not restored"
                    for owner, attr, original in self._patched
                    if owner.__dict__[attr] is not original]
        problems += [f"wrapper left at {where}" for where in leftover_wrappers()]
        self._patched.clear()
        return problems

    def job(self, k: int):
        return _JobScope(self, k)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span arrays plus each span's duration and self
        time.  Call once tracing has ended: the views pin the buffers."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return {"name": np.frombuffer(self.name_id, dtype=np.int32), "parent": parent,
                "job": np.frombuffer(self.job_id, dtype=np.int32), "start": start,
                "end": end, "dur": dur, "self": self_time}

    def check_spans(self, a: dict[str, np.ndarray]) -> list[str]:
        """Spans nest inside their parents, and per job the self times add
        up to the root span's duration."""
        problems = []
        child = a["parent"] >= 0
        p = a["parent"][child]
        if np.any(a["start"][child] < a["start"][p]) or np.any(a["end"][child] > a["end"][p]):
            problems.append("a span is not nested inside its parent")
        if np.any(a["job"][child] != a["job"][p]):
            problems.append("a span's parent belongs to another job")
        root_id = self._name_ids[ROOT]
        for k in np.unique(a["job"]):
            in_job = a["job"] == k
            roots = np.flatnonzero(in_job & ~child)
            if len(roots) != 1 or a["name"][roots[0]] != root_id:
                problems.append(f"job {k} has {len(roots)} root spans")
                continue
            total = float(a["self"][in_job].sum())
            root = float(a["dur"][roots[0]])
            if abs(total - root) > 1e-9 * max(1.0, root):
                problems.append(f"job {k}: self times sum to {total!r}, root lasted {root!r}")
        return problems

    def per_job(self, a: dict[str, np.ndarray], k: int) -> dict[str, float]:
        """Calls and self time of each layer within job k, plus the hook
        counters."""
        in_job = a["job"] == k
        names = a["name"][in_job]
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=a["self"][in_job], minlength=len(self.names))
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
        out.update(self.counts.get(k, {}))
        return out


class _JobScope:
    def __init__(self, tracer: Tracer, k: int):
        self.tracer, self.k = tracer, k

    def __enter__(self):
        t = self.tracer
        t._job = self.k
        t.counts[self.k] = defaultdict(float)
        self.i = t._open(t._nid(ROOT))
        t.start[self.i] = time.perf_counter()
        return t.counts[self.k]

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = time.perf_counter()
        t._stack.pop()
        t._job = -1
        return False


def leftover_wrappers() -> list[str]:
    """Every attribute of a pclindex module or class, or of numpy.linalg,
    that still holds a tracing wrapper."""
    found = []
    owners = [m for name, m in sys.modules.items()
              if name == "pclindex" or name.startswith("pclindex.")]
    owners += [v for m in list(owners) for v in vars(m).values() if isinstance(v, type)]
    owners.append(sys.modules["numpy.linalg"])
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(value, "__bench_traced__", False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
