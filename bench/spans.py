"""Span tracer for the traced benchmark run, installed from outside the package.

`Tracer.install()` wraps the public functions of every deltasys module and
rebinds each wrapper in every deltasys module that holds the original, so a
function imported by name (`from .intersecting import
nontrivial_search_masks`) is traced at its call sites too. `uninstall()`
puts every original back. Nothing under src/ changes.

A span records its function, start, end, parent span and job id, plus the
node-counter delta for the two search kernels and whether the call returned
a value. Spans live in flat arrays in memory and are written out when the
run ends. Self time is a span's duration minus the durations of its child
spans; in one thread the children of a span never overlap, so that sum is
exactly the time they cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "hgio", "hypergraph", "patterns", "search", "intersecting",
          "sunflowers", "constructions", "extremal", "homogeneous")
# per-node helpers are called millions of times; wrapping them would swamp
# the measurement
SKIP = {"hypergraph.mask_of", "hypergraph.vertex_tuple", "hypergraph.vertices_of"}
METHODS = ("hypergraph.Hypergraph.restrict",)
# kernels take a NodeCounter as their fifth argument; their node count is
# the counter's growth during the call, also when it ends in BudgetExceeded
KERNELS = ("intersecting.nontrivial_search_masks", "sunflowers.cluster_search_masks")
# drivers whose return value carries the job's reported node count
DRIVERS = ("constructions.verify_counterexample", "intersecting.find_nontrivial_subfamily",
           "extremal.max_avoiding", "sunflowers.find_cluster")


def traced_names() -> list[str]:
    """Qualified names of everything the tracer wraps, module by module."""
    names = []
    for layer in LAYERS:
        mod = sys.modules[f"deltasys.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in SKIP
                    and not (layer == "cli" and attr != "main")):
                names.append(name)
    return names + list(METHODS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.fn = array("l")
        self.nodes = array("q")
        self.hit = array("b")
        self.jobs: list[str] = []
        self._stack = [-1]
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []

    def set_job(self, name: str) -> None:
        self.jobs.append(name)
        self._job = len(self.jobs) - 1

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        fid = self.names.index(name)
        kernel = name in KERNELS
        start, end, parent, job, fnid = self.start, self.end, self.parent, self.job, self.fn
        nodes, hit, stack = self.nodes, self.hit, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            job.append(self._job)
            fnid.append(fid)
            end.append(0.0)
            nodes.append(0)
            hit.append(0)
            stack.append(idx)
            counter = (kwargs["counter"] if "counter" in kwargs else args[4]) if kernel else None
            before = counter.nodes if kernel else 0
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if kernel:
                    nodes[idx] = counter.nodes - before
            hit[idx] = out is not None
            if not kernel and isinstance(getattr(out, "nodes", None), int):
                nodes[idx] = out.nodes
            return out
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "deltasys" or key.startswith("deltasys.")]
        for name in traced_names():
            layer, attr = name.split(".", 1)
            owner = sys.modules[f"deltasys.{layer}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # --- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def ancestors(self, idx: int):
        p = self.parent[idx]
        while p >= 0:
            yield p
            p = self.parent[p]

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated rows, one per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\tjob\tname\tstart\tend\tnodes\thit\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.jobs[self.job[i]]}\t"
                         f"{self.names[self.fn[i]]}\t{self.start[i] - t0:.7f}\t"
                         f"{self.end[i] - t0:.7f}\t{self.nodes[i]}\t{self.hit[i]}\n")
