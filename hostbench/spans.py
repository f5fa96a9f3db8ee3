"""Host-time spans around the program's public entry points.

The recorder wraps bound methods of the *live instances* of one system
(instance attributes shadow the class methods, so every caller that goes
through the public name is timed) and the benchmark's own calls into the
engine.  Nothing in the program changes.  Each span keeps its name,
start, end and parent; self time is the span's duration minus the time
its child spans cover.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import gzip
import time
from array import array

#: span name -> layer, in the table's order
LAYERS = {
    "bench.gen": "bench",
    "serve.submit": "serve",
    "serve.flush": "serve",
    "sim.run": "sim",
    "sim.schedule": "sim",
    "spcm.request_frames": "spcm",
    "spcm.return_frames": "spcm",
    "core.reference": "core",
    "core.dispatch_fault": "core",
    "core.migrate_pages": "core",
    "core.migrate_pages_batch": "core",
    "core.uio_read": "core",
    "core.uio_write": "core",
    "core.fetch_page": "core",
    "core.store_page": "core",
    "managers.handle_fault": "managers",
    "managers.reclaim_pages": "managers",
    "managers.writeback": "managers",
}


class SpanRecorder:
    """In-memory span store; recording is off until :meth:`start`."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start_s = array("d")
        self.end_s = array("d")
        self._child_s = array("d")
        self.count = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        #: per-name sums of a value observed from return values
        self.observed: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self.recording = False

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name`` while recording.

        ``observe(result)`` returns a number summed into
        ``observed[name]`` beside a count of results where it was > 0.
        """
        nid = self._ids[name]
        names, parents = self.name, self.parent
        starts, ends, child = self.start_s, self.end_s, self._child_s
        stack, counts, self_s = self._stack, self.count, self.self_s
        clock = time.perf_counter
        totals = self.observed.setdefault(name, [0, 0])

        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                duration = t1 - t0
                if parent >= 0:
                    child[parent] += duration
                counts[nid] += 1
                self_s[nid] += duration - child[idx]
            if observe is not None:
                value = observe(result)
                totals[0] += value
                totals[1] += value > 0
            return result

        return span

    def _patch(self, obj, attr: str, name: str, observe=None) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), observe))

    # -- installation on live instances -------------------------------------

    def install_system(self, system) -> None:
        """Kernel, UIO, file server, SPCM and the default manager."""
        kernel = system.kernel
        self._patch(kernel, "reference", "core.reference")
        self._patch(kernel, "dispatch_fault", "core.dispatch_fault")
        self._patch(kernel, "migrate_pages", "core.migrate_pages")
        self._patch(kernel, "migrate_pages_batch", "core.migrate_pages_batch")
        self._patch(system.uio, "read", "core.uio_read")
        self._patch(system.uio, "write", "core.uio_write")
        self._patch(system.file_server, "fetch_page", "core.fetch_page")
        self._patch(system.file_server, "store_page", "core.store_page")
        self._patch(system.spcm, "request_frames", "spcm.request_frames", len)
        self._patch(system.spcm, "return_frames", "spcm.return_frames")
        self.install_manager(system.default_manager)

    def install_manager(self, manager) -> None:
        self._patch(manager, "handle_fault", "managers.handle_fault")
        self._patch(
            manager, "reclaim_pages", "managers.reclaim_pages", int
        )
        self._patch(manager, "writeback", "managers.writeback")

    def install_serve(self, serving) -> None:
        """The serving entry points and every tenant's manager."""
        self._patch(serving, "submit", "serve.submit")
        self._patch(serving, "flush", "serve.flush")
        for session in serving.sessions.values():
            self.install_manager(session.manager)

    # -- queries ------------------------------------------------------------

    def n(self, name: str) -> int:
        return self.count[self._ids[name]]

    def self_of(self, name: str) -> float:
        return self.self_s[self._ids[name]]

    def layer_self_s(self, layer: str) -> float:
        return sum(
            self.self_s[i]
            for i, name in enumerate(self.names)
            if LAYERS[name] == layer
        )

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def durations_us(self, name: str) -> list[float]:
        nid = self._ids[name]
        return [
            (self.end_s[i] - self.start_s[i]) * 1e6
            for i in range(len(self.name))
            if self.name[i] == nid
        ]

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, parent, name, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start_s[0] if len(self.start_s) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{round((self.start_s[i] - base) * 1e9)}\t"
                    f"{round((self.end_s[i] - base) * 1e9)}\n"
                )
