"""Layer attribution: spans around the public entry points of each layer.

The traced run wraps the functions in :data:`ENTRY_POINTS` (and
``builtins.compile``) from the benchmark's own code; the program under
test is not edited.  Each wrapper opens a span (name, start, end,
parent).  A span's *self time* is its duration minus the durations of
its direct children, so the self times of one operation add up to the
time its spans cover, and each second is counted once.

Spans are aggregated as they close (self seconds and calls per layer)
and the first :data:`SPAN_LOG_LIMIT` are kept in memory and written out
when the run ends.

Spans opened on a thread with no open span of its own (the serve
executor thread) become children of the current operation's root
span, so a served request splits into ``pipeline.submit`` and the
client-visible remainder (``serve.dispatch``).  Forked fleet shard
workers record into their own copy of the recorder and leave their
totals in the work directory for the parent to merge.

The :class:`Census` hook is installed in untraced runs too: it only
remembers each kernel built during an operation (one wrapper call per
node boot), so the operation's simulated statistics can be read back
after it ends.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped entry point.
ENTRY_POINTS: List[Tuple[str, str, str]] = [
    ("experiments.fig7", "repro.experiments.fig7", "compute_point"),
    ("experiments.fig8", "repro.experiments.fig8", "compute_point"),
    ("baselines.fixedstack", "repro.baselines.fixedstack",
     "max_schedulable_threads"),
    ("toolchain.link", "repro.toolchain.linker", "link_image"),
    ("toolchain.assemble", "repro.avr.assembler", "Assembler.assemble"),
    ("rewriter.rewrite", "repro.rewriter.rewriter", "Rewriter.rewrite"),
    ("analysis.lint", "repro.analysis.static.lint", "lint_image"),
    ("analysis.cert_derive", "repro.analysis.static.dataflow",
     "program_certificates"),
    ("analysis.cert_verify", "repro.analysis.static.dataflow",
     "verify_certificate"),
    ("analysis.stack", "repro.analysis.static.stackdepth",
     "analyze_program"),
    ("kernel.boot", "repro.kernel.kernel", "SenSmartKernel.__init__"),
    ("kernel.boot", "repro.kernel.kernel", "SenSmartKernel.boot"),
    ("avr.exec", "repro.kernel.kernel", "SenSmartKernel.run"),
    ("avr.exec", "repro.avr.cpu", "AvrCpu.run"),
    ("kernel.slowpath", "repro.kernel.traps", "TrapHandlers.dispatch"),
    ("kernel.slowpath", "repro.kernel.kernel",
     "SenSmartKernel.scheduler_tick"),
    ("kernel.relocation", "repro.kernel.relocation",
     "StackRelocator.grow_stack"),
    ("jit.codegen", "repro.avr.cpu", "AvrCpu._fuse_block"),
    ("jit.codegen", "repro.avr.trace", "TraceCompiler.entry_for"),
    ("jit.codegen", "repro.kernel.specialize",
     "TrapSpecializer.thunk_factory"),
    ("fleet.coordinate", "repro.fleet.sim", "FleetSim.run"),
    ("fleet.prime", "repro.fleet.sim", "prime_caches"),
    ("fleet.shard", "repro.fleet.shard", "worker_main"),
    ("pipeline.submit", "repro.pipeline.pipeline", "Pipeline.submit"),
]

#: ``builtins.compile`` is the JIT's Python-bytecode compile step.
PYCOMPILE = "jit.pycompile"

#: Spans kept verbatim for the written-out span log; later spans are
#: still aggregated.
SPAN_LOG_LIMIT = 200_000

#: Environment variable naming the directory forked shard workers
#: write their totals into.
WORKDIR_ENV = "PERFBENCH_WORKDIR"


class _Frame:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class Recorder:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.log: List[Tuple[str, float, float, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: The open operation root, parent of spans on other threads.
        self.root: Optional[_Frame] = None

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1].index
        else:
            parent = self.root.index if self.root is not None else -1
        frame = _Frame(name, time.perf_counter(), -1)
        with self._lock:
            if len(self.log) < SPAN_LOG_LIMIT:
                frame.index = len(self.log)
                self.log.append((name, frame.start, 0.0, parent))
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        with self._lock:
            self.self_s[frame.name] = self.self_s.get(frame.name, 0.0) + \
                duration - frame.child
            self.total_s[frame.name] = \
                self.total_s.get(frame.name, 0.0) + duration
            self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
            if stack:
                stack[-1].child += duration
            elif self.root is not None and frame is not self.root:
                self.root.child += duration
        if frame.index >= 0:
            name, start, _, parent = self.log[frame.index]
            self.log[frame.index] = (name, start, end, parent)
        return duration

    def span(self, name: str):
        return _SpanContext(self, name)

    def snapshot(self) -> Dict[str, dict]:
        """Self seconds, inclusive seconds and calls per span name."""
        with self._lock:
            return {"self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "calls": dict(self.calls)}

    def reset(self) -> None:
        self.self_s, self.total_s, self.calls, self.log = {}, {}, {}, []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root = None

    def write_log(self, path: Path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.log}, handle)


class _SpanContext:
    __slots__ = ("recorder", "name", "frame", "duration")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.frame = self.recorder.enter(self.name)
        return self

    def __exit__(self, *_exc):
        self.duration = self.recorder.leave(self.frame)


class Census:
    """Remembers every kernel built since the last :meth:`take`."""

    def __init__(self):
        self.kernels: list = []

    def take(self) -> list:
        kernels, self.kernels = self.kernels, []
        return kernels


def kernel_counts(kernels) -> Dict[str, object]:
    """Exact simulated statistics summed over *kernels*."""
    out = {"kernels": len(kernels), "instret": 0, "cycles": 0,
           "relocations": 0,
           "context_switches": 0, "traps": 0, "traces_compiled": 0,
           "trace_cache_hits": 0, "trace_store_hits": 0, "deopts": 0,
           "declined": 0}
    by_kind: Dict[str, int] = {}
    for kernel in kernels:
        stats = kernel.stats
        out["instret"] += kernel.cpu.instret
        out["cycles"] += kernel.cpu.cycles
        out["relocations"] += stats.relocations
        out["context_switches"] += stats.context_switches
        for kind, count in stats.trap_counts.items():
            by_kind[kind.name] = by_kind.get(kind.name, 0) + count
            out["traps"] += count
        if kernel.tracer is not None:
            t = kernel.tracer.stats
            out["traces_compiled"] += t.compiled
            out["trace_cache_hits"] += t.cache_hits
            out["trace_store_hits"] += t.store_hits
            out["declined"] += t.declined
        if kernel.specializer is not None:
            s = kernel.specializer.stats
            out["deopts"] += s.deopts
            out["declined"] += s.declined
    out["traps_by_kind"] = dict(sorted(by_kind.items()))
    return out


def add_counts(total: Dict[str, object], more: Dict[str, object]) -> None:
    """Add the numbers in *more* into *total*, nested dicts included."""
    for key, value in more.items():
        if isinstance(value, dict):
            add_counts(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


# -- installing the wrappers ------------------------------------------------------

def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind module-level names imported with ``from x import f``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap(recorder: Recorder, layer: str, func: Callable) -> Callable:
    enter, leave = recorder.enter, recorder.leave

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = enter(layer)
        try:
            return func(*args, **kwargs)
        finally:
            leave(frame)
    return wrapper


def _wrap_shard(recorder: Recorder, census: Census, func: Callable):
    """Shard worker entry (runs in the forked child): record from a
    clean slate and leave the totals for the parent."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.reset()
        census.kernels = []
        try:
            with recorder.span("fleet.shard"):
                return func(*args, **kwargs)
        finally:
            workdir = os.environ.get(WORKDIR_ENV)
            if workdir:
                path = Path(workdir) / f"shard-{os.getpid()}.json"
                path.write_text(json.dumps({
                    **recorder.snapshot(),
                    "counts": kernel_counts(census.take())}))
    return wrapper


def install_census(census: Census) -> None:
    """Make every kernel built from now on report to *census*."""
    from repro.kernel.kernel import SenSmartKernel

    init = SenSmartKernel.__init__

    @functools.wraps(init)
    def census_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        census.kernels.append(self)
    SenSmartKernel.__init__ = census_init


def install_spans(recorder: Recorder, census: Census) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`; call once per
    process, after :func:`install_census`."""
    # Resolve (and so import) everything first: importing a module
    # without a cached .pyc calls compile(), which is not JIT work.
    targets = [(layer, *_resolve(module_name, path))
               for layer, module_name, path in ENTRY_POINTS]
    builtins.compile = _wrap(recorder, PYCOMPILE, builtins.compile)
    for layer, owner, attr in targets:
        original = getattr(owner, attr)
        if layer == "fleet.shard":
            replacement = _wrap_shard(recorder, census, original)
        else:
            replacement = _wrap(recorder, layer, original)
        setattr(owner, attr, replacement)
        if isinstance(owner, type(sys)):
            _rebind_everywhere(original, replacement)


def collect_shards(workdir: Path) -> Dict[str, dict]:
    """Read and delete the totals forked shard workers left behind,
    summed over shards (span totals plus ``counts``)."""
    total: Dict[str, dict] = {}
    for path in sorted(workdir.glob("shard-*.json")):
        add_counts(total, json.loads(path.read_text()))
        path.unlink()
    return total
