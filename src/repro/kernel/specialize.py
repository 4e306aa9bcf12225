"""Task-specialized trap compilation: the facts behind the trap JIT.

The generic trap path (:class:`~.traps.TrapHandlers`) re-derives, on
*every* access, facts that are constant for as long as a task's region
geometry stands still: the heap displacement ``p_l - ram_start``, the
stack displacement ``p_u - M``, the region bounds, the stack-check
floor.  Compiled trap code bakes those constants in as integer
literals, so an in-region heap store becomes::

    mem[ta + 1843] = r[24]

instead of a ``dispatch`` -> handler -> ``region_of_current`` ->
``to_physical`` call chain.

This module owns the *facts* (:meth:`TrapSpecializer.trace_facts`: kind,
params, owner task, region geometry, epoch, elision claim and the
``spec_key`` of every baked constant); :mod:`repro.avr.trace` owns the
one code generator.  A trap-terminated block compiles as a (possibly
one-node) trace, and :meth:`TrapSpecializer.thunk_factory` emits the
same fast path as the stepwise thunk the CPU's per-site decode cache
uses for stepwise execution and the exact-stop fallback.

Correctness rests on three facts:

1. **Sites are task-private.**  Every task's naturalized code occupies
   its own flash range and indirect branches are bounds-checked to the
   owning program, so a given site only ever executes as one task.  The
   compiled code therefore guards on ``kernel.current is task``.
2. **Region constants are epoch-versioned.**  Whatever moves a region
   (stack relocation, a released neighbour's grant, loader compaction)
   bumps the owning task's ``region_epoch``; compiled code checks it
   on entry and deoptimizes — invalidating its own cache slot so the
   next decode recompiles against the new constants — when stale.
3. **Everything else falls back.**  Accesses that leave the region
   (task-kill), IO-class pointer targets, relocating pushes, SP
   get/set, and every kind without a fast path run the generic
   ``dispatch`` path, bit-identical to a non-specializing kernel
   (``tests/test_trapspec.py`` proves it differentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..rewriter.classify import PatchKind


@dataclass
class SpecializerStats:
    """Observability for tests and benchmarks."""

    compiled: int = 0   # stepwise thunks and trace-chained sites built
    deopts: int = 0     # epoch/task guard failures (stale code retired)
    declined: int = 0   # thunks left on the generic path


@dataclass
class TraceFacts:
    """Everything the trace compiler needs to compile one patched site.

    A read-only snapshot of the specialization inputs for *site* at
    compile time: the trampoline kind and params, the owning task, its
    region (None for region-free kinds) and region epoch, the kernel
    config, the namespace bindings the emitted code expects, and a
    ``spec_key`` of every runtime constant the emitted code bakes in —
    a trace's cache key composes its sites' keys.
    """

    site: int
    target: int
    is_call: bool
    kind: "PatchKind"
    params: Tuple
    task: object
    region: object
    epoch: int
    config: object
    bindings: Dict[str, object]
    spec_key: Tuple
    #: Validated elision claim for the site ("heap"/"stack"/"pop"), or
    #: None.  When set, the emitters drop the corresponding bound guard
    #: (the certificate proves the fast arm is always taken); the claim
    #: is part of ``spec_key`` so cached code never crosses settings.
    elide: Optional[str] = None


class TrapSpecializer:
    """Derives per-site trap facts against a task's region constants."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stats = SpecializerStats()

    # -- entry points ------------------------------------------------------------

    def thunk_factory(self, cpu, site: int, target: int, is_call: bool):
        """Drop-in for ``TrapHandlers.thunk_factory``.

        Returns the site's stepwise thunk compiled by the trace emitter
        when the kind/geometry has a fast path, else the generic
        pre-bound thunk.
        """
        from ..avr.trace import compile_trap_thunk
        facts = self.trace_facts(cpu, site, target, is_call)
        thunk = compile_trap_thunk(cpu, facts) if facts is not None \
            else None
        if thunk is None:
            self.stats.declined += 1
            return self.kernel.handlers.thunk_factory(cpu, site, target,
                                                      is_call)
        self.stats.compiled += 1
        return thunk

    def trace_facts(self, cpu, site: int, target: int,
                    is_call: bool) -> Optional[TraceFacts]:
        """Specialization facts for compiling *site*, or None when it is
        not a patched site owned by a live task with a region.

        Emission lives in :mod:`repro.avr.trace`, which declines kinds
        it has no fast path for; this keeps one owner of the facts
        (kind, params, owner task, region geometry, epoch, spec key).
        """
        kernel = self.kernel
        if site < 0:
            return None
        trampoline = kernel.trampolines.get(target)
        if trampoline is None:
            return None
        task = self._owner(site)
        if task is None:
            return None
        needs_region = trampoline.kind is not PatchKind.BRANCH_BACKWARD
        region = kernel.regions.maybe_by_task(task.task_id)
        if needs_region and region is None:
            return None
        config = kernel.config
        claim = self._claim(site, trampoline.kind)
        if needs_region:
            spec_key = (trampoline.kind.name, trampoline.params,
                        task.region_epoch, region.p_l, region.p_h,
                        region.p_u, config.ram_start, config.memory_size,
                        config.stack_margin)
            if claim is not None:
                spec_key = spec_key + (("elide", claim),)
        else:
            region = None
            claim = None
            spec_key = (trampoline.kind.name, trampoline.params,
                        config.branch_trap_period)
        bindings = {
            "k_kernel": kernel,
            "k_task": task,
            "k_counts": kernel.stats.trap_counts,
            "k_stats": kernel.stats,
            "k_spec": self.stats,
            "k_slow": kernel.handlers.dispatch,
            "k_sched": kernel.scheduler_tick,
            "k_ioread": kernel.io_read,
            "k_iowrite": kernel.io_write,
            "k_ex": cpu._exec,
            "k_bl": cpu._blocks,
        }
        return TraceFacts(site=site, target=target, is_call=is_call,
                          kind=trampoline.kind, params=trampoline.params,
                          task=task, region=region,
                          epoch=task.region_epoch, config=config,
                          bindings=bindings, spec_key=spec_key,
                          elide=claim)

    # -- helpers -----------------------------------------------------------------

    #: Which claim may elide which trampoline kind's guard.
    _ELIDABLE = {PatchKind.MEM_INDIRECT: ("heap", "stack"),
                 PatchKind.STACK_POP: ("pop",)}

    def _claim(self, site: int, kind: "PatchKind") -> Optional[str]:
        """The validated elision claim for *site*, when it matches the
        trampoline *kind* (None = keep every guard)."""
        claim = self.kernel.elisions.get(site)
        if claim is not None and claim in self._ELIDABLE.get(kind, ()):
            return claim
        return None

    def _owner(self, site: int):
        for task in self.kernel.tasks.values():
            if task.alive and task.owns_code(site):
                return task
        return None
