"""Run every experiment and collect the outputs.

``quick=True`` shrinks sweeps to smoke-test size (used by CI tests);
the defaults regenerate the full (scaled) paper evaluation.

``jobs=N`` fans the suite's independent work units — fig6/fig7/fig8
sweep points, table2 row groups, and whole single-shot experiments —
across N worker processes.  Every unit is a pure function of its
parameters, the decomposition is identical in serial and parallel
mode, and ``Pool.map`` preserves submission order, so the merged
:class:`SuiteResult` (and its rendered text) is byte-identical no
matter how many workers ran it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import (extra_compiled, extra_copyswitch, extra_energy,
               extra_faults, extra_latency, extra_static, fig4, fig5,
               fig6, fig7, fig8, table1, table2)


@dataclass
class SuiteResult:
    results: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        parts: List[str] = []
        for name, result in self.results.items():
            parts.append(f"===== {name} =====")
            parts.append(result.render())
            parts.append("")
        return "\n".join(parts)


def experiment_functions(quick: bool = False) -> Dict[str, Callable]:
    """Experiment id -> zero-argument callable."""
    if quick:
        return {
            "table1": table1.run,
            "table2": lambda: table2.run(reps=8),
            "fig4": fig4.run,
            "fig5": fig5.run,
            "fig6": lambda: fig6.run(sizes=[10_000, 60_000, 120_000],
                                     activations=5),
            "fig7": lambda: fig7.run(tree_sizes=[20, 60], max_tasks=12),
            "fig8": lambda: fig8.run(tree_sizes=[20, 60], max_tasks=12),
            "copyswitch": extra_copyswitch.run,
            "latency": lambda: extra_latency.run(),
            "energy": lambda: extra_energy.run(sizes=[10_000, 60_000],
                                               activations=5),
            "compiled": extra_compiled.run,
            "static": lambda: extra_static.run(quick=True),
            "chaos": lambda: extra_faults.run(quick=True),
        }
    return {
        "table1": table1.run,
        "table2": table2.run,
        "fig4": fig4.run,
        "fig5": fig5.run,
        "fig6": fig6.run,
        "fig7": fig7.run,
        "fig8": fig8.run,
        "copyswitch": extra_copyswitch.run,
        "latency": extra_latency.run,
        "energy": extra_energy.run,
        "compiled": extra_compiled.run,
        "static": extra_static.run,
        "chaos": extra_faults.run,
    }


# -- work units ----------------------------------------------------------------
#
# A unit is ``(kind, kwargs)`` — module-level data that pickles cleanly
# into worker processes.  Unit functions must be module-level too.

_UNIT_FUNCS: Dict[str, Callable] = {
    "table1": table1.run,
    "table2_rows": table2.compute_rows,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6_point": fig6.compute_point,
    "fig7_point": fig7.compute_point,
    "fig8_point": fig8.compute_point,
    "copyswitch": extra_copyswitch.run,
    "latency": extra_latency.run,
    "energy": extra_energy.run,
    "compiled": extra_compiled.run,
    "static_workload": extra_static.compute_workload,
    "chaos_point": extra_faults.compute_point,
}

Spec = Tuple[str, dict]


def _run_unit(spec: Spec):
    kind, kwargs = spec
    return _UNIT_FUNCS[kind](**kwargs)


def _single(chunks: List):
    return chunks[0]


def _suite_plan(quick: bool) -> List[Tuple[str, List[Spec], Callable]]:
    """(experiment name, unit specs, merge(list of unit results))."""
    if quick:
        table2_reps = 8
        fig6_sizes, fig6_activations = [10_000, 60_000, 120_000], 5
        tree_sizes, max_tasks = [20, 60], 12
        energy_kwargs = {"sizes": [10_000, 60_000], "activations": 5}
    else:
        table2_reps = table2._REPS
        fig6_sizes = fig6.DEFAULT_SIZES
        fig6_activations = fig6.DEFAULT_ACTIVATIONS
        tree_sizes, max_tasks = fig7.DEFAULT_TREE_SIZES, fig7.MAX_TASKS
        energy_kwargs = {}

    def merge_fig6(points):
        return fig6.Fig6Result(points=list(points),
                               activations=fig6_activations)

    def merge_table2(chunks):
        return table2.Table2Result(
            rows=[row for chunk in chunks for row in chunk])

    return [
        ("table1", [("table1", {})], _single),
        ("table2",
         [("table2_rows", {"index": i, "reps": table2_reps})
          for i in range(len(table2.ROW_BUILDERS))],
         merge_table2),
        ("fig4", [("fig4", {})], _single),
        ("fig5", [("fig5", {})], _single),
        ("fig6",
         [("fig6_point", {"size": size,
                          "activations": fig6_activations})
          for size in fig6_sizes],
         merge_fig6),
        ("fig7",
         [("fig7_point", {"nodes": nodes, "max_tasks": max_tasks})
          for nodes in tree_sizes],
         lambda points: fig7.Fig7Result(points=list(points))),
        ("fig8",
         [("fig8_point", {"nodes": nodes, "max_tasks": max_tasks})
          for nodes in tree_sizes],
         lambda points: fig8.Fig8Result(points=list(points))),
        ("copyswitch", [("copyswitch", {})], _single),
        ("latency", [("latency", {})], _single),
        ("energy", [("energy", energy_kwargs)], _single),
        ("compiled", [("compiled", {})], _single),
        ("static",
         [("static_workload", {"workload": workload, "quick": quick})
          for workload in extra_static.WORKLOAD_NAMES],
         extra_static.merge),
        ("chaos",
         [("chaos_point", {"mix": mix, "level": level, "quick": quick})
          for mix in extra_faults.MIXES
          for level in extra_faults.LEVELS],
         extra_faults.merge),
    ]


def run_suite(quick: bool = False, only: Optional[List[str]] = None,
              jobs: int = 1) -> SuiteResult:
    """Run the suite, optionally fanning units over *jobs* processes.

    The serial path maps over the exact same unit list the parallel
    path submits, so the two produce identical results.
    """
    plan = [(name, specs, merge)
            for name, specs, merge in _suite_plan(quick)
            if not only or name in only]
    flat: List[Spec] = [spec for _, specs, _ in plan for spec in specs]
    if jobs > 1 and len(flat) > 1:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=min(jobs, len(flat))) as pool:
            outputs = pool.map(_run_unit, flat, chunksize=1)
            # Let the workers exit normally, so their exit hooks (the
            # trace store's flush) run before the pool is torn down.
            pool.close()
            pool.join()
    else:
        outputs = [_run_unit(spec) for spec in flat]
    suite = SuiteResult()
    cursor = 0
    for name, specs, merge in plan:
        chunk = outputs[cursor:cursor + len(specs)]
        cursor += len(specs)
        suite.results[name] = merge(chunk)
    return suite


def run_all(quick: bool = False,
            only: Optional[List[str]] = None) -> SuiteResult:
    return run_suite(quick=quick, only=only, jobs=1)
