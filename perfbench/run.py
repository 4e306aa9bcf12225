"""SenSmart benchmark: seeded workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_sweep --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``paper_sweep``, ``steady_node`` and ``serve_mix``, and ``fleet_flood``,
which runs by name but is not listed in ``BENCHMARK.json`` while the
fleet's 2-shard digest can differ from its 1-shard digest.

A run measures ``--seconds`` in ``ROUNDS`` rounds.  Each round sets the
workload up from scratch, then runs operations for its share of the
time, so set-up and operation samples both spread over the whole run;
``setup_s`` is the median set-up time.  Then the run checks every
operation's result against the workload's reference for its input,
computed after the timed part so that it costs no metric.  An
operation (or set-up) that raises counts as a failed operation.

The result carries the metrics ``BENCHMARK.json`` lists; the record's
``layers_per_op`` holds every layer, listed or not.

* ``--trace 0`` prints the end-to-end metrics.
* ``--trace 1`` measures half the time untraced (in rounds) and half,
  on the same inputs, with every layer entry point wrapped
  (``layers.py``), and prints the per-layer metrics: each layer's
  share of the traced wall time, counts per operation, the share the
  layers account for (``trace.coverage``) and traced over untraced
  time (``trace.overhead``).

The second-to-last line of standard output is the full record (host,
tier flags, inputs, exact simulated statistics, samples); the last line
is the result ``{"correct", "attempted", "failed", "metrics"}``.  Both
are also written under ``.perfbench_out/``.  The run exits non-zero
without a result when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: Rounds per run, each with its own set-up; ``setup_s`` is the median
#: of their set-up times.  Every round runs at least one operation.
ROUNDS = 5
#: Operations the traced half measures at least.
MIN_OPS = 3

#: Root span of one operation.  Its self time is the benchmark's own
#: glue, except for serve_mix, where it is the client-visible serving
#: time outside ``Pipeline.submit``.
ROOT_SPAN = {"serve_mix": "serve.dispatch"}
GLUE_SPAN = "benchmark.op"

#: Per-layer value -> (span aggregate, span names) for span-derived
#: values; other per-layer values come from counts and results.  A value
#: named ``*_s`` (seconds per operation) is printed as ``*_pct``.
SPAN_METRICS = {
    "toolchain.link_s": ("self_s", "toolchain.link"),
    "toolchain.assemble_s": ("self_s", "toolchain.assemble"),
    "toolchain.assemble_calls": ("calls", "toolchain.assemble"),
    "rewriter.rewrite_s": ("self_s", "rewriter.rewrite"),
    "rewriter.rewrite_calls": ("calls", "rewriter.rewrite"),
    "analysis.lint_s": ("self_s", "analysis.lint"),
    "analysis.cert_derive_s": ("self_s", "analysis.cert_derive"),
    "analysis.cert_verify_s": ("self_s", "analysis.cert_verify"),
    "analysis.stack_s": ("self_s", "analysis.stack"),
    "jit.pycompile_s": ("self_s", "jit.pycompile"),
    "jit.pycompile_calls": ("calls", "jit.pycompile"),
    "jit.codegen_s": ("self_s", "jit.codegen"),
    "kernel.boot_s": ("self_s", "kernel.boot"),
    "avr.exec_s": ("self_s", "avr.exec"),
    "kernel.slowpath_s": ("self_s", "kernel.slowpath"),
    "kernel.slowpath_calls": ("calls", "kernel.slowpath"),
    "kernel.relocation_s": ("self_s", "kernel.relocation"),
    "experiments.figure_s": ("self_s", "experiments.fig7",
                             "experiments.fig8"),
    "baselines.fixedstack_s": ("self_s", "baselines.fixedstack"),
    "fleet.coordinate_s": ("self_s", "fleet.coordinate"),
    "fleet.shard_s": ("self_s", "fleet.shard"),
    "pipeline.submit_s": ("total_s", "pipeline.submit"),
    "serve.dispatch_s": ("self_s", "serve.dispatch"),
    "python.import_s": ("self_s", "python.import"),
    "benchmark.glue_s": ("self_s", GLUE_SPAN),
}

#: Per-layer value -> kernel count summed over the operation.
COUNT_METRICS = {
    "kernel.boots": "kernels",
    "avr.cycles": "cycles",
    "kernel.relocations": "relocations",
    "kernel.context_switches": "context_switches",
    "kernel.traps": "traps",
    "jit.traces_compiled": "traces_compiled",
    "jit.deopts": "deopts",
    "jit.declined": "declined",
    "jit.store_hits": "trace_store_hits",
}

#: Per-layer values read from the program's own results (Op.layer).
RESULT_METRICS = (
    "fleet.rounds", "fleet.prime_s", "fleet.shard_busy_max_s",
    "fleet.shard_busy_min_s", "fleet.sync_wait_s", "fleet.critical_path_s",
    "fleet.cross_bytes", "net.delivered", "net.dropped",
    "pipeline.store_misses", "serve.coalesced",
)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(samples) -> float:
    """The median, or 0 when a failing run left no samples."""
    return statistics.median(samples) if samples else 0.0


def _mean(samples) -> float:
    """The mean, or 0 when a failing run left no samples."""
    return statistics.fmean(samples) if samples else 0.0


def _percentile(samples: List[float], fraction: float) -> float:
    if len(samples) <= 1:
        return _median(samples)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _failed(exc: Exception, started: float):
    """An operation that raised: failed, keyed to no reference."""
    from workloads import Op
    wall = time.perf_counter() - started
    return Op(wall_s=wall, traced_s=wall,
              errors=[f"{type(exc).__name__}: {exc}"])


def _run_op(workload, index: int, recorder=None):
    started = time.perf_counter()
    try:
        if recorder is None:
            return workload.op(index)
        with recorder.span(ROOT_SPAN.get(workload.name, GLUE_SPAN)) \
                as span:
            recorder.root = span.frame
            try:
                op = workload.op(index)
            finally:
                recorder.root = None
        op.traced_s = span.duration
        return op
    except Exception as exc:  # noqa: BLE001 - the program failed
        return _failed(exc, started)


def _timed_loop(workload, seconds: float, start: int = 0,
                min_ops: int = 1, recorder=None):
    """Run operations *start*, *start* + 1, ... until *seconds* would be
    exceeded, and at least *min_ops* of them."""
    ops = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        # Stop before an operation of typical recent length would
        # overrun (a median over the last few keeps the check cheap).
        if len(ops) >= min_ops and elapsed + statistics.median(
                op.wall_s for op in ops[-9:]) > seconds:
            return ops
        ops.append(_run_op(workload, start + len(ops), recorder))


def _host() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_digest": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine()}


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) \
        / 1024.0


def _numeric(counts: dict, nested: bool = True) -> dict:
    """The integer (and, if *nested*, dict) entries of *counts*."""
    kinds = (int, dict) if nested else int
    return {k: v for k, v in counts.items()
            if isinstance(v, kinds) and not isinstance(v, bool)}


def _sum_counts(ops) -> dict:
    """Numeric simulated statistics summed over *ops*."""
    from layers import add_counts
    total: dict = {}
    for op in ops:
        add_counts(total, _numeric(op.counts))
    return total


def end_to_end(setup_s: List[float], ops, cold_ms, warm_ms) -> dict:
    """Over the run's whole input cycles (a fixed input size): mean
    seconds per operation and simulated instructions per second, cold
    probes left out, and mean latency by class.  Means, not medians: on
    a shared host interference comes in spells of 10-20 s, and a median
    moves with the share of the run a spell covers more than a mean
    does.  ``setup_s`` is the median set-up."""
    ops = [op for op in ops if not op.probe]
    wall = sum(op.wall_s for op in ops)
    return {
        "setup_s": (_median(setup_s), "s"),
        "wall_s": (wall / len(ops), "s"),
        "sim_minstr_per_s": (sum(op.instret for op in ops) / wall / 1e6,
                             "Minstr/s"),
        "cold_mean_ms": (_mean(cold_ms), "ms"),
        "warm_mean_ms": (_mean(warm_ms), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(ops, untraced, spans: Dict[str, dict]):
    """Per-layer metrics over the traced *ops*, and the same layers in
    seconds (``_s``) and counts per operation."""
    from layers import add_counts
    totals: Dict[str, dict] = {k: dict(v) for k, v in spans.items()}
    covered = sum(v for k, v in spans.get("self_s", {}).items()
                  if k != GLUE_SPAN)
    traced_wall = 0.0
    counts: dict = {}
    for op in ops:
        child = op.child or {}
        if "spans" in child:
            # The root span only waited for the child process; what is
            # left once the child's own time is taken out is glue.
            add_counts(totals, child["spans"])
            add_counts(totals, {"self_s": {
                GLUE_SPAN: -child["traced_wall_s"]}})
            covered += sum(child["spans"]["self_s"].values())
            traced_wall += child["traced_wall_s"]
        else:
            traced_wall += op.traced_s
        if "shards" in child:
            add_counts(totals, {k: child["shards"][k]
                                for k in ("self_s", "total_s", "calls")})
            add_counts(counts, child["shards"]["counts"])
        add_counts(counts, _numeric(op.counts, nested=False))
    n = len(ops)
    per_op: Dict[str, float] = {}
    for name, (aggregate, *spans_of) in SPAN_METRICS.items():
        per_op[name] = sum(totals.get(aggregate, {}).get(s, 0)
                           for s in spans_of) / n
    for name in RESULT_METRICS:
        per_op[name] = sum(op.layer.get(name, 0) for op in ops) / n
    for name, key in COUNT_METRICS.items():
        per_op[name] = counts.get(key, 0) / n
    per_op["avr.instret"] = sum(op.instret for op in ops) / n
    # Times are printed as shares of the traced wall time: a layer the
    # workload never enters reads 0 there, and a share is not a time.
    wall_per_op = traced_wall / n
    out = {}
    for name, value in per_op.items():
        if name.endswith("_s"):
            out[name[:-2] + "_pct"] = (100 * value / wall_per_op, "%")
        else:
            out[name] = (value, "count/op")
    hits, compiled = counts.get("trace_cache_hits", 0), \
        counts.get("traces_compiled", 0)
    out["jit.cache_hit_ratio"] = (
        hits / (hits + compiled) if hits + compiled else 0.0, "ratio")
    store_hits = sum(op.layer.get("pipeline.store_hits", 0) for op in ops)
    store_misses = sum(op.layer.get("pipeline.store_misses", 0)
                       for op in ops)
    out["pipeline.store_hit_ratio"] = (
        store_hits / (store_hits + store_misses)
        if store_hits + store_misses else 0.0, "ratio")
    out["trace.coverage"] = (covered / traced_wall, "ratio")
    untraced = [op for op in untraced if not op.probe]
    common = min(n, len(untraced))
    out["trace.overhead"] = (
        sum(op.wall_s for op in ops[:common])
        / sum(op.wall_s for op in untraced[:common]), "ratio")
    return out, per_op


def check(workload, ops) -> float:
    """Compare every operation's result with the workload's reference
    for its input; returns the seconds the references took."""
    t0 = time.perf_counter()
    expected = {}
    for key in {op.key for op in ops if op.key is not None}:
        try:
            expected[key] = workload.reference(key)
        except Exception as exc:  # noqa: BLE001 - the program failed
            expected[key] = exc
    for op in ops:
        if op.key is None:
            continue
        want = expected[op.key]
        if isinstance(want, Exception):
            op.errors.append(f"input {op.key!r}: reference raised "
                             f"{type(want).__name__}: {want}")
        elif op.result != want:
            op.errors.append(f"input {op.key!r}: result {op.result!r} != "
                             f"reference {want!r}")
    return time.perf_counter() - t0


def measure(args, workdir: Path) -> dict:
    from layers import Census, Recorder, install_census, install_spans
    from workloads import WORKLOADS
    census = Census()
    install_census(census)
    workload = WORKLOADS[args.workload](args.seed, workdir, census)
    traced, recorder = [], None
    try:
        setup_s, setup_ops, ops = [], [], []
        seconds = args.seconds / 2 if args.trace else args.seconds
        timed = 0.0
        for done in range(1, ROUNDS + 1):
            t0 = time.perf_counter()
            try:
                setup_ops.extend(workload.setup())
            except Exception as exc:  # noqa: BLE001 - the program failed
                setup_ops.append(_failed(exc, t0))
            t1 = time.perf_counter()
            setup_s.append(t1 - t0)
            # A round that stopped short of its share leaves the rest
            # to the next, so long operations do not shorten the run.
            ops.extend(_timed_loop(workload,
                                   seconds * done / ROUNDS - timed,
                                   start=len(ops)))
            timed += time.perf_counter() - t1
        if args.trace:
            recorder = Recorder()
            install_spans(recorder, census)
            workload.tracing = True
            recorder.reset()
            # Same inputs as the untraced half, so the two compare.
            traced = _timed_loop(workload, seconds, min_ops=MIN_OPS,
                                 recorder=recorder)
            workload.tracing = False
    finally:
        workload.close()
    # Metrics come from whole input cycles, latency samples from those
    # and the set-ups.
    whole = ops[:len(ops) - len(ops) % workload.cycle] or ops
    cold_ms = [s for op in setup_ops + whole for s in op.cold_ms]
    warm_ms = [s for op in setup_ops + whole for s in op.warm_ms]
    if args.trace:
        spans = recorder.snapshot()
        metrics, layers_per_op = per_layer(traced, ops, spans)
    else:
        metrics = end_to_end(setup_s, whole, cold_ms, warm_ms)
    checked = setup_ops + ops + traced
    reference_s = check(workload, checked)
    failed = [op for op in checked if not op.ok]
    record = {
        "schema": "perfbench/1",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": _host(), "tier_flags": workload.flags(),
        "inputs": workload.inputs(),
        "setup_s_samples": setup_s, "reference_s": reference_s,
        "operations": {"setup": len(setup_ops), "timed": len(ops),
                       "probes": sum(op.probe for op in ops),
                       "traced": len(traced)},
        "samples": {"cold": len(cold_ms), "warm": len(warm_ms)},
        "latency_ms": {kind: {"p50": _median(samples),
                              "p90": _percentile(samples, 0.9)}
                       for kind, samples in (("cold", cold_ms),
                                             ("warm", warm_ms))},
        "op_wall_s": [op.wall_s for op in ops],
        "attempted": len(checked), "failed": len(failed),
        "error_rate": len(failed) / len(checked),
        "errors": ["; ".join(op.errors) for op in failed[:10]],
        "simulated": _sum_counts(checked),
        # Every operation on one input must give the same result, so one
        # per input records the exact simulated outcome.
        "results": {repr(op.key): op.result for op in checked},
    }
    if args.trace:
        record["layers_per_op"] = layers_per_op
        record["spans"] = spans
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write_log(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    listed = json.loads(BENCHMARK_JSON.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]][0],
                                     "unit": metrics[m["name"]][1]}
                         for m in listed}
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ.pop("SENSMART_TRACE_STORE", None)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test "
              f"from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from layers import WORKDIR_ENV
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ[WORKDIR_ENV] = str(workdir)
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"record-{args.workload}-seed{args.seed}-"
               f"trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
