"""The workloads: set-up, timed operation, reference and check.

A workload object is built from the seed.  ``run.py`` calls
:meth:`Workload.setup` at the start of every round (timing each), then
:meth:`Workload.op` in a loop until the round's time is spent; the
operation index runs on across rounds.  After the
measurement it asks :meth:`Workload.reference` for the expected result
of every input key the operations used, and fails each operation whose
``result`` differs.  References are computed after the timed part so
that their cost and memory never show in the metrics.

Operations are classed *cold* (the process sees these inputs for the
first time: empty JIT, image and artifact caches) or *warm* (the
inputs were seen before in this process); an operation carries latency
samples for its class.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Hashable, List, Optional

import gen
from layers import WORKDIR_ENV, collect_shards, kernel_counts

HERE = Path(__file__).resolve().parent
PAPER_REFERENCE = HERE / "paper_reference.json"

#: Wall-clock limit of one child process.
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One checked operation."""
    wall_s: float               # host seconds, as the user waits
    cold_ms: List[float] = field(default_factory=list)  # latency samples
    warm_ms: List[float] = field(default_factory=list)  # by class
    instret: int = 0            # simulated instructions retired
    #: Input key and program output compared with the reference.
    key: Optional[Hashable] = None
    result: object = None
    errors: List[str] = field(default_factory=list)
    #: Exact simulated statistics of the operation.
    counts: Dict[str, object] = field(default_factory=dict)
    #: Per-layer values that come from the program's own results.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Traced child processes: their span totals and traced wall time.
    child: Optional[dict] = None
    #: Duration of the operation's root span (traced runs only).
    traced_s: float = 0.0
    #: A cold-latency probe among warm operations: checked and sampled
    #: in ``cold_ms``, but left out of ``wall_s``, ``sim_minstr_per_s``
    #: and ``trace.overhead``.
    probe: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors


def config_flags(config) -> Dict[str, object]:
    """The tier flags of a KernelConfig, recorded with every result."""
    return {name: getattr(config, name)
            for name in ("fuse", "specialize", "trace", "elide",
                         "lint_on_link", "time_slice_cycles")}


def state_digest(node) -> str:
    """Digest of a node's final state: instret, cycles, SRAM,
    relocations, context switches and trap counts by kind."""
    stats = node.kernel.stats
    traps = sorted((kind.name, count)
                   for kind, count in stats.trap_counts.items())
    blob = json.dumps([node.cpu.instret, node.cpu.cycles,
                       stats.relocations, stats.context_switches, traps,
                       bytes(node.cpu.mem.data).hex()])
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def fleet_fields(result) -> dict:
    """The FleetResult fields the benchmark checks and reports."""
    busy = result.busy_s or [0.0]
    return {"digest": result.digest, "rounds": result.rounds,
            "nodes": result.nodes, "finished_nodes": result.finished_nodes,
            "total_instret": result.total_instret,
            "max_node_cycles": result.max_node_cycles,
            "delivered": result.delivered, "dropped": result.dropped,
            "corrupted": result.corrupted, "duplicated": result.duplicated,
            "cross_bytes": result.cross_bytes,
            "compiled_per_shard": result.compiled_per_shard,
            "prime_s": result.prime_s, "wall_s": result.wall_s,
            "busy_max_s": max(busy), "busy_min_s": min(busy),
            "critical_path_s": result.critical_path_s}


def run_child(request: dict) -> dict:
    """Run ``child.py`` on *request* and return its JSON reply."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {request['mode']} failed "
                           f"({proc.returncode}):\n"
                           f"{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


class Workload:
    name = ""
    #: Operations per repetition of the input pattern: whole cycles are
    #: a fixed input size, so ``wall_s`` is taken over whole cycles.
    cycle = 1

    def __init__(self, seed: int, workdir: Path, census):
        self.seed = seed
        self.workdir = workdir
        self.census = census
        #: True while run.py measures the traced half of a run.
        self.tracing = False

    def setup(self) -> List[Op]:
        """Prepare everything the timed operations need; returns the
        cold operations it ran on the way."""
        return []

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def reference(self, key: Hashable) -> object:
        """The expected ``Op.result`` for input *key*."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def inputs(self) -> dict:
        """What the seed drew, for the record."""
        return {}

    def flags(self) -> Dict[str, object]:
        from repro.kernel import KernelConfig
        return config_flags(KernelConfig())


# -- paper_sweep --------------------------------------------------------------------

class PaperSweep(Workload):
    """Figure 7/8 points, each in a fresh process with empty caches."""

    name = "paper_sweep"
    cycle = len(gen.PAPER_STRATA)

    def __init__(self, *args):
        super().__init__(*args)
        self.points = gen.paper_points(self.seed, 64)

    def setup(self) -> List[Op]:
        """Start a fresh interpreter that imports the sweep code."""
        run_child({"mode": "ping"})
        return []

    def op(self, index: int) -> Op:
        point = self.points[index % len(self.points)]
        t0 = time.perf_counter()
        reply = run_child({"mode": "sweep", "points": [point],
                           "trace": self.tracing})
        wall = time.perf_counter() - t0
        entry = reply["points"][0]
        cold, warm = entry["cold"], entry["warm"]
        # The warm recomputation must print the same rows as the cold.
        rows = [cold["fig7_row"], cold["fig8_row"]]
        errors = [] if [warm["fig7_row"], warm["fig8_row"]] == rows else \
            [f"warm rows {warm['fig7_row']} {warm['fig8_row']} != cold"]
        return Op(wall_s=wall,
                  cold_ms=[(cold["fig7_s"] + cold["fig8_s"]) * 1e3],
                  warm_ms=[(warm["fig7_s"] + warm["fig8_s"]) * 1e3],
                  instret=reply["counts"].get("instret", 0),
                  key=tuple(point), result=rows, errors=errors,
                  counts=reply["counts"], child=reply)

    def reference(self, key) -> object:
        """The pinned rows ``make_reference.py`` wrote."""
        if not hasattr(self, "table"):
            self.table = json.loads(PAPER_REFERENCE.read_text())["rows"]
        nodes, cap7, cap8 = key
        return [self.table[f"fig7:{nodes}:{cap7}"],
                self.table[f"fig8:{nodes}:{cap8}"]]

    def inputs(self) -> dict:
        return {"points": self.points[:16]}

    def flags(self) -> Dict[str, object]:
        from repro.kernel import KernelConfig
        return config_flags(KernelConfig(time_slice_cycles=20_000))


# -- steady_node --------------------------------------------------------------------

class SteadyNode(Workload):
    """A warm multi-task node: guest execution and the kernel slow path.

    Every operation boots the same pre-linked image on the JIT cache the
    set-up filled and runs it to completion, so it compiles nothing.
    Untraced runs also make every ``COLD_EVERY``-th operation a cold
    probe on a fresh JIT cache, so cold samples spread over the run."""

    name = "steady_node"
    MAX_INSTRUCTIONS = 50_000_000
    COLD_EVERY = 4
    cycle = COLD_EVERY

    def __init__(self, *args):
        super().__init__(*args)
        from repro.kernel import KernelConfig
        self.config = KernelConfig(time_slice_cycles=20_000)
        self.sources = gen.steady_image(self.seed)

    def setup(self) -> List[Op]:
        """Link the image and run it once on a fresh JIT cache."""
        from repro.avr.cpu import SuperblockCache
        from repro.pipeline.pipeline import build_image
        self.cache = SuperblockCache()
        self.image = build_image(self.sources, lint=True, cache=False)
        return [self._run("cold", self.cache)]

    def op(self, index: int) -> Op:
        if not self.tracing and index % self.COLD_EVERY == \
                self.COLD_EVERY - 1:
            from repro.avr.cpu import SuperblockCache
            op = self._run("cold", SuperblockCache())
            op.probe = True
            return op
        return self._run("warm", self.cache)

    def _run(self, kind: str, cache) -> Op:
        from repro.kernel import SensorNode
        t0 = time.perf_counter()
        node = SensorNode.from_image(self.image, config=self.config,
                                     block_cache=cache)
        node.run(max_instructions=self.MAX_INSTRUCTIONS)
        wall = time.perf_counter() - t0
        counts = kernel_counts(self.census.take())
        errors = [f"task {task.name} ended: {task.exit_reason}"
                  for task in node.kernel.tasks.values()
                  if task.exit_reason != "exit"]
        return Op(wall_s=wall, **{f"{kind}_ms": [wall * 1e3]},
                  instret=counts["instret"], key="image",
                  result=state_digest(node), errors=errors, counts=counts)

    def reference(self, key) -> object:
        """The stepwise tier (no fusion, no JIT) on a fresh link."""
        from repro.kernel import SensorNode
        from repro.pipeline.pipeline import build_image
        stepwise = replace(self.config, fuse=False, specialize=False,
                           trace=False)
        node = SensorNode.from_image(
            build_image(self.sources, lint=True, cache=False),
            config=stepwise, block_cache=False)
        node.run(max_instructions=self.MAX_INSTRUCTIONS)
        self.census.take()
        return state_digest(node)

    def inputs(self) -> dict:
        return {"tasks": [name for name, _ in self.sources],
                "source_digest": hashlib.blake2b(
                    json.dumps(self.sources).encode(),
                    digest_size=8).hexdigest()}

    def flags(self) -> Dict[str, object]:
        return config_flags(self.config)


# -- fleet_flood --------------------------------------------------------------------

#: FleetResult fields that must equal the 1-shard run's.
FLEET_CHECKED = ("digest", "delivered", "dropped", "total_instret",
                 "finished_nodes")


class FleetFlood(Workload):
    """A 16x16 grid flood on two shards: cold in a fresh process and
    warm in this one, alternately."""

    name = "fleet_flood"
    cycle = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.params = gen.fleet_params(self.seed)

    def setup(self) -> List[Op]:
        """Build the scenario and prime this process's JIT caches."""
        from repro.fleet.sim import prime_caches
        self.spec = gen.fleet_spec(self.params)
        prime_caches(self.spec)
        self.census.take()
        return []

    def op(self, index: int) -> Op:
        reply = None
        t0 = time.perf_counter()
        if index % 2 == 0:
            reply = run_child({"mode": "fleet", "params": self.params,
                               "trace": self.tracing})
            fields, kind = reply["result"], "cold"
        else:
            from repro.fleet import FleetSim
            result = FleetSim(self.spec, shards=gen.FLEET_SHARDS).run()
            fields, kind = fleet_fields(result), "warm"
            self.census.take()
            if self.tracing:
                reply = {"shards": collect_shards(
                    Path(os.environ[WORKDIR_ENV]))}
        wall = time.perf_counter() - t0
        counts = {key: fields[key] for key in (
            "digest", "total_instret", "max_node_cycles", "delivered",
            "dropped", "corrupted", "duplicated", "cross_bytes", "rounds",
            "finished_nodes", "compiled_per_shard")}
        if reply is not None and "shards" in reply:
            counts["shards"] = reply["shards"]["counts"]
        layer = {
            "fleet.rounds": fields["rounds"],
            "fleet.prime_s": fields["prime_s"],
            "fleet.shard_busy_max_s": fields["busy_max_s"],
            "fleet.shard_busy_min_s": fields["busy_min_s"],
            "fleet.sync_wait_s": max(0.0, fields["wall_s"]
                                     - fields["prime_s"]
                                     - fields["busy_max_s"]),
            "fleet.critical_path_s": fields["critical_path_s"],
            "fleet.cross_bytes": fields["cross_bytes"],
            "net.delivered": fields["delivered"],
            "net.dropped": fields["dropped"],
        }
        return Op(wall_s=wall, **{f"{kind}_ms": [wall * 1e3]},
                  instret=fields["total_instret"], key="flood",
                  result={k: fields[k] for k in FLEET_CHECKED},
                  counts=counts, layer=layer, child=reply)

    def reference(self, key) -> object:
        """The same scenario on one shard, in this process."""
        from repro.fleet import FleetSim
        result = FleetSim(gen.fleet_spec(self.params), shards=1).run()
        self.census.take()
        fields = fleet_fields(result)
        return {k: fields[k] for k in FLEET_CHECKED}

    def inputs(self) -> dict:
        return {"grid": [gen.FLEET_ROWS, gen.FLEET_COLS],
                "workload": "flood", "count": gen.FLEET_COUNT,
                "shards": gen.FLEET_SHARDS, **self.params}


# -- serve_mix ----------------------------------------------------------------------

class ServeMix(Workload):
    """One closed-loop client against an in-process build server: every
    ``NEW_EVERY``-th request is a new bundle, the rest repeat bundles
    built since the last set-up, chosen at random.  New bundles take
    the kernel benchmarks in turn by request index, so every input
    cycle holds each once."""

    name = "serve_mix"
    #: The mix is a synthetic assumption: cold builds and warm repeats
    #: take equal host time, so neither the pipeline nor the store and
    #: dispatch layers dominate ``wall_s``.  Measured on a 2-core host
    #: with this benchmark (medians of ten seeds' 30 s runs): mean cold
    #: latency 106.5 ms, mean warm latency 0.445 ms, and
    #: 106.5 / 0.445 = 239, rounded to 240.
    NEW_EVERY = 240
    cycle = NEW_EVERY * len(gen.KERNEL_BENCHMARKS)

    def __init__(self, *args):
        super().__init__(*args)
        # The client, event-loop and build threads hand each request on
        # and never run Python in parallel, so one CPU serves them all.
        # Pinned there, a hand-off is not a cross-CPU wake-up, which on
        # a 2-vCPU VM took 0.1-0.3 ms and doubled the warm p50 and its
        # seed-to-seed spread.  Threads started later inherit the pin.
        # The CPU is the one this process runs on, so that two runs
        # started side by side do not share one CPU.
        allowed = os.sched_getaffinity(0)
        with open("/proc/self/stat") as stat:
            # Field 39, "processor": the CPU the process last ran on.
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})
        self.rng = random.Random(self.seed ^ 0x5E7E)
        self.bundles: Dict[int, list] = {}
        self.stack: Optional[contextlib.ExitStack] = None
        self.setups = 0
        #: New bundles drawn so far, and the bundle indices the current
        #: set-up's store holds.
        self.drawn = 0
        self.stored: List[int] = []

    def _bundle(self, index: int) -> list:
        if index not in self.bundles:
            self.bundles[index] = gen.serve_bundle(self.seed, index)
        return self.bundles[index]

    def setup(self) -> List[Op]:
        """Start a server on a fresh artifact store, connect, and build
        the first new bundle."""
        from repro.serve import ServeClient, serve_in_thread
        self.close()
        self.setups += 1
        store = self.workdir / f"store-{self.setups}"
        store.mkdir()
        self.stack = contextlib.ExitStack()
        self.server = self.stack.enter_context(
            serve_in_thread(store_path=str(store)))
        self.client = self.stack.enter_context(
            ServeClient(port=self.server.port))
        self.stored = []
        # Every set-up builds a bundle with the first kernel, so
        # set-ups cost the same.
        return [self._request(self._take_new(0), new=True)]

    def _take_new(self, kernel: int) -> int:
        """A bundle index not drawn before, with the *kernel*-th
        benchmark (``gen.serve_bundle`` takes them by index)."""
        self.stored.append(self.drawn * len(gen.KERNEL_BENCHMARKS) + kernel)
        self.drawn += 1
        return self.stored[-1]

    def op(self, index: int) -> Op:
        if (index + 1) % self.NEW_EVERY == 0:
            kernel = index // self.NEW_EVERY % len(gen.KERNEL_BENCHMARKS)
            return self._request(self._take_new(kernel), new=True)
        return self._request(self.rng.choice(self.stored), new=False)

    def _request(self, bundle: int, new: bool) -> Op:
        store = self.server.pipeline.store.stats
        before = (store.hits, store.misses, self.server.coalesced)
        programs = self._bundle(bundle)
        t0 = time.perf_counter()
        response = self.client.submit(
            programs,
            options={"max_instructions": gen.SERVE_MAX_INSTRUCTIONS})
        wall = time.perf_counter() - t0
        # Repeats build no kernel; keep their records small, since a run
        # holds tens of thousands of them.
        kernels = self.census.take()
        counts = kernel_counts(kernels) if kernels else {}
        digest, errors = None, []
        if not response.get("ok"):
            errors.append(f"bundle {bundle}: {response.get('error')}")
        else:
            verdict = response["verdict"]
            digest = verdict["simulation"]["trace_digest"]
            if verdict["cached"] is new:
                errors.append(f"bundle {bundle}: cached={verdict['cached']}"
                              f" on a {'new' if new else 'repeat'} request")
            if not verdict["simulation"]["finished"]:
                errors.append(f"bundle {bundle}: simulation unfinished")
        kind = "cold" if new else "warm"
        layer = {"pipeline.store_hits": store.hits - before[0],
                 "pipeline.store_misses": store.misses - before[1],
                 "serve.coalesced": self.server.coalesced - before[2]}
        return Op(wall_s=wall, **{f"{kind}_ms": [wall * 1e3]},
                  instret=counts.get("instret", 0), key=bundle,
                  result=digest, errors=errors, counts=counts,
                  layer={k: v for k, v in layer.items() if v})

    def reference(self, key) -> object:
        """An in-process ``Pipeline.submit`` on a store of its own."""
        from repro.pipeline import BuildRequest, Pipeline
        from repro.pipeline.store import ArtifactStore
        request = BuildRequest.from_payload({
            "programs": self._bundle(key),
            "options": {"max_instructions": gen.SERVE_MAX_INSTRUCTIONS}})
        verdict = Pipeline(store=ArtifactStore()).submit(request)
        self.census.take()
        return verdict["simulation"]["trace_digest"]

    def close(self) -> None:
        if self.stack is not None:
            with contextlib.suppress(OSError):
                self.client.shutdown()
            self.stack.close()
            self.stack = None

    def inputs(self) -> dict:
        return {"new_every": self.NEW_EVERY, "clients": 1,
                "max_instructions": gen.SERVE_MAX_INSTRUCTIONS,
                "bundles_drawn": len(self.bundles)}


WORKLOADS = {cls.name: cls for cls in (PaperSweep, SteadyNode, FleetFlood,
                                       ServeMix)}
