"""Event-driven multi-node co-simulation over SensorNode radios.

The paper's setting is *networked* sensor applications; this module
wires several :class:`~repro.kernel.SensorNode` instances together
through lossy, delayed byte links — one node's TX log feeds another's
RX queue.

Timing model.  Every node's CPU is a :class:`~repro.sim.SimClock`; all
clocks share one epoch (cycle 0 = network start), so cycle counts are
directly comparable across nodes.  A byte transmitted at cycle ``T``
over a link with latency ``L`` arrives at exactly ``T + L`` — the ferry
buffers the byte in the *receiver's* arrival inbox and schedules a
drain event at that due cycle, so arrival lands with cycle precision no
matter how coarsely the nodes are interleaved, and a byte is never
delivered early.

Arrival order is canonical: the inbox is a min-heap keyed by
``(due_cycle, link order, byte index, copy)``, so two bytes landing at
the same cycle from different links always enter the RX queue in link
registration order — independent of *when* the ferry happened to see
them.  That invariance is what lets the fleet sharding layer
(:mod:`repro.fleet`) split a network across worker processes and still
produce bit-identical results for every shard count.

Scheduling is conservative event-driven co-simulation: each step picks
the node that is furthest behind in simulated time — a lazy min-heap
keyed by node cycle count, so a pick is O(log N) instead of the old
O(N) scan — and runs it to its *horizon* — the earliest cycle at which
any other node could still affect it.  A sender that is idle (sleeping
or kernel-parked) cannot transmit before its own next event, so the
horizon over a link is ``earliest-possible-TX + latency``; idle-heavy
topologies therefore advance in strides of whole sleep periods instead
of fixed quanta, and sleeping nodes skip time instead of spinning.
After a node runs, only *its* outbound links are ferried — the other
nodes' TX logs cannot have changed.

For sharded co-simulation the same loop honors per-node *external
bounds* (:attr:`Network.ext_bounds`): a shard worker caps each of its
nodes at the earliest cycle a remote shard could still influence it and
parks the node there until the next cross-shard bulletin raises the
bound.

The pre-heap O(N)-scan scheduler survives as :meth:`Network.run_scan`
and the pre-refactor fixed-quantum scheduler as
:meth:`Network.run_lockstep` — both are correctness/wall-clock
baselines for tests and ``benchmarks/bench_network.py`` (delivery is
inbox-scheduled in all modes, so the baselines are merely slower, not
differently-timed).

Loss is deterministic, driven by a per-link LFSR, so network runs
reproduce exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from ..kernel.node import SensorNode
from ..sim.events import INFINITY

DEFAULT_QUANTUM_CYCLES = 10_000


@dataclass
class Link:
    """A unidirectional byte link between two nodes' radios.

    Besides deterministic loss, a link can corrupt bytes (one bit
    XORed per hit) and duplicate bytes (delivered twice at the same
    arrival cycle).  Each fault kind draws from its *own* 16-bit LFSR
    stream, so enabling corruption or duplication never perturbs which
    bytes the loss stream drops — campaigns can dial one knob at a
    time.  Truncated packets need no separate stream in a byte-link
    model: a run of tail bytes eaten by the loss stream *is* a
    truncation.

    Loss decisions are taken per byte, in ferry order — the order the
    sender clocked the bytes out — identically under the event-driven
    and lockstep schedulers (pinned by a regression test).

    ``order`` is the link's tie-break rank for same-cycle arrivals at a
    shared receiver; :meth:`Network.add_link` assigns registration
    order, and the fleet layer assigns global topology order so the
    rank survives partitioning.
    """

    source: str
    destination: str
    latency_cycles: int = 2_000
    loss_permille: int = 0      # deterministic loss rate, 0..1000
    corrupt_permille: int = 0   # deterministic bit-flip rate, 0..1000
    dup_permille: int = 0       # deterministic duplication rate, 0..1000
    order: Optional[int] = None  # same-cycle arrival tie-break rank
    _tx_cursor: int = 0
    _lfsr: int = 0xB5AD         # loss stream
    _corrupt_lfsr: int = 0x9C41  # corruption stream (independent)
    _dup_lfsr: int = 0x5ED1      # duplication stream (independent)
    delivered: int = 0
    dropped: int = 0
    corrupted: int = 0
    duplicated: int = 0
    #: Ferry-order index (0-based, counting every byte the sender
    #: clocked out on this link) of each dropped byte.
    drop_positions: List[int] = field(default_factory=list)
    _byte_index: int = 0
    #: Bytes the sender's bounded TX ring evicted before the ferry
    #: read them (stays 0 as long as ferrying keeps up with the ring).
    log_missed: int = 0
    #: Receiver-clock cycle at which each delivered byte arrived
    #: (always the sender's TX cycle plus ``latency_cycles``).
    arrival_cycles: List[int] = field(default_factory=list)

    @staticmethod
    def _step_lfsr(state: int) -> int:
        bit = ((state >> 0) ^ (state >> 2) ^ (state >> 3)
               ^ (state >> 5)) & 1
        return ((state >> 1) | (bit << 15)) & 0xFFFF

    def _lose(self) -> bool:
        if self.loss_permille <= 0:
            return False
        self._lfsr = self._step_lfsr(self._lfsr)
        return (self._lfsr % 1000) < self.loss_permille

    def _corrupt(self, value: int) -> int:
        """One deterministic bit flip when the corruption stream hits."""
        if self.corrupt_permille <= 0:
            return value
        self._corrupt_lfsr = self._step_lfsr(self._corrupt_lfsr)
        if (self._corrupt_lfsr % 1000) >= self.corrupt_permille:
            return value
        self._corrupt_lfsr = self._step_lfsr(self._corrupt_lfsr)
        self.corrupted += 1
        return value ^ (1 << (self._corrupt_lfsr % 8))

    def _duplicate(self) -> bool:
        if self.dup_permille <= 0:
            return False
        self._dup_lfsr = self._step_lfsr(self._dup_lfsr)
        if (self._dup_lfsr % 1000) >= self.dup_permille:
            return False
        self.duplicated += 1
        return True


class _Inbox:
    """Canonically ordered pending arrivals for one receiver node.

    Entries are ``(due, link_order, byte_index, copy, value, link)``;
    the first four fields are unique per entry, so heap order never
    compares ``value`` or ``link``.  ``armed`` tracks due cycles that
    already have a drain event scheduled on the receiver's queue.
    """

    __slots__ = ("heap", "armed")

    def __init__(self):
        self.heap: List[Tuple] = []
        self.armed: Set[int] = set()


class Network:
    """Co-simulates several nodes and ferries radio bytes cycle-exactly.

    ``quantum_cycles`` only parameterizes the legacy
    :meth:`run_lockstep` baseline; the event-driven :meth:`run` derives
    its strides from link latencies and node event queues.
    """

    def __init__(self, quantum_cycles: int = DEFAULT_QUANTUM_CYCLES):
        self.quantum_cycles = quantum_cycles
        self.nodes: Dict[str, SensorNode] = {}
        self.links: List[Link] = []
        self._link_index: Dict[Tuple[str, str], Link] = {}
        self._inbound: Dict[str, List[Link]] = {}
        self._outbound: Dict[str, List[Link]] = {}
        self._names: Dict[int, str] = {}  # id(node) -> name, O(1) reverse
        self._inboxes: Dict[str, _Inbox] = {}
        #: Per-node conservative caps set by a fleet shard worker: the
        #: earliest cycle a *remote* shard could still influence the
        #: node.  A bounded node parks at its cap instead of running to
        #: ``max_cycles``; raising the cap (next bulletin round) lets
        #: the next :meth:`run` call continue it.  Empty outside fleet
        #: use.
        self.ext_bounds: Dict[str, int] = {}

    # -- topology ---------------------------------------------------------------

    def add_node(self, name: str, node: SensorNode) -> SensorNode:
        if name in self.nodes:
            raise ReproError(f"duplicate node name {name!r}")
        self.nodes[name] = node
        self._names[id(node)] = name
        node.net_name = name  # stamped for O(1) reverse lookup/debugging
        return node

    def add_link(self, link: Link) -> Link:
        """Register *link*, maintaining the (source, destination) index."""
        for name in (link.source, link.destination):
            if name not in self.nodes:
                raise ReproError(f"unknown node {name!r}")
        if link.latency_cycles < 0:
            raise ReproError(
                f"negative link latency {link.latency_cycles} on "
                f"{link.source!r} -> {link.destination!r}")
        key = (link.source, link.destination)
        if key in self._link_index:
            raise ReproError(
                f"duplicate link {link.source!r} -> {link.destination!r}")
        if link.order is None:
            link.order = len(self.links)
        self.links.append(link)
        self._link_index[key] = link
        self._inbound.setdefault(link.destination, []).append(link)
        self._outbound.setdefault(link.source, []).append(link)
        return link

    def connect(self, source: str, destination: str,
                latency_cycles: int = 2_000,
                loss_permille: int = 0,
                corrupt_permille: int = 0,
                dup_permille: int = 0,
                bidirectional: bool = False) -> None:
        self.add_link(Link(source=source, destination=destination,
                           latency_cycles=latency_cycles,
                           loss_permille=loss_permille,
                           corrupt_permille=corrupt_permille,
                           dup_permille=dup_permille))
        if bidirectional:
            self.add_link(Link(source=destination, destination=source,
                               latency_cycles=latency_cycles,
                               loss_permille=loss_permille,
                               corrupt_permille=corrupt_permille,
                               dup_permille=dup_permille))

    # -- execution -----------------------------------------------------------------

    def run(self, max_cycles: int = 100_000_000) -> None:
        """Event-driven co-simulation: always advance the lagging node.

        The unfinished nodes sit in a lazy min-heap keyed by cycle
        count.  Each iteration pops the lagging node, runs it to the
        earliest cycle at which any inbound sender could still reach it
        (its horizon, capped by :attr:`ext_bounds` when a fleet shard
        set one), ferries the links *it* feeds, and pushes it back.
        Because the popped node trails every sender, its horizon always
        lies ahead of it, so every iteration makes progress until all
        nodes finish, park at an external bound, or exhaust
        *max_cycles*.
        """
        self._ferry()
        bounds = self.ext_bounds
        heap: List[Tuple[int, int, str]] = []
        for index, (name, node) in enumerate(self.nodes.items()):
            if not node.finished:
                heap.append((node.cpu.cycles, index, name))
        heapq.heapify(heap)
        while heap:
            cycles0, index, name = heapq.heappop(heap)
            node = self.nodes[name]
            if node.finished:
                continue
            actual = node.cpu.cycles
            limit = min(max_cycles, bounds.get(name, max_cycles))
            if actual >= limit:
                continue  # parked at an external bound (or budget)
            if actual != cycles0:  # stale entry (drift, reboot): rekey
                heapq.heappush(heap, (actual, index, name))
                continue
            horizon = self._horizon(name, node, limit)
            if horizon <= actual:
                # An inbound sender pinned at an external bound (or
                # behind us and parked) caps our horizon at or before
                # our own cycle: we cannot safely advance.  Park; the
                # next bulletin round raises the bound.  The *globally*
                # lagging node never lands here (every sender is at or
                # ahead of it and latencies are >= 1), so rounds always
                # progress.  Without external bounds the legacy floor
                # keeps zero-latency topologies live.
                if bounds:
                    continue
                horizon = actual + 1
            node.run(max_cycles=horizon)
            if node.cpu.cycles <= actual and not node.finished:
                raise ReproError(
                    "network made no progress (node stuck at cycle "
                    f"{actual})")
            self._ferry_from(name)
            if not node.finished:
                heapq.heappush(heap, (node.cpu.cycles, index, name))

    def _horizon(self, name: str, node: SensorNode, limit: int) -> int:
        """Earliest cycle another node could still influence *node*.

        In-flight bytes are already drain events on the node's own
        queue, so only *future* transmissions matter: a sender cannot
        put a byte on the air before it next executes an instruction,
        which for an idle (sleeping/parked) sender is its own next
        event.  Remote shards are accounted separately through *limit*
        (= ``min(max_cycles, ext_bounds[name])``).
        """
        horizon = limit
        for link in self._inbound.get(name, ()):
            src = self.nodes[link.source]
            tx = self._earliest_tx(src)
            if tx == INFINITY:
                continue
            horizon = min(horizon, int(tx) + link.latency_cycles)
        return horizon

    @staticmethod
    def _earliest_tx(src: SensorNode) -> float:
        if src.finished:
            return INFINITY
        cpu = src.cpu
        if cpu.sleeping:
            return max(cpu.cycles, cpu.events.next_due)
        return cpu.cycles

    def _name_of(self, node: SensorNode) -> str:
        try:
            return self._names[id(node)]
        except KeyError:
            raise ReproError("node not registered") from None

    def run_scan(self, max_cycles: int = 100_000_000) -> None:
        """Pre-heap reference scheduler: O(N) lagging-node scan.

        Kept as the correctness baseline the heap-based :meth:`run` is
        differentially tested against (and for A/B benchmarking).
        Ignores :attr:`ext_bounds`.
        """
        while True:
            self._ferry()
            lagging: Optional[SensorNode] = None
            for node in self.nodes.values():
                if node.finished or node.cpu.cycles >= max_cycles:
                    continue
                if lagging is None or node.cpu.cycles < lagging.cpu.cycles:
                    lagging = node
            if lagging is None:
                return
            name = self._name_of(lagging)
            before = lagging.cpu.cycles
            horizon = max(self._horizon(name, lagging, max_cycles),
                          before + 1)
            lagging.run(max_cycles=horizon)
            if lagging.cpu.cycles <= before and not lagging.finished:
                raise ReproError(
                    "network made no progress (node stuck at cycle "
                    f"{before})")

    def run_lockstep(self, max_cycles: int = 100_000_000,
                     until_all_finished: bool = True) -> None:
        """Fixed-quantum lockstep baseline (pre-refactor scheduler).

        Advances every node ``quantum_cycles`` per pass and ferries
        between passes.  Byte arrivals are still inbox-scheduled on the
        receivers' queues, so delivery is never early — but an idle
        node is visited once per quantum, which is exactly the overhead
        the event-driven :meth:`run` eliminates.  *until_all_finished*
        ``False`` stops as soon as a pass makes no progress even if
        nodes are alive.
        """
        while True:
            active = [n for n in self.nodes.values() if not n.finished]
            if until_all_finished and not active:
                return
            if all(n.finished or n.cpu.cycles >= max_cycles
                   for n in self.nodes.values()):
                return  # everyone is done or out of budget
            progressed = False
            for node in self.nodes.values():
                if node.finished or node.cpu.cycles >= max_cycles:
                    continue
                target = min(node.cpu.cycles + self.quantum_cycles,
                             max_cycles)
                before = node.cpu.cycles
                node.run(max_cycles=target)
                if node.cpu.cycles > before or node.finished:
                    progressed = True
            self._ferry()
            if not progressed:
                return  # everyone is stuck (e.g. waiting on RX forever)

    # -- ferrying -------------------------------------------------------------------

    def _ferry(self) -> None:
        """Ferry freshly transmitted bytes on every link."""
        for link in self.links:
            self._ferry_link(link)

    def _ferry_from(self, name: str) -> None:
        """Ferry only the links *name* feeds (its TX log just changed)."""
        for link in self._outbound.get(name, ()):
            self._ferry_link(link)

    def _ferry_link(self, link: Link) -> None:
        radio = self.nodes[link.source].radio
        fresh, missed = radio.tx_since(link._tx_cursor)
        link.log_missed += missed
        link._tx_cursor = radio.tx_seq
        if fresh:
            self.ferry_entries(link, fresh)

    def ferry_entries(self, link: Link,
                      fresh: List[Tuple[int, int, int]]) -> None:
        """Run *fresh* ``(seq, value, tx_cycle)`` entries through
        *link*'s loss/corruption/duplication streams and buffer the
        survivors in the receiver's arrival inbox.

        This is the single delivery path for local links *and* for
        cross-shard links (where the fleet worker owning the receiver
        feeds entries shipped over a bulletin); per-byte stream draws
        happen in ferry order either way, so fault decisions are
        independent of partitioning.
        """
        for _, value, tx_cycle in fresh:
            index = link._byte_index
            link._byte_index += 1
            if link._lose():
                link.dropped += 1
                link.drop_positions.append(index)
                continue
            value = link._corrupt(value)
            copies = 2 if link._duplicate() else 1
            due = tx_cycle + link.latency_cycles
            for copy in range(copies):
                self._push_arrival(link, due, index, copy, value)

    def _push_arrival(self, link: Link, due: int, index: int,
                      copy: int, value: int) -> None:
        name = link.destination
        inbox = self._inboxes.get(name)
        if inbox is None:
            inbox = self._inboxes[name] = _Inbox()
        heapq.heappush(inbox.heap, (due, link.order, index, copy,
                                    value, link))
        if due not in inbox.armed:
            inbox.armed.add(due)
            self.nodes[name].cpu.events.schedule(
                due, lambda name=name, due=due: self._drain(name, due))

    def _drain(self, name: str, due: int) -> None:
        """Deliver every buffered arrival due by *due*, in canonical
        ``(due, link order, byte index)`` order."""
        inbox = self._inboxes[name]
        inbox.armed.discard(due)
        heap = inbox.heap
        radio = self.nodes[name].radio
        while heap and heap[0][0] <= due:
            entry_due, _, _, _, value, link = heapq.heappop(heap)
            radio.rx_queue.append(value)
            link.delivered += 1
            link.arrival_cycles.append(entry_due)

    def settle_inboxes(self) -> None:
        """Deliver every still-buffered arrival, in canonical order.

        Call once at end of simulation, before reading final state.
        A node that halts stops running its event queue, so a byte
        ferried near (or after) the halt may sit in the inbox with its
        drain event never firing — and *whether* it was still in
        flight at the halt depends on how coarsely the scheduler
        interleaved sender and receiver, which the fleet layer varies
        with shard count.  Physically the radio latches bytes whether
        or not the CPU still executes, so the deterministic rule is:
        every byte ferried by end of simulation lands in the RX queue,
        in ``(due, link order, byte index)`` order.  That makes final
        delivery counts and RX residue a pure function of the (shard-
        invariant) execution, not of scheduler interleaving.
        """
        for name, inbox in self._inboxes.items():
            heap = inbox.heap
            if not heap:
                continue
            radio = self.nodes[name].radio
            while heap:
                entry_due, _, _, _, value, link = heapq.heappop(heap)
                radio.rx_queue.append(value)
                link.delivered += 1
                link.arrival_cycles.append(entry_due)
            inbox.armed.clear()

    def reset_node_io(self, name: str) -> None:
        """Forget in-flight traffic after *name* cold-restarts.

        A reboot replaces the node's CPU — its event queue (with any
        armed drain events) and radio TX log die with it.  Pending
        inbox arrivals are therefore lost (exactly as scheduled
        deliveries died pre-inbox), and every link sourced at the node
        rewinds its TX cursor because the fresh radio restarts from
        sequence 0.
        """
        inbox = self._inboxes.get(name)
        if inbox is not None:
            inbox.heap.clear()
            inbox.armed.clear()
        for link in self._outbound.get(name, ()):
            link._tx_cursor = 0

    # -- inspection ------------------------------------------------------------------

    def link_between(self, source: str,
                     destination: str) -> Optional[Link]:
        return self._link_index.get((source, destination))

    def stats(self) -> List[Tuple[str, str, int, int]]:
        return [(link.source, link.destination, link.delivered,
                 link.dropped) for link in self.links]
