"""Seeded input generators for the benchmark workloads.

Everything the program under test receives is made here from the
workload seed: the same seed gives byte-identical inputs.  The seed
varies data (tree sizes, loop counts, tree keys, link
parameters, ADC seeds) but not the amount of work per operation, so a
run's metrics are comparable across seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.workloads.bintree import feeder_source, search_task_source
from repro.workloads.kernelbench import KERNEL_BENCHMARKS

Sources = List[Tuple[str, str]]

# -- paper_sweep ------------------------------------------------------------------

#: Tree-size strata of the Figure 7/8 sweep (the paper's x-axis, 10-60).
#: Operation ``i`` draws its size from stratum ``i mod 3`` (in a seeded
#: order), so any three consecutive operations span the whole axis.
PAPER_STRATA = ((10, 26), (27, 43), (44, 60))
PAPER_SIZES = range(10, 61)
#: Per-figure task caps; one operation computes Figure 7 at cap ``c``
#: and Figure 8 at cap ``PAPER_CAP_SUM - c``, so every operation tries
#: about the same number of task configurations.  Stratum ``k`` takes cap
#: ``PAPER_CAPS[k]``: a seed-drawn pairing changed the work of a cycle
#: of operations by up to 40%.
PAPER_CAPS = (2, 3, 4)
PAPER_CAP_SUM = 6


def paper_points(seed: int, count: int) -> List[Tuple[int, int, int]]:
    """``count`` sweep points ``(tree_nodes, fig7_cap, fig8_cap)``; the
    seed draws the tree sizes and the order of the strata."""
    rng = random.Random(seed)
    strata = list(enumerate(PAPER_STRATA))
    rng.shuffle(strata)
    points = []
    for index in range(count):
        k, (low, high) = strata[index % len(strata)]
        cap = PAPER_CAPS[k]
        points.append((rng.randint(low, high), cap, PAPER_CAP_SUM - cap))
    return points


# -- program shapes ----------------------------------------------------------------

#: Every second instruction is a rewritten backward branch: one long
#: stream of BRANCH_BACKWARD traps.
TRAP_LOOP = """
main:
    ldi r26, {lo}
    ldi r27, 0
    ldi r28, {outer}
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""

#: A loop body of rewritten memory accesses: heap X, displacement Y,
#: push/pop and a call/return pair, closed by a backward branch.
TRAP_MIX = """
    .bss buf, 96

main:
    ldi r26, lo8(buf + {offset})
    ldi r27, hi8(buf + {offset})
    ldi r28, lo8(buf)
    ldi r29, hi8(buf)
    ldi r20, {a}
    ldi r21, {b}
    ldi r25, {outer}
outer:
    ldi r22, 250
inner:
    st X, r20
    ld r23, X
    push r20
    push r21
    std Y+2, r23
    ldd r23, Y+2
    pop r21
    pop r20
    rcall helper
    dec r22
    brne inner
    dec r25
    brne outer
    break

helper:
    ret
"""

#: Per-benchmark parameter ranges for the kernel benchmarks (Table II),
#: scaled so each retires thousands to tens of thousands of
#: instructions, and narrow so the work barely depends on the draw.
KERNEL_PARAMS: Dict[str, Tuple[str, int, int]] = {
    "am": ("packets", 6, 7),
    "amplitude": ("samples", 56, 64),
    "crc": ("rounds", 14, 16),
    "eventchain": ("rounds", 28, 32),
    "lfsr": ("steps", 9000, 10000),
    "readadc": ("samples", 56, 64),
    "timer": ("ticks", 112, 128),
}


def trap_loop_source(rng: random.Random) -> str:
    return TRAP_LOOP.format(lo=rng.randrange(0, 256, 2), outer=2)


def trap_mix_source(rng: random.Random, outer: int) -> str:
    return TRAP_MIX.format(offset=rng.randrange(0, 64), a=rng.randrange(256),
                           b=rng.randrange(256), outer=outer)


def kernel_benchmark(rng: random.Random, name: str) -> Tuple[str, str]:
    """Table II benchmark *name* with a seed-drawn parameter."""
    param, low, high = KERNEL_PARAMS[name]
    return name, KERNEL_BENCHMARKS[name](**{param: rng.randint(low, high)})


# -- steady_node ---------------------------------------------------------------------

def steady_image(seed: int) -> Sources:
    """One multi-task node image holding every program shape.

    A Figure 7 style feeder plus two recursive search tasks (memory is
    tight, so stacks relocate), all seven Table II kernel benchmarks, a
    trap_loop and a trap_mix task, in a seeded order.  The seed draws
    tree keys, benchmark parameters and data, not the task set, so
    every seed does about the same work.
    """
    rng = random.Random(seed ^ 0x57EAD)
    sources: Sources = [("feeder", feeder_source(
        nodes_per_tree=48, trees=5, updates=30,
        seed=rng.randrange(1, 0x10000)))]
    for index in range(2):
        sources.append((f"search{index}", search_task_source(
            nodes=48, searches=12, seed=rng.randrange(1, 0x10000))))
    for name in sorted(KERNEL_BENCHMARKS):
        sources.append(kernel_benchmark(rng, name))
    sources.append(("trap_loop", trap_loop_source(rng)))
    sources.append(("trap_mix", trap_mix_source(rng, 40)))
    rng.shuffle(sources)
    return sources


# -- fleet_flood ---------------------------------------------------------------------

#: The flood scenario: a 16x16 grid, every node relaying a burst from
#: the corner source (``repro.fleet.workload``), on two shards.
FLEET_ROWS = FLEET_COLS = 16
FLEET_COUNT = 8
FLEET_SHARDS = 2


def fleet_params(seed: int) -> Dict[str, int]:
    """Seed-drawn link parameters and fleet (ADC) seed of the flood."""
    rng = random.Random(seed ^ 0xF1EE7)
    return {"latency_cycles": rng.randrange(1_900, 2_101),
            "loss_permille": rng.randint(0, 3),
            "topology_seed": rng.randrange(1, 1 << 16),
            "fleet_seed": rng.randrange(1, 1 << 20)}


def fleet_spec(params: Dict[str, int]):
    from repro.fleet import build_spec, grid
    topology = grid(FLEET_ROWS, FLEET_COLS,
                    latency_cycles=params["latency_cycles"],
                    loss_permille=params["loss_permille"],
                    seed=params["topology_seed"])
    return build_spec(topology, "flood", count=FLEET_COUNT,
                      seed=params["fleet_seed"])


# -- serve_mix -----------------------------------------------------------------------

#: Simulation budget of every served submission.
SERVE_MAX_INSTRUCTIONS = 2_000_000


def serve_bundle(seed: int, index: int) -> List[Dict[str, str]]:
    """The *index*-th distinct submission of the stream: a trap_mix task
    and a Table II kernel benchmark, both with seed-drawn constants.
    The benchmarks take turns in a fixed order, so any seven consecutive
    bundles hold each once and the first costs the same for every
    seed."""
    rng = random.Random((seed << 20) ^ (index * 0x9E3779B1) ^ 0x5E4E)
    names = sorted(KERNEL_BENCHMARKS)
    name, source = kernel_benchmark(rng, names[index % len(names)])
    return [{"name": "trap_mix", "source": trap_mix_source(rng, 4)},
            {"name": name, "source": source}]
