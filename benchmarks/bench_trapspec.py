"""Trap-specialization ablation: specialized vs generic trap dispatch.

Two trap-heavy workloads run kernelized+fused with the specialized tier
(``specialize=True, trace=False``: trap blocks compile as one-node
traces, nothing chains) on and off:

* ``TRAP_LOOP`` — the SPIN workload ``BENCH_interpreter.json``'s
  kernelized baseline was recorded on.  Every second retired
  instruction is a rewritten backward branch, so the run is one long
  stream of BRANCH_BACKWARD traps; the loop compiles into a single
  strip-mined one-node trace.
* ``TRAP_MIX`` — a loop whose body is almost entirely rewritten memory
  accesses: heap stores/loads through X, displacement stores through Y,
  pushes/pops and a call/return pair, closed by a backward branch.
  Exercises every specialized PatchKind per iteration.

Both modes must retire identical instruction counts and trap tallies —
specialization is a pure execution-speed knob.  Measured rates land in
``BENCH_trapspec.json`` at the repo root.
"""

import json
from pathlib import Path

from repro.kernel import SensorNode, state_digest

RESULTS_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_trapspec.json"

# Same source as benchmarks/bench_superblock.py SPIN: the recorded
# kernelized_fused baseline (1,361,466 instr/s at the time this bench
# was added) measures exactly this program with specialization off.
TRAP_LOOP = """
main:
    ldi r26, 0
    ldi r27, 0
    ldi r28, 8
outer:
inner:
    adiw r26, 1
    brne inner
    dec r28
    brne outer
    break
"""

TRAP_MIX = """
    .bss buf, 96

main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ldi r28, lo8(buf)
    ldi r29, hi8(buf)
    ldi r20, 0x11
    ldi r21, 0x22
    ldi r25, 250
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

WORKLOADS = {"trap_loop": TRAP_LOOP, "trap_mix": TRAP_MIX}


def _record(key: str, rate: float) -> None:
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = round(rate)
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run(workload: str, specialize: bool):
    def run():
        node = SensorNode.from_sources(
            [(workload, WORKLOADS[workload])], fuse=True,
            specialize=specialize, trace=False, block_cache=False)
        node.run(max_instructions=10_000_000)
        assert node.finished
        if specialize:
            assert node.kernel.specializer.stats.compiled > 0
        return node

    return run


def _identical(workload: str) -> None:
    assert state_digest(_run(workload, True)()) == \
        state_digest(_run(workload, False)())


def _rate(benchmark, run, rounds: int = 3) -> float:
    node = benchmark.pedantic(run, rounds=rounds, iterations=1)
    return node.cpu.instret / benchmark.stats["mean"]


def test_trap_loop_generic(benchmark):
    rate = _rate(benchmark, _run("trap_loop", specialize=False))
    print(f"\ntrap_loop, generic: {rate / 1e6:.2f} M instr/s")
    _record("trap_loop_generic", rate)


def test_trap_loop_specialized(benchmark):
    rate = _rate(benchmark, _run("trap_loop", specialize=True))
    print(f"\ntrap_loop, specialized: {rate / 1e6:.2f} M instr/s")
    _record("trap_loop_specialized", rate)
    _identical("trap_loop")


def test_trap_mix_generic(benchmark):
    rate = _rate(benchmark, _run("trap_mix", specialize=False))
    print(f"\ntrap_mix, generic: {rate / 1e6:.2f} M instr/s")
    _record("trap_mix_generic", rate)


def test_trap_mix_specialized(benchmark):
    rate = _rate(benchmark, _run("trap_mix", specialize=True))
    print(f"\ntrap_mix, specialized: {rate / 1e6:.2f} M instr/s")
    _record("trap_mix_specialized", rate)
    _identical("trap_mix")


def _quick() -> None:
    """CI smoke: one timed pass per configuration, no pytest plugin,
    no BENCH_trapspec.json update — prove both modes run, retire
    identical state, and the specializer actually engages."""
    import time
    for workload in WORKLOADS:
        rates = {}
        for specialize in (True, False):
            run = _run(workload, specialize)
            started = time.perf_counter()
            node = run()
            elapsed = time.perf_counter() - started
            rates[specialize] = node.cpu.instret / elapsed
            mode = "specialized" if specialize else "generic"
            print(f"{workload}, {mode}: "
                  f"{rates[specialize] / 1e6:.2f} M instr/s")
        _identical(workload)
    print("quick smoke OK")


if __name__ == "__main__":
    import sys
    if "--quick" in sys.argv:
        _quick()
    else:
        raise SystemExit(
            "run under pytest, or pass --quick for the CI smoke")
