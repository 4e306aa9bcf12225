"""Certificate-driven guard elision: elide on vs off, full JIT tiers.

Two trap-heavy workloads run kernelized + fused + specialized + traced
with ``KernelConfig.elide`` on and off:

* ``TRAP_MIX`` — the same all-PatchKind loop ``BENCH_trapspec.json``
  measures: heap stores/loads through X, displacement stores through
  Y, pushes/pops and a call/return pair per iteration.  The dataflow
  engine certifies every memory access (X and Y are provably
  heap-resident constants) and both pops (depth provably >= 1), so
  the traced loop body runs with no bound guards at all.
* ``HEAP_STREAM`` — a denser variant that is almost nothing but
  certified heap traffic, measuring elision when guards are a smaller
  share of each trap's total cost.

Elision is a pure execution-speed knob: both modes must retire
bit-identical architectural state (registers aside, the differential
digest covers memory, SP, counters, trap tallies and kernel
accounting).  Every elided site carries an ElisionCertificate that
the independent lint checker re-proves at link time — the bench
asserts the elisions actually engaged.  Measured rates land in
``BENCH_dataflow.json`` at the repo root.
"""

import json
from pathlib import Path

from repro.kernel import SensorNode, state_digest

RESULTS_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_dataflow.json"

# Same source as benchmarks/bench_trapspec.py TRAP_MIX, so the
# guarded baseline here is directly comparable to the specialized
# rate recorded in BENCH_trapspec.json.
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

HEAP_STREAM = """
    .bss buf, 64

main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ldi r28, lo8(buf)
    ldi r29, hi8(buf)
    ldi r20, 0x5a
    ldi r25, 200
outer:
    ldi r22, 200
inner:
    st X, r20
    ld r23, X
    std Y+1, r23
    ldd r24, Y+1
    std Y+3, r24
    ldd r23, Y+3
    st X, r23
    ld r20, X
    dec r22
    brne inner
    dec r25
    brne outer
    break
"""

WORKLOADS = {"trap_mix": TRAP_MIX, "heap_stream": HEAP_STREAM}


def _record(key: str, rate: float) -> None:
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = round(rate)
    RESULTS_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run(workload: str, elide: bool):
    def run():
        node = SensorNode.from_sources(
            [(workload, WORKLOADS[workload])], elide=elide,
            block_cache=False)
        node.run(max_instructions=10_000_000)
        assert node.finished
        if elide:
            assert node.kernel.elisions, \
                "no validated elision certificates engaged"
        return node

    return run


def _identical(workload: str) -> None:
    assert state_digest(_run(workload, True)()) == \
        state_digest(_run(workload, False)())


def _rate(benchmark, run, rounds: int = 3) -> float:
    # One warmup round absorbs the one-time costs that are not what
    # this bench measures: linking (image cache), the dataflow
    # fixpoint + certificate verification (memoized on the image),
    # and trace compilation of the hot loop.
    node = benchmark.pedantic(run, rounds=rounds, iterations=1,
                              warmup_rounds=1)
    return node.cpu.instret / benchmark.stats["mean"]


def test_trap_mix_guarded(benchmark):
    rate = _rate(benchmark, _run("trap_mix", elide=False))
    print(f"\ntrap_mix, guarded: {rate / 1e6:.2f} M instr/s")
    _record("trap_mix_guarded", rate)


def test_trap_mix_elided(benchmark):
    rate = _rate(benchmark, _run("trap_mix", elide=True))
    print(f"\ntrap_mix, elided: {rate / 1e6:.2f} M instr/s")
    _record("trap_mix_elided", rate)
    _identical("trap_mix")


def test_heap_stream_guarded(benchmark):
    rate = _rate(benchmark, _run("heap_stream", elide=False))
    print(f"\nheap_stream, guarded: {rate / 1e6:.2f} M instr/s")
    _record("heap_stream_guarded", rate)


def test_heap_stream_elided(benchmark):
    rate = _rate(benchmark, _run("heap_stream", elide=True))
    print(f"\nheap_stream, elided: {rate / 1e6:.2f} M instr/s")
    _record("heap_stream_elided", rate)
    _identical("heap_stream")


def _quick() -> None:
    """CI smoke: one timed pass per configuration, no pytest plugin,
    no BENCH_dataflow.json update — prove both modes run, retire
    identical state, and the validated elisions actually engage."""
    import time
    for workload in WORKLOADS:
        rates = {}
        for elide in (True, False):
            run = _run(workload, elide)
            run()  # warm: link, dataflow fixpoint, cert verification
            started = time.perf_counter()
            node = run()
            elapsed = time.perf_counter() - started
            rates[elide] = node.cpu.instret / elapsed
            mode = "elided" if elide else "guarded"
            print(f"{workload}, {mode}: "
                  f"{rates[elide] / 1e6:.2f} M instr/s")
        _identical(workload)
    print("quick smoke OK")


if __name__ == "__main__":
    import sys
    if "--quick" in sys.argv:
        _quick()
    else:
        raise SystemExit(
            "run under pytest, or pass --quick for the CI smoke")
