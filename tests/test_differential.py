"""Differential fuzzing: SenSmart must be an invisible substrate.

Two generators drive this:

* random straight-line AVR programs (ALU + heap traffic) run both
  bare-metal and under the kernel; architectural state must match —
  the strongest form of the paper's "programs run on SenSmart without
  knowing" claim;
* random TinyC expressions are compiled and run, and the result is
  checked against Python's evaluation of the same expression.

Every generated program additionally runs in both execution modes —
superblock-fused and per-instruction — and the two must agree on all
architectural state, cycle for cycle.  A third generator adds block
terminators (branches, calls, stack, pointer and I/O traffic, skips,
SEI/CLI, runs longer than the block cap) and compares the two modes at
exact ``max_instructions`` stops as well as at the end.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.avr import AvrCpu, Flash, assemble
from repro.baselines.native import run_native
from repro.cc import compile_c_to_asm
from repro.kernel import SensorNode

# -- random assembly programs ---------------------------------------------------

_ALU_TEMPLATES = [
    "add r{a}, r{b}",
    "sub r{a}, r{b}",
    "adc r{a}, r{b}",
    "and r{a}, r{b}",
    "or r{a}, r{b}",
    "eor r{a}, r{b}",
    "mov r{a}, r{b}",
    "inc r{a}",
    "dec r{a}",
    "com r{a}",
    "neg r{a}",
    "swap r{a}",
    "lsr r{a}",
    "ror r{a}",
    "asr r{a}",
]

_regs = st.integers(16, 23)  # keep clear of pointers and immediates


@st.composite
def alu_program(draw):
    """A straight-line program: seed registers, ALU soup, heap spills."""
    lines = [".bss cells, 16", "main:"]
    for reg in range(16, 24):
        lines.append(f"    ldi r{reg}, {draw(st.integers(0, 255))}")
    count = draw(st.integers(5, 40))
    for index in range(count):
        template = draw(st.sampled_from(_ALU_TEMPLATES))
        line = template.format(a=draw(_regs), b=draw(_regs))
        lines.append("    " + line)
        if draw(st.booleans()):
            slot = draw(st.integers(0, 15))
            lines.append(f"    sts cells + {slot}, r{draw(_regs)}")
    # Read a few cells back so heap state feeds register state.
    for reg in (16, 17):
        slot = draw(st.integers(0, 15))
        lines.append(f"    lds r{reg}, cells + {slot}")
    lines.append("    break")
    return "\n".join(lines) + "\n"


def _alu_line(draw) -> str:
    template = draw(st.sampled_from(_ALU_TEMPLATES))
    return "    " + template.format(a=draw(_regs), b=draw(_regs))


def _alu_run(draw, low: int = 1, high: int = 4):
    return [_alu_line(draw) for _ in range(draw(st.integers(low, high)))]


_POINTERS = (("X", 26), ("Y", 28), ("Z", 30))


@st.composite
def control_program(draw):
    """ALU runs joined by block terminators: forward and backward jumps
    and branches, RCALL/RET, PUSH/POP, LD/ST/LDD/STD through X/Y/Z,
    OUT/IN on a scratch port, SEI/CLI, CPSE/SBRC skips, and straight
    runs longer than the default block cap.  Loops count down r24 from
    small constants, so every program halts."""
    lines = [".bss cells, 64", "main:"]
    for reg in range(16, 24):
        lines.append(f"    ldi r{reg}, {draw(st.integers(0, 255))}")
    subs = draw(st.integers(0, 2))
    for index in range(draw(st.integers(1, 8))):
        shape = draw(st.sampled_from(
            ["alu", "long", "fwd", "loop", "rjmp_loop", "call", "stack",
             "mem", "io", "irq", "skip"]))
        label = f"L{index}"
        if shape == "alu":
            lines += _alu_run(draw)
        elif shape == "long":
            lines += _alu_run(draw, 49, 60)
        elif shape == "fwd":
            lines.append(f"    rjmp {label}")
            lines += _alu_run(draw)
            lines.append(f"{label}:")
        elif shape == "loop":
            lines.append(f"    ldi r24, {draw(st.integers(1, 12))}")
            lines.append(f"{label}:")
            lines += _alu_run(draw)
            lines += ["    dec r24", f"    brne {label}"]
        elif shape == "rjmp_loop":
            lines.append(f"    ldi r24, {draw(st.integers(1, 12))}")
            lines.append(f"{label}:")
            lines += _alu_run(draw)
            lines += ["    dec r24", f"    breq {label}e",
                      f"    rjmp {label}", f"{label}e:"]
        elif shape == "call" and subs:
            lines.append(f"    rcall sub{draw(st.integers(0, subs - 1))}")
        elif shape == "stack":
            lines.append(f"    push r{draw(_regs)}")
            lines += _alu_run(draw, 0, 3)
            lines.append(f"    pop r{draw(_regs)}")
        elif shape == "mem":
            name, base = draw(st.sampled_from(_POINTERS))
            offset = draw(st.integers(8, 48))
            lines += [f"    ldi r{base}, lo8(cells + {offset})",
                      f"    ldi r{base + 1}, hi8(cells + {offset})"]
            for _ in range(draw(st.integers(1, 4))):
                mode = draw(st.sampled_from(["", "+", "-"]))
                ptr = f"-{name}" if mode == "-" else name + mode
                if draw(st.booleans()):
                    lines.append(f"    st {ptr}, r{draw(_regs)}")
                else:
                    lines.append(f"    ld r{draw(_regs)}, {ptr}")
            if name != "X":
                q = draw(st.integers(0, 7))
                lines += [f"    std {name}+{q}, r{draw(_regs)}",
                          f"    ldd r{draw(_regs)}, {name}+{q}"]
        elif shape == "io":
            lines += [f"    out 0x18, r{draw(_regs)}",
                      f"    in r{draw(_regs)}, 0x18"]
        elif shape == "irq":
            lines += ["    sei"] + _alu_run(draw, 0, 2) + ["    cli"]
        else:  # skips, over one- and two-word instructions
            if draw(st.booleans()):
                lines.append(f"    cpse r{draw(_regs)}, r{draw(_regs)}")
            else:
                lines.append(f"    sbrc r{draw(_regs)}, "
                             f"{draw(st.integers(0, 7))}")
            if draw(st.booleans()):
                lines.append(f"    sts cells + {draw(st.integers(0, 7))}, "
                             f"r{draw(_regs)}")
            else:
                lines.append(_alu_line(draw))
    lines.append("    break")
    for index in range(subs):
        lines.append(f"sub{index}:")
        lines += _alu_run(draw, 0, 3)
        lines.append("    ret")
    return "\n".join(lines) + "\n"


def _cpu_state(cpu: AvrCpu):
    return (bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp, cpu.cycles,
            cpu.instret, bytes(cpu.mem.data), cpu.halted)


@given(alu_program())
@settings(max_examples=60, deadline=None)
def test_sensmart_is_architecturally_invisible(source):
    program = assemble(source)
    flash = Flash()
    flash.load(0, program.words)
    native = AvrCpu(flash)
    native.run(max_instructions=100_000)
    assert native.halted

    node = SensorNode.from_sources([("fuzz", source)])
    kernel = node.kernel
    region = kernel.regions.by_task(0)
    node.run(max_instructions=1_000_000)
    assert node.finished

    # Register file identical (r0..r25: pointer regs unused here).
    assert bytes(native.r[:26]) == bytes(kernel.cpu.r[:26])
    # SREG flags identical (I may differ: the kernel does not fake it).
    assert native.sreg & 0x7F == kernel.cpu.sreg & 0x7F
    # Heap contents identical.
    assert native.mem.data[0x100:0x110] == \
        kernel.cpu.mem.data[region.p_l:region.p_l + 16]


def _bare_cpu(program, fuse: bool, max_block: int = 48) -> AvrCpu:
    flash = Flash()
    flash.load(0, program.words)
    return AvrCpu(flash, fuse=fuse, max_block=max_block)


@given(st.one_of(alu_program(), control_program()),
       st.sampled_from([4, 48]), st.data())
@settings(max_examples=80, deadline=None)
def test_superblock_fusion_is_observationally_identical(source, max_block,
                                                        data):
    """Fused and per-instruction execution agree on everything, at
    exact ``max_instructions`` stops mid-run (each run resuming where
    the last one stopped) and at the end."""
    program = assemble(source)
    reference = _bare_cpu(program, fuse=False)
    reference.run(max_instructions=100_000)
    assert reference.halted
    stops = sorted(data.draw(st.sets(st.integers(1, reference.instret),
                                     min_size=1, max_size=6),
                             label="stops"))
    runs = []
    for fuse in (True, False):
        cpu = _bare_cpu(program, fuse, max_block)
        states = []
        for stop in stops + [100_000]:
            cpu.run(max_instructions=stop)
            states.append(_cpu_state(cpu))
        runs.append(states)
    assert runs[0] == runs[1]
    assert runs[0][-1] == _cpu_state(reference)


@given(alu_program())
@settings(max_examples=12, deadline=None)
def test_kernelized_fusion_is_observationally_identical(source):
    """The kernel's trap-driven execution is mode-independent too."""
    states = []
    for fuse in (True, False):
        node = SensorNode.from_sources([("fuzz", source)], fuse=fuse)
        node.run(max_instructions=1_000_000)
        assert node.finished
        cpu = node.kernel.cpu
        states.append((bytes(cpu.r), cpu.sreg, cpu.pc, cpu.sp,
                       cpu.cycles, cpu.instret, bytes(cpu.mem.data)))
    assert states[0] == states[1]


# -- random TinyC expressions -----------------------------------------------------

@st.composite
def c_expression(draw, depth: int = 0):
    """(text, python_value) pairs over u16 arithmetic."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(0, 0xFFFF))
        return str(value), value
    op = draw(st.sampled_from(
        ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==",
         "!=", "<", "<=", ">", ">="]))
    left_text, left_value = draw(c_expression(depth=depth + 1))
    right_text, right_value = draw(c_expression(depth=depth + 1))
    if op in ("<<", ">>"):
        shift = draw(st.integers(0, 15))
        right_text, right_value = str(shift), shift
    if op in ("/", "%") and right_value == 0:
        right_text, right_value = "1", 1  # division by zero is UB-ish
    text = f"({left_text} {op} {right_text})"
    if op == "+":
        value = (left_value + right_value) & 0xFFFF
    elif op == "-":
        value = (left_value - right_value) & 0xFFFF
    elif op == "*":
        value = (left_value * right_value) & 0xFFFF
    elif op == "/":
        value = left_value // right_value
    elif op == "%":
        value = left_value % right_value
    elif op == "&":
        value = left_value & right_value
    elif op == "|":
        value = left_value | right_value
    elif op == "^":
        value = left_value ^ right_value
    elif op == "<<":
        value = (left_value << right_value) & 0xFFFF
    elif op == ">>":
        value = left_value >> right_value
    else:
        value = int({
            "==": left_value == right_value,
            "!=": left_value != right_value,
            "<": left_value < right_value,
            "<=": left_value <= right_value,
            ">": left_value > right_value,
            ">=": left_value >= right_value,
        }[op])
    return text, value


@given(c_expression())
@settings(max_examples=40, deadline=None)
def test_tinyc_expressions_match_python(pair):
    text, expected = pair
    asm = compile_c_to_asm(f"""
u16 out;
void main() {{ out = {text}; halt(); }}
""")
    result = run_native(asm, max_instructions=2_000_000)
    assert result.finished
    measured = result.heap_byte(0) | (result.heap_byte(1) << 8)
    assert measured == expected, text
