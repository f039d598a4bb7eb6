"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the documented
formats (hand-transcribed access matrix, straight-line measurement hashing
with its own struct packing) so it shares no code with the implementation
paths it checks.
"""

from __future__ import annotations

import hashlib
import struct

# Hand-written transcription of the world access matrix: rows are accessor
# security states, columns the page protection states, plus the rule that
# fully inaccessible pages admit only root.
ACCESS_TRUTH = {
    # accessor        NORMAL SECURE REALM  ROOT  NO_ACCESS
    "NORMAL": {"NORMAL": True, "SECURE": False, "REALM": False, "ROOT": False, "NO_ACCESS": False},
    "SECURE": {"NORMAL": True, "SECURE": True, "REALM": False, "ROOT": False, "NO_ACCESS": False},
    "REALM": {"NORMAL": True, "SECURE": False, "REALM": True, "ROOT": False, "NO_ACCESS": False},
    "ROOT": {"NORMAL": True, "SECURE": True, "REALM": True, "ROOT": True, "NO_ACCESS": True},
}

PAGE = 4096
TCS_FMT = "<QQQQQQ"


def _tcs_page_bytes(spec, nssa: int) -> bytes:
    flags = (1 if spec.dbgoptin else 0) | (2 if spec.aexnotify else 0)
    body = struct.pack(TCS_FMT, spec.oentry, spec.ossa, 0, nssa, spec.tls_base, flags)
    return body.ljust(PAGE, b"\0")


def _perm_bits(perms) -> int:
    bits = 0
    text = perms.text() if hasattr(perms, "text") else perms
    if "r" in text:
        bits |= 1
    if "w" in text:
        bits |= 2
    if "x" in text:
        bits |= 4
    return bits


def reference_measurement(manifest) -> bytes:
    """Straight-line rebuild of the enclave measurement from a manifest.

    Record stream: one 64-byte creation record, then for each page an
    add record followed (if measured) by one extend record plus the four
    64-byte content blocks per 256-byte chunk.  Page directives first, then
    thread control pages, both in file order.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<8sQQQ32x", b"ECREATE", 0, manifest.ssa_frame_size, manifest.size))

    def measure_page(offset: int, secinfo_word: int, content: bytes, measured: bool):
        h.update(struct.pack("<8sQQ40x", b"EADD", offset, secinfo_word))
        if measured:
            for chunk in range(0, PAGE, 256):
                h.update(struct.pack("<8sQ48x", b"EEXTEND", offset + chunk))
                h.update(content[chunk : chunk + 256])

    REG = 2
    TCS = 1
    for spec in manifest.pages:
        for i in range(spec.page_count):
            measure_page(
                spec.vaddr + i * PAGE,
                _perm_bits(spec.perms) | (REG << 8),
                (spec.content * spec.count)[i * PAGE : (i + 1) * PAGE],
                spec.measured,
            )
    for spec in manifest.tcs:
        measure_page(
            spec.vaddr,
            0 | (TCS << 8),
            _tcs_page_bytes(spec, manifest.nssa),
            spec.measured,
        )
    return h.digest()


# The fixture instruction set, transcribed from the encoding the isa module
# documents: opcode u8, rd u8, rs1 u8, rs2 u8, four pad bytes, imm i64, little
# endian, and 32 registers.  Only its register and control-flow subset is
# modelled; loads, stores and the gadget are not.
INSTR = struct.Struct("<BBBB4xq")
WORD = (1 << 64) - 1
REGISTER_FIELDS = {  # opcode -> the fields it names registers in
    0x01: ("rd",),  # movi
    0x02: ("rd", "rs1", "rs2"),  # add
    0x03: ("rd", "rs1"),  # addi
    0x04: ("rd", "rs1", "rs2"),  # xor
    0x05: ("rd", "rs1", "rs2"),  # mul
    0x08: ("rs1",),  # bnz
    0x0A: ("rs1",),  # jmpr
}


def reference_run(image: bytes, origin: int, regs, pc: int, budget: int, memory_size: int):
    """Run at most ``budget`` instructions one at a time from ``pc``, with
    ``image`` mapped at ``origin`` and zeros (halt) everywhere else in
    ``memory_size`` bytes of physical memory.

    Returns ``(stop, steps, regs, pc)``: stop is ``halt``, ``abort``,
    ``bad_opcode`` (an undefined opcode, or a register above 31 in a field
    the opcode uses), ``pagefault`` (a fetch that crosses a 4 KiB page or
    reaches past physical memory, which runs no step) or ``limit``; on a
    stop the pc stays on the instruction that stopped, on ``limit`` it names
    the next one.
    """
    regs = list(regs)
    steps = 0
    while steps < budget:
        if pc % PAGE + 16 > PAGE or pc + 16 > memory_size:
            return "pagefault", steps, regs, pc
        at = pc - origin
        raw = bytes(max(0, -at)) + image[max(0, at) : at + 16] if -16 < at < len(image) else b""
        op, rd, rs1, rs2, imm = INSTR.unpack(raw.ljust(16, b"\0"))
        imm &= WORD
        fields = {"rd": rd, "rs1": rs1, "rs2": rs2}
        steps += 1
        if op == 0x00:
            return "halt", steps, regs, pc
        if op == 0x0C:
            return "abort", steps, regs, pc
        used = REGISTER_FIELDS.get(op, ())
        if (op not in REGISTER_FIELDS and op != 0x09) or any(fields[n] > 31 for n in used):
            return "bad_opcode", steps, regs, pc
        a = regs[rs1] if "rs1" in used else 0
        b = regs[rs2] if "rs2" in used else 0
        next_pc = (pc + 16) & WORD
        if op == 0x01:
            regs[rd] = imm
        elif op == 0x02:
            regs[rd] = (a + b) % (1 << 64)
        elif op == 0x03:
            regs[rd] = (a + imm) % (1 << 64)
        elif op == 0x04:
            regs[rd] = a ^ b
        elif op == 0x05:
            regs[rd] = (a * b) % (1 << 64)
        elif op == 0x08:
            if a:
                next_pc = imm
        elif op == 0x09:
            next_pc = imm
        else:
            next_pc = a
        pc = next_pc
    return "limit", steps, regs, pc


def reference_ssa_frame(regs, pc: int, pstate: int, tpidr: int, reason: int, payload: int) -> bytes:
    """A save-state frame as the documented layout gives it: 32 registers as
    signed 64-bit words (two's complement of a value at or above 2**63),
    then pc, pstate, tpidr, exit reason and exit payload unsigned."""
    signed = [r - (1 << 64) if r >= 1 << 63 else r for r in regs]
    return struct.pack("<32q5Q", *signed, pc, pstate, tpidr, reason, payload)


def reference_geometry_refusal(manifest):
    """``(line, message)`` of the first page or TCS misfit of a manifest
    whose size is valid, or None, found by walking every page into a dict."""
    used = {}
    for spec in manifest.pages:
        end = spec.vaddr + spec.page_count * PAGE
        if spec.vaddr % PAGE or end > manifest.size:
            return spec.line, (f"run of {spec.page_count} pages at {spec.vaddr:#x}"
                               f" is unaligned or exceeds size {manifest.size:#x}")
        for off in range(spec.vaddr, end, PAGE):
            if off in used:
                return spec.line, f"page offset {off:#x} specified twice"
            used[off] = spec
    frames = manifest.nssa * manifest.ssa_frame_size
    for spec in manifest.tcs:
        if spec.vaddr % PAGE or spec.vaddr + PAGE > manifest.size:
            return spec.line, f"tcs offset {spec.vaddr:#x} invalid"
        if spec.vaddr in used:
            return spec.line, f"tcs offset {spec.vaddr:#x} collides with a page"
        used[spec.vaddr] = spec
        if spec.oentry >= manifest.size:
            return spec.line, "tcs entry point outside enclave"
        if spec.ossa % PAGE or spec.ossa + frames * PAGE > manifest.size:
            return spec.line, "tcs save-state area outside enclave"
        for off in range(spec.ossa, spec.ossa + frames * PAGE, PAGE):
            if off not in used:
                return spec.line, (f"tcs at {spec.vaddr:#x}: save-state page {off:#x}"
                                   " is not declared")
    return None
