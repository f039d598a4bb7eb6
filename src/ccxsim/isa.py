"""Tiny interpreted instruction set for fixture programs.

Deliberately small: enough register arithmetic, memory access, and control
flow to write enclave and host test programs that exercise every isolation
boundary, plus the gadget instruction that models the trap into the monitor.
Instructions are 16 bytes so programs live in ordinary measured pages.

Encoding (little endian): opcode u8, rd u8, rs1 u8, rs2 u8, pad u32, imm i64.
Registers 0..30 name x0..x30; register 31 is sp.  A register field is a
byte, so an encoding can name a register above 31; the decoder refuses such
an instruction if its opcode uses that field (see :func:`decode`).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple, Union

from .errors import ModelError

INSTR_SIZE = 16
_FMT = "<BBBB4xq"

REG_SP = 31
REG_COUNT = 32
MASK64 = (1 << 64) - 1

OP_HALT = 0x00
OP_MOVI = 0x01
OP_ADD = 0x02
OP_ADDI = 0x03
OP_XOR = 0x04
OP_MUL = 0x05
OP_LOAD = 0x06
OP_STORE = 0x07
OP_BNZ = 0x08
OP_JMP = 0x09
OP_JMPR = 0x0A
OP_GADGET = 0x0B
OP_ABORT = 0x0C

OP_ILLEGAL = -1
"""The opcode :func:`decode` gives an instruction that names a register
above 31 in a field its opcode uses.  No encoding has it, so the pump stops
on it as on any undefined opcode.  Such an instruction never runs, so its
other fields say why: ``rd`` is its opcode byte and ``rs1`` the register."""

OP_NAMES = {
    OP_HALT: "halt",
    OP_MOVI: "movi",
    OP_ADD: "add",
    OP_ADDI: "addi",
    OP_XOR: "xor",
    OP_MUL: "mul",
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_BNZ: "bnz",
    OP_JMP: "jmp",
    OP_JMPR: "jmpr",
    OP_GADGET: "gadget",
    OP_ABORT: "abort",
}


def encode(op: int, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> bytes:
    if imm >= 1 << 63:
        imm -= 1 << 64
    return struct.pack(_FMT, op, rd, rs1, rs2, imm)


# Opcode -> the fields it uses as registers, by index into (rd, rs1, rs2).
_REG_FIELDS = {
    OP_MOVI: (0,),
    OP_ADD: (0, 1, 2),
    OP_ADDI: (0, 1),
    OP_XOR: (0, 1, 2),
    OP_MUL: (0, 1, 2),
    OP_LOAD: (0, 1),
    OP_STORE: (1, 2),
    OP_BNZ: (1,),
    OP_JMPR: (1,),
}


def decode(raw: bytes) -> Tuple[int, int, int, int, int]:
    """(op, rd, rs1, rs2, imm) with imm unsigned, or ``(OP_ILLEGAL, op,
    reg, 0, 0)`` if the instruction names register ``reg`` above 31 in a
    field it uses (the first such), so a decoded instruction that runs never
    indexes outside the register file."""
    op, rd, rs1, rs2, imm = struct.unpack(_FMT, raw)
    if (rd | rs1 | rs2) >= REG_COUNT:
        fields = (rd, rs1, rs2)
        for i in _REG_FIELDS.get(op, ()):
            if fields[i] >= REG_COUNT:
                return OP_ILLEGAL, op, fields[i], 0, 0
    return op, rd, rs1, rs2, imm & MASK64


Imm = Union[int, str]  # "@label" resolves to the label's absolute address


def assemble(program: Sequence[tuple], origin: int = 0) -> bytes:
    """Two-pass assembler.  Entries are ('label', name) or (mnemonic, args...).

    Immediates given as "@name" resolve to the absolute address of the label;
    branch targets are absolute addresses.
    """
    labels: Dict[str, int] = {}
    pc = origin
    for entry in program:
        if entry[0] == "label":
            labels[entry[1]] = pc
        else:
            pc += INSTR_SIZE

    def imm_of(value: Imm) -> int:
        if isinstance(value, str):
            if not value.startswith("@"):
                raise ModelError(f"immediate string must be '@label', got {value!r}")
            try:
                return labels[value[1:]]
            except KeyError:
                raise ModelError(f"undefined label {value[1:]!r}") from None
        return value & MASK64

    out: List[bytes] = []
    for entry in program:
        mnem, *args = entry
        if mnem == "label":
            continue
        if mnem == "halt":
            out.append(encode(OP_HALT))
        elif mnem == "abort":
            out.append(encode(OP_ABORT))
        elif mnem == "gadget":
            out.append(encode(OP_GADGET))
        elif mnem == "movi":
            rd, imm = args
            out.append(encode(OP_MOVI, rd=rd, imm=imm_of(imm)))
        elif mnem in ("add", "xor", "mul"):
            rd, rs1, rs2 = args
            op = {"add": OP_ADD, "xor": OP_XOR, "mul": OP_MUL}[mnem]
            out.append(encode(op, rd=rd, rs1=rs1, rs2=rs2))
        elif mnem == "addi":
            rd, rs1, imm = args
            out.append(encode(OP_ADDI, rd=rd, rs1=rs1, imm=imm_of(imm)))
        elif mnem == "load":
            rd, rs1, imm = args
            out.append(encode(OP_LOAD, rd=rd, rs1=rs1, imm=imm_of(imm)))
        elif mnem == "store":
            rs2, rs1, imm = args  # mem[rs1 + imm] = rs2
            out.append(encode(OP_STORE, rs1=rs1, rs2=rs2, imm=imm_of(imm)))
        elif mnem == "bnz":
            rs1, imm = args
            out.append(encode(OP_BNZ, rs1=rs1, imm=imm_of(imm)))
        elif mnem == "jmp":
            (imm,) = args
            out.append(encode(OP_JMP, imm=imm_of(imm)))
        elif mnem == "jmpr":
            (rs1,) = args
            out.append(encode(OP_JMPR, rs1=rs1))
        else:
            raise ModelError(f"unknown mnemonic {mnem!r}")
    return b"".join(out)
