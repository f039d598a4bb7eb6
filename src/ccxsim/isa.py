"""Tiny interpreted instruction set for fixture programs.

Deliberately small: enough register arithmetic, memory access, and control
flow to write enclave and host test programs that exercise every isolation
boundary, plus the gadget instruction that models the trap into the monitor.
Instructions are 16 bytes so programs live in ordinary measured pages.

Encoding (little endian): opcode u8, rd u8, rs1 u8, rs2 u8, pad u32, imm i64.
Registers 0..30 name x0..x30; register 31 is sp.  A register field is a
byte, so an encoding can name a register above 31; the decoder refuses such
an instruction if its opcode uses that field (see :func:`decode`).

Each opcode is one row of :data:`INSTRUCTIONS`, and every other view derives
from it: :data:`OP_NAMES`, the register fields the decoder checks, the
operands :func:`assemble` takes, and the ops and sources the pump compiles.
"""

from __future__ import annotations

import struct
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import ModelError

INSTR_SIZE = 16
_FMT = "<BBBB4xq"

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


class Instruction(NamedTuple):
    """One opcode: its mnemonic, the fields its assembler operands fill in
    order (``rd``, ``rs1``, ``rs2`` or ``imm``), and for the ops the pump
    compiles (see :mod:`~ccxsim.execution`) Python source: ``alu``, the
    statement of an ALU op, which writes ``{rd}`` masked to 64 bits as the
    registers are and reads its other register slots; or ``branch``, the
    expression of a branch's target, with ``taken_if``, the condition it is
    taken on (None: always).  The source is formatted with the decoded
    fields, each register slot as a name of that register."""

    op: int
    mnemonic: str
    operands: Tuple[str, ...]
    alu: Optional[str] = None
    branch: Optional[str] = None
    taken_if: Optional[str] = None


INSTRUCTIONS = (
    Instruction(OP_HALT, "halt", ()),
    Instruction(OP_MOVI, "movi", ("rd", "imm"), alu="{rd} = {imm}"),
    Instruction(OP_ADD, "add", ("rd", "rs1", "rs2"),
                alu="{rd} = ({rs1} + {rs2}) & 0xFFFFFFFFFFFFFFFF"),
    Instruction(OP_ADDI, "addi", ("rd", "rs1", "imm"),
                alu="{rd} = ({rs1} + {imm}) & 0xFFFFFFFFFFFFFFFF"),
    Instruction(OP_XOR, "xor", ("rd", "rs1", "rs2"), alu="{rd} = {rs1} ^ {rs2}"),
    Instruction(OP_MUL, "mul", ("rd", "rs1", "rs2"),
                alu="{rd} = ({rs1} * {rs2}) & 0xFFFFFFFFFFFFFFFF"),
    Instruction(OP_LOAD, "load", ("rd", "rs1", "imm")),
    Instruction(OP_STORE, "store", ("rs2", "rs1", "imm")),  # mem[rs1 + imm] = rs2
    Instruction(OP_BNZ, "bnz", ("rs1", "imm"), branch="{imm}", taken_if="{rs1}"),
    Instruction(OP_JMP, "jmp", ("imm",), branch="{imm}"),
    Instruction(OP_JMPR, "jmpr", ("rs1",), branch="{rs1}"),
    Instruction(OP_GADGET, "gadget", ()),
    Instruction(OP_ABORT, "abort", ()),
)

OP_NAMES = {row.op: row.mnemonic for row in INSTRUCTIONS}
_BY_MNEMONIC = {row.mnemonic: row for row in INSTRUCTIONS}
# Opcode -> the fields it uses as registers, by index into (rd, rs1, rs2).
_REG_FIELDS = {row.op: tuple(i for i, f in enumerate(("rd", "rs1", "rs2")) if f in row.operands)
               for row in INSTRUCTIONS}


def encode(op: int, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> bytes:
    if imm >= 1 << 63:
        imm -= 1 << 64
    return struct.pack(_FMT, op, rd, rs1, rs2, imm)


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
        if not entry:
            raise ModelError("empty assembler entry: no mnemonic")
        if entry[0] == "label":
            if len(entry) != 2 or not isinstance(entry[1], str):
                raise ModelError(f"label takes one name string, got {entry[1:]!r}")
            if entry[1] in labels:
                raise ModelError(f"label {entry[1]!r} defined twice")
            labels[entry[1]] = pc
        else:
            pc += INSTR_SIZE

    def imm_of(mnem: str, value: Imm) -> int:
        if isinstance(value, int):
            return value & MASK64
        if isinstance(value, str) and value.startswith("@"):
            try:
                return labels[value[1:]]
            except KeyError:
                raise ModelError(f"{mnem}: undefined label {value[1:]!r}") from None
        raise ModelError(f"{mnem}: immediate {value!r} is not an int or '@label'")

    out: List[bytes] = []
    for entry in program:
        mnem, *args = entry
        if mnem == "label":
            continue
        row = _BY_MNEMONIC.get(mnem)
        if row is None:
            raise ModelError(f"unknown mnemonic {mnem!r}")
        if len(args) != len(row.operands):
            raise ModelError(f"{mnem} takes {len(row.operands)} operands"
                             f" ({', '.join(row.operands) or 'none'}), got {len(args)}")
        fields = {}
        for name, value in zip(row.operands, args):
            if name == "imm":
                value = imm_of(mnem, value)
            elif not (isinstance(value, int) and 0 <= value < REG_COUNT):
                raise ModelError(f"{mnem}: register operand {value!r} is not 0..{REG_COUNT - 1}")
            fields[name] = value
        out.append(encode(row.op, **fields))
    return b"".join(out)
