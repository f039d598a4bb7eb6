"""Canonical fixture enclaves: programs plus manifest builders.

The programs implement the in-enclave runtime side of the driver ABI
(selector dispatch, ocall continuations, the notify handler), and the
manifests lay them out with a fixed page plan:

    0x0000  code: up to four rx pages, entry at offset 0
    0x4000  scratch page (rw): ocall continuation slot and probe words
    0x5000  save-state pages (rw), one frame per page, nssa of them
    after   the TCS page, then any extra data pages

Everything is generated as self-contained manifest text (inline hex content)
so fixture trees stay diffable.  ``python3 -m ccxsim.fixtures <dir>`` writes
the demo manifests and scenario scripts used by the command-line front end.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .errors import ModelError
from .execution import LEAF_NUMBERS, SMC_ID_ENCLU as SMC_ENCLU
from .isa import assemble
from .memory import GRANULE_SIZE
from .microprograms import DEFAULT_ENCLAVE_BASE as BASE
from .runtime import OCALL_EAUG, OCALL_HOSTADD, OCALL_RESUME
from .structs import SSA_OFF_EXIT_REASON, SSA_OFF_PC, SSA_WORD

CODE_OFF = 0x0000
CODE_PAGES = 4
SCRATCH_OFF = 0x4000
SSA_OFF = 0x5000

# Scratch page layout (offsets into the scratch page)
SCRATCH_CONT = 0  # ocall continuation pc
SCRATCH_NOTIFY_RAN = 8
SCRATCH_NOTIFY_REASON = 16
SCRATCH_NOTIFY_CSSA = 24

LEAF_EEXIT = LEAF_NUMBERS["EEXIT"][1]
LEAF_EACCEPT = LEAF_NUMBERS["EACCEPT"][1]
LEAF_EDECCSSA = LEAF_NUMBERS["EDECCSSA"][1]

SECINFO_REG_RW = 0x203  # perms r|w, page type REG

# Selectors understood by the standard program
SEL_ECHO = 1
SEL_ADD = 2
SEL_OCALL_ROUNDTRIP = 3
SEL_PEEK = 4
SEL_POKE = 5


def _eexit_to(reg_target_src: int) -> list:
    return [
        ("addi", 2, reg_target_src, 0),
        ("movi", 1, LEAF_EEXIT),
        ("movi", 0, SMC_ENCLU),
        ("gadget",),
    ]


# Re-entry after an ocall (x2 == OCALL_RESUME) jumps to the continuation
# stored on the scratch page; a fresh call goes on at label "fresh".
_RESUME_OR_FRESH = [
    ("movi", 12, OCALL_RESUME),
    ("xor", 12, 12, 2),
    ("bnz", 12, "@fresh"),
    ("movi", 13, BASE + SCRATCH_OFF),
    ("load", 14, 13, SCRATCH_CONT),
    ("jmpr", 14),
    ("label", "fresh"),
]

# acc := 3*acc + i over i in [0, x3), returned in x3 through the x10 gate.
_COMPUTE = [
    ("movi", 5, 0),
    ("movi", 6, 0),
    ("addi", 7, 3, 0),
    ("label", "loop"),
    ("movi", 8, 3),
    ("mul", 5, 5, 8),
    ("add", 5, 5, 6),
    ("addi", 6, 6, 1),
    ("xor", 9, 6, 7),
    ("bnz", 9, "@loop"),
    ("addi", 3, 5, 0),
    *_eexit_to(10),
]


def standard_program() -> bytes:
    """Selector-dispatching program: echo, add, ocall round trip, peek, poke."""
    scratch = BASE + SCRATCH_OFF
    prog = [
        *_RESUME_OR_FRESH,
        ("movi", 12, SEL_ECHO),
        ("xor", 12, 12, 2),
        ("bnz", 12, "@not1"),
        ("jmp", "@ret"),  # echo: x3 already holds the result
        ("label", "not1"),
        ("movi", 12, SEL_ADD),
        ("xor", 12, 12, 2),
        ("bnz", 12, "@not2"),
        ("add", 3, 3, 4),
        ("jmp", "@ret"),
        ("label", "not2"),
        ("movi", 12, SEL_OCALL_ROUNDTRIP),
        ("xor", 12, 12, 2),
        ("bnz", 12, "@not3"),
        ("movi", 13, scratch),
        ("movi", 14, "@after_ocall"),
        ("store", 14, 13, SCRATCH_CONT),
        ("movi", 5, OCALL_HOSTADD),
        ("addi", 6, 3, 0),
        ("addi", 7, 4, 0),
        *_eexit_to(11),
        ("label", "after_ocall"),
        ("addi", 3, 5, 0),  # host result arrives in x5
        ("jmp", "@ret"),
        ("label", "not3"),
        ("movi", 12, SEL_PEEK),
        ("xor", 12, 12, 2),
        ("bnz", 12, "@not4"),
        ("load", 3, 3, 0),
        ("jmp", "@ret"),
        ("label", "not4"),
        ("movi", 12, SEL_POKE),
        ("xor", 12, 12, 2),
        ("bnz", 12, "@not5"),
        ("store", 4, 3, 0),
        ("load", 3, 3, 0),
        ("jmp", "@ret"),
        ("label", "not5"),
        ("abort",),
        ("label", "ret"),
        *_eexit_to(10),
        ("abort",),
    ]
    return assemble(prog, origin=BASE + CODE_OFF)


def compute_program() -> bytes:
    """Deterministic accumulator loop; iteration count arrives in x3.

    acc := 3*acc + i over i in [0, n); six instructions per iteration, so
    n=165 gives a run just under a thousand steps.
    """
    return assemble(_COMPUTE, origin=BASE + CODE_OFF)


def compute_expected(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 3 + i) & ((1 << 64) - 1)
    return acc


def notify_program() -> bytes:
    """Compute loop plus a notify handler for interrupted re-entries.

    Entry with x0 > 0 means the thread was interrupted and re-entered for
    notification: the handler records what it observed on the scratch page,
    retires the save-state slot, restores the interrupted registers from the
    frame, and jumps back.
    """
    scratch = BASE + SCRATCH_OFF
    frame0 = BASE + SSA_OFF
    prog = [
        ("bnz", 0, "@handler"),
        *_COMPUTE,  # main body
        ("label", "handler"),
        ("movi", 20, frame0),
        ("movi", 22, scratch),
        ("movi", 21, 1),
        ("store", 21, 22, SCRATCH_NOTIFY_RAN),
        ("load", 21, 20, SSA_OFF_EXIT_REASON),
        ("store", 21, 22, SCRATCH_NOTIFY_REASON),
        ("store", 0, 22, SCRATCH_NOTIFY_CSSA),
        ("movi", 1, LEAF_EDECCSSA),
        ("movi", 0, SMC_ENCLU),
        ("gadget",),
        # restore x3..x11 and the saved pc of the interrupted context from frame 0
        *(("load", reg, 20, reg * SSA_WORD) for reg in range(3, 12)),
        ("load", 30, 20, SSA_OFF_PC),
        ("jmpr", 30),
    ]
    return assemble(prog, origin=BASE + CODE_OFF)


def toucher_program(dyn_off: int) -> bytes:
    """Dynamic-memory workload: grow by n pages via ocalls, accept, write a
    pattern, then re-read everything.  Returns the combined checksum, which
    is identical no matter how often pages were swapped in between."""
    scratch = BASE + SCRATCH_OFF
    dyn_start = BASE + dyn_off
    prog = [
        *_RESUME_OR_FRESH,
        ("movi", 16, 0),  # i
        ("addi", 17, 3, 0),  # n = arg1
        ("movi", 18, dyn_start),
        ("movi", 19, 0),  # checksum
        ("label", "grow_loop"),
        ("xor", 9, 16, 17),
        ("bnz", 9, "@grow_body"),
        ("jmp", "@read_pass"),
        ("label", "grow_body"),
        # ask the host for a page at x18
        ("movi", 13, scratch),
        ("movi", 14, "@after_aug"),
        ("store", 14, 13, SCRATCH_CONT),
        ("movi", 5, OCALL_EAUG),
        ("addi", 6, 18, 0),
        *_eexit_to(11),
        ("label", "after_aug"),
        # accept it
        ("addi", 2, 18, 0),
        ("movi", 3, SECINFO_REG_RW),
        ("movi", 1, LEAF_EACCEPT),
        ("movi", 0, SMC_ENCLU),
        ("gadget",),
        ("bnz", 0, "@fail"),
        # write pattern (i+1)*7, accumulate
        ("addi", 20, 16, 1),
        ("movi", 21, 7),
        ("mul", 20, 20, 21),
        ("store", 20, 18, 0),
        ("load", 22, 18, 0),
        ("add", 19, 19, 22),
        ("addi", 18, 18, GRANULE_SIZE),
        ("addi", 16, 16, 1),
        ("jmp", "@grow_loop"),
        ("label", "read_pass"),
        ("movi", 16, 0),
        ("movi", 18, dyn_start),
        ("label", "read_loop"),
        ("xor", 9, 16, 17),
        ("bnz", 9, "@read_body"),
        ("addi", 3, 19, 0),
        *_eexit_to(10),
        ("label", "read_body"),
        ("load", 22, 18, 0),
        ("add", 19, 19, 22),
        ("addi", 18, 18, GRANULE_SIZE),
        ("addi", 16, 16, 1),
        ("jmp", "@read_loop"),
        ("label", "fail"),
        ("abort",),
    ]
    return assemble(prog, origin=BASE + CODE_OFF)


def toucher_expected(pages: int) -> int:
    return (7 * pages * (pages + 1)) & ((1 << 64) - 1)


# ---------------------------------------------------------------------------
# Manifest builders


def build_manifest_text(
    program: bytes,
    *,
    name: str = "fixture",
    size: int = 1 << 21,
    nssa: int = 2,
    aexnotify: bool = False,
    debug: bool = True,
    provision_key: bool = False,
    max_page_perms: Optional[str] = None,
    isv_prod_id: int = 1,
    isv_svn: int = 1,
    signer: str = "default",
    salt: bytes = b"",
    extra_lines: Optional[list] = None,
) -> str:
    if len(program) > CODE_PAGES * GRANULE_SIZE:
        raise ModelError("fixture program exceeds the reserved code pages")
    attrs = []
    if debug:
        attrs.append("debug")
    if aexnotify:
        attrs.append("aexnotify_allowed")
    if provision_key:
        attrs.append("provision_key")
    tcs_off = SSA_OFF + nssa * GRANULE_SIZE
    lines = [
        f"name {name}",
        f"size {size:#x}",
        "ssa_frame_size 1",
        f"nssa {nssa}",
    ]
    if attrs:
        lines.append("attributes " + ",".join(attrs))
    if max_page_perms is not None:
        lines.append(f"max_page_perms {max_page_perms}")
    lines += [
        f"isv_prod_id {isv_prod_id}",
        f"isv_svn {isv_svn}",
        f"page vaddr={CODE_OFF:#x} perms=rx content=hex:{program.hex()} measured=yes",
        f"page vaddr={SCRATCH_OFF:#x} perms=rw content=zero measured=yes",
        f"page vaddr={SSA_OFF:#x} perms=rw content=zero count={nssa} measured=yes",
    ]
    if salt:
        salt_off = tcs_off + GRANULE_SIZE
        lines.append(
            f"page vaddr={salt_off:#x} perms=r content=hex:{salt.hex()} measured=yes"
        )
    flags = " flags=aexnotify" if aexnotify else ""
    lines.append(
        f"tcs vaddr={tcs_off:#x} oentry={CODE_OFF:#x} ossa={SSA_OFF:#x}"
        f" tls={SCRATCH_OFF:#x}{flags}"
    )
    if extra_lines:
        lines.extend(extra_lines)
    lines.append(f"sigstruct test-key:{signer}")
    return "\n".join(lines) + "\n"


def _write_manifest(directory: Path, name: str, program: bytes, **kw) -> Path:
    path = Path(directory) / f"{name}.manifest"
    path.write_text(build_manifest_text(program, name=name, **kw))
    return path


def write_standard_manifest(directory: Path, name: str = "standard", **kw) -> Path:
    return _write_manifest(directory, name, standard_program(), **kw)


def write_compute_manifest(directory: Path, name: str = "compute", **kw) -> Path:
    return _write_manifest(directory, name, compute_program(), **kw)


def write_notify_manifest(directory: Path, name: str = "notify", **kw) -> Path:
    kw.setdefault("aexnotify", True)
    return _write_manifest(directory, name, notify_program(), **kw)


def write_toucher_manifest(
    directory: Path, name: str = "toucher", dyn_off: int = 0x100000, size: int = 1 << 23, **kw
) -> Path:
    return _write_manifest(directory, name, toucher_program(dyn_off), size=size, **kw)


# ---------------------------------------------------------------------------
# Demo tree for the command-line front end


def write_demo_tree(directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_standard_manifest(directory, "standard")
    write_standard_manifest(directory, "standard_b", salt=b"sibling enclave", signer="default")
    write_standard_manifest(directory, "other_vendor", salt=b"different vendor", signer="vendor-b")
    write_compute_manifest(directory, "compute")
    write_notify_manifest(directory, "notify")
    write_toucher_manifest(directory, "toucher")

    scenarios = {
        "lifecycle": [
            "# create, call, and tear down one enclave",
            "create app standard.manifest",
            "ecall app 0 1 7 0",
            "expect last == 7",
            "ecall app 0 2 20 22",
            "expect last == 42",
            "ecall app 0 3 10 1",
            "expect last == 26",
            "destroy app",
        ],
        "seal_unseal": [
            "# sealed data moves between same-signer enclaves only under",
            "# the signer policy",
            "create a standard.manifest",
            "create b standard_b.manifest",
            "create v other_vendor.manifest",
            "seal a mrsigner deadbeefcafe",
            "unseal b",
            "expect unseal_ok == 1",
            "unseal v",
            "expect unseal_ok == 0",
            "seal a mrenclave deadbeefcafe",
            "unseal b",
            "expect unseal_ok == 0",
            "unseal a",
            "expect unseal_ok == 1",
        ],
        "attest": [
            "create a standard.manifest",
            "create b standard_b.manifest",
            "attest a b",
            "expect attest_mutual == 1",
        ],
        "mode_diff": [
            "# touch 2x the default fixed EPC; functional output is mode",
            "# independent while swap activity is not",
            "create t toucher.manifest",
            "ecall t 0 1 1024 0",
            f"expect last == {toucher_expected(1024)}",
        ],
        "interrupts": [
            "# interrupted calls: one resumed after every step, and one on",
            "# a second vcpu whose interrupts run the notify handler",
            "create c compute.manifest",
            "create n notify.manifest",
            "inject_irq vcpu=0 at=every",
            "ecall c 0 1 40 0",
            f"expect last == {compute_expected(40)}",
            "inject_irq vcpu=1 at=3,9,27",
            "ecall n 0 1 40 0",
            f"expect last == {compute_expected(40)}",
            "expect count:ERESUME == 250",
        ],
    }
    for name, lines in scenarios.items():
        (directory / f"{name}.scenario").write_text("\n".join(lines + [""]))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="write demo manifests and scenarios")
    parser.add_argument("directory")
    args = parser.parse_args(argv)
    write_demo_tree(args.directory)
    print(f"fixtures written to {args.directory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
