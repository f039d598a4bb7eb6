"""The interpreter's translation and decode caches change nothing but wall
time.  Each targeted case warms the caches, changes memory behind them, and
runs again; the differential test compares a machine whose caches are
dropped before every single step with one that keeps them and runs whole
budgets."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from ccxsim import execution, fixtures, isa
from ccxsim.errors import SgxError
from ccxsim.execution import RunReport
from ccxsim.machine import Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import GRANULE_SIZE, GpfRecord, Pas, Perms, SecurityState
from ccxsim.runtime import AEP_GATE, RETURN_GATE, HostRuntime
from ccxsim.structs import EXIT_IRQ, EXIT_PAGEFAULT

from helpers import BASE, build_raw_enclave, free_epc_granules, free_host_granule, small_config

CODE, DATA, TCS = 0x0000, 0x1000, 0x4000
DATA_WORD = 0x2222222222222222

EEXIT_TO_RETURN_GATE = [
    ("movi", 2, RETURN_GATE),
    ("movi", 1, 0x4),
    ("movi", 0, 0x1),
    ("gadget",),
]


@pytest.fixture(params=["sgx", "ccx"])
def m(request):
    return Machine(small_config(mode=request.param))


def _enclave(m, program):
    """A debug enclave running ``program`` from an rwx code page, with an rw
    data page and two save-state frames."""
    return build_raw_enclave(
        m,
        page_specs=[
            (CODE, "rwx", isa.assemble(program + EEXIT_TO_RETURN_GATE, origin=BASE)),
            (DATA, "rw", b"\x22" * GRANULE_SIZE),
            (0x2000, "rw", b""),
            (0x3000, "rw", b""),
        ],
        tcs_specs=[{"vaddr": TCS, "ossa": 0x2000}],
    )


def _call(m, enc):
    """Enter at the code page and run to the first host halt; returns the
    step report and x3."""
    vcpu = m.vcpus[0]
    m.enclu(vcpu, 0x2, enc.pages[TCS], AEP_GATE)
    report = m.step(vcpu, 200)
    assert report.stop == "halt" and not vcpu.in_enclave
    return report, vcpu.regs[3]


def _record(m, kind):
    """The last trace record of ``kind``."""
    return next(r for r in reversed(m.trace) if r["kind"] == kind)


def _reload_elsewhere(m, eid, g, va):
    """EWB granule ``g`` out through slot 0 of version array ``va`` and ELDU
    it back into another granule, which is returned."""
    target = free_epc_granules(m, 1)[0]
    m.leaf("EBLOCK", g)
    m.leaf("ETRACK", eid)
    blob = m.leaf("EWB", g, va, 0)
    m.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 0, target, eid)
    return target


def test_enclave_store_of_an_instruction_is_fetched_next(m):
    new = isa.encode(isa.OP_MOVI, rd=3, imm=222)
    enc = _enclave(m, [
        ("movi", 5, 0),
        ("label", "slot"),
        ("movi", 3, 111),  # runs once, then is overwritten and runs again
        ("bnz", 5, "@done"),
        ("movi", 5, 1),
        ("movi", 6, int.from_bytes(new[:8], "little")),
        ("movi", 7, int.from_bytes(new[8:], "little")),
        ("movi", 8, "@slot"),
        ("store", 6, 8, 0),
        ("store", 7, 8, 8),
        ("jmp", "@slot"),
        ("label", "done"),
    ])
    assert _call(m, enc)[1] == 222


def test_store_rewriting_a_later_instruction_of_a_cached_block_is_fetched_next(m):
    """The first pass writes back the old ``slot`` and runs and caches the
    ALU run from ``top``; the second rewrites ``slot`` just before running
    it again, whatever budget each step call has."""
    old = isa.encode(isa.OP_ADDI, rd=3, rs1=3, imm=100)
    new = isa.encode(isa.OP_ADDI, rd=3, rs1=3, imm=1)
    enc = _enclave(m, [
        ("movi", 3, 0),
        ("movi", 5, 2),
        ("movi", 6, int.from_bytes(old[:8], "little")),
        ("movi", 7, int.from_bytes(old[8:], "little")),
        ("movi", 8, "@slot"),
        ("label", "loop"),
        ("store", 6, 8, 0),
        ("store", 7, 8, 8),
        ("label", "top"),
        ("addi", 4, 4, 1),
        ("label", "slot"),
        ("addi", 3, 3, 100),
        ("movi", 6, int.from_bytes(new[:8], "little")),
        ("movi", 7, int.from_bytes(new[8:], "little")),
        ("addi", 5, 5, -1),
        ("bnz", 5, "@loop"),
    ])
    vcpu = m.vcpus[0]
    for budget in range(1, 10):
        m.enclu(vcpu, 0x2, enc.pages[TCS], AEP_GATE)
        report = m.step(vcpu, budget)
        while report.stop == "limit":
            report = m.step(vcpu, budget)
        assert report.stop == "halt" and not vcpu.in_enclave
        assert vcpu.regs[3] == 101, budget


def test_edbgwr_between_ecalls_is_fetched_next(m):
    enc = _enclave(m, [("movi", 3, 111)])
    assert _call(m, enc)[1] == 111
    m.leaf("EDBGWR", enc.pages[CODE], 0, isa.encode(isa.OP_MOVI, rd=3, imm=222))
    assert _call(m, enc)[1] == 222


def test_emodpr_dropping_x_faults_the_next_fetch(m):
    m.trace = []
    enc = _enclave(m, [("movi", 3, 111)])
    assert _call(m, enc)[1] == 111
    m.leaf("EMODPR", enc.pages[CODE], Perms.R | Perms.W)
    _call(m, enc)
    fault = _record(m, "pagefault")
    assert fault["at"] == "fetch" and fault["why"] == "missing x permission"


def test_code_page_reloaded_into_another_granule_still_runs(m):
    enc = _enclave(m, [("movi", 3, 111)])
    assert _call(m, enc)[1] == 111
    va = free_epc_granules(m, 1)[0]
    m.leaf("EPA", va)
    target = _reload_elsewhere(m, enc.eid, enc.pages[CODE], va)
    assert target != enc.pages[CODE] and m.memory.find_page(enc.eid, BASE + CODE) == target
    m.trace = []
    report, x3 = _call(m, enc)
    assert x3 == 111 and report.stop == "halt"
    assert [(r["kind"], r["outcome"]) for r in m.trace] == [("eenter", "ok"), ("eexit", "ok")]


def test_writing_back_a_page_drops_its_translations_and_keeps_the_others(m, monkeypatch):
    """After the data page goes out and comes back into another granule, the
    next call translates the data address again and nothing else: the code
    page's translations were kept."""
    enc = _enclave(m, [("movi", 13, BASE + DATA), ("load", 3, 13, 0)])
    assert _call(m, enc)[1] == DATA_WORD
    va = free_epc_granules(m, 1)[0]
    m.leaf("EPA", va)
    _reload_elsewhere(m, enc.eid, enc.pages[DATA], va)
    translated = []
    translate = execution._enclave_translate

    def counting_translate(mach, vcpu, addr, size, kind):
        translated.append((addr, kind))
        return translate(mach, vcpu, addr, size, kind)

    monkeypatch.setattr(execution, "_enclave_translate", counting_translate)
    assert _call(m, enc)[1] == DATA_WORD
    assert translated == [(BASE + DATA, "r")]


def test_destroying_an_enclave_keeps_the_translations_of_the_others(m, tmp_path, monkeypatch):
    """A destroy drops the dead enclave's translations, those to host memory
    included, and no others: the next identical call into a live enclave
    resolves nothing."""
    rt = HostRuntime(m)
    manifest = EnclaveManifest.load(fixtures.write_standard_manifest(tmp_path))
    a, b = rt.load_enclave(manifest), rt.load_enclave(manifest)
    host = rt.take_host_granule()
    m.host_write(host, 0, DATA_WORD.to_bytes(8, "little"))
    for h in (b, a):  # each enclave reads the host granule
        assert rt.ecall(h, 0, fixtures.SEL_PEEK, host * GRANULE_SIZE) == DATA_WORD
    assert (a.eid, host * GRANULE_SIZE, "r") in m.memory.tlb
    rt.destroy(a)
    assert not any(key[0] == a.eid for key in m.memory.tlb)
    assert not any(key[0] == a.eid for keys in m.memory.gpts.tlb_keys.values() for key in keys)
    resolved = []
    resolve = execution._resolve

    def counting_resolve(mach, vcpu, addr, size, kind):
        resolved.append((addr, kind))
        return resolve(mach, vcpu, addr, size, kind)

    monkeypatch.setattr(execution, "_resolve", counting_resolve)
    assert rt.ecall(b, 0, fixtures.SEL_PEEK, host * GRANULE_SIZE) == DATA_WORD
    assert resolved == []


def test_removed_data_page_faults_the_next_load(m):
    m.trace = []
    enc = _enclave(m, [("movi", 13, BASE + DATA), ("load", 3, 13, 0)])
    assert _call(m, enc)[1] == DATA_WORD
    m.leaf("EREMOVE", enc.pages[DATA])
    _call(m, enc)
    fault = _record(m, "pagefault")
    assert fault["addr"] == BASE + DATA and fault["why"] == "no page mapped"


def test_host_fetch_after_set_entry_no_access_is_a_logged_gpf(m):
    g = free_host_granule(m)
    m.host_write(g, 0, isa.assemble([("movi", 3, 7), ("halt",)], origin=g * GRANULE_SIZE))
    vcpu = m.vcpus[0]
    vcpu.pc = g * GRANULE_SIZE
    assert m.step(vcpu, 10).stop == "halt" and vcpu.regs[3] == 7
    m.memory.gpts.set_entry(g, Pas.NO_ACCESS)
    vcpu.pc = g * GRANULE_SIZE
    report = m.step(vcpu, 10)
    assert report.stop == "fault"
    gpf = report.fault
    assert gpf["kind"] == "gpf" and gpf["at"] == "fetch" and gpf["pas"] == "NO_ACCESS"
    assert m.memory.gpf_log == [GpfRecord(g, SecurityState.NORMAL, Pas.NO_ACCESS, None)]


def test_scrubbed_granule_loses_its_decoded_instructions(m):
    enc = _enclave(m, [])
    g = free_epc_granules(m, 1)[0]
    m.host_write(g, 0, isa.assemble([("movi", 3, 7), ("halt",)], origin=g * GRANULE_SIZE))
    vcpu = m.vcpus[0]
    vcpu.pc = g * GRANULE_SIZE
    assert m.step(vcpu, 10).stop == "halt" and vcpu.regs[3] == 7
    m.leaf("EAUG", enc.eid, BASE + 0x8000, g)  # zeroes the granule
    m.leaf("EREMOVE", g)  # and scrubs it again
    vcpu.regs[3] = 0
    vcpu.pc = g * GRANULE_SIZE
    report = m.step(vcpu, 10)
    # zeroes decode as halt
    assert (report.stop, report.steps, vcpu.pc, vcpu.regs[3]) == ("halt", 1, g * GRANULE_SIZE, 0)


# ---------------------------------------------------------------------------
# Differential: caches kept against caches dropped before every step

# acc := data[0]; repeat x3 times: acc := f(acc + x3); data[0] := acc; then
# x3 := acc.  The five ALU ops from the add on are one block.
LOOP = [
    ("movi", 13, BASE + DATA),
    ("label", "loop"),
    ("load", 5, 13, 0),
    ("label", "slot"),
    ("add", 5, 5, 3),
    ("movi", 6, 5),
    ("mul", 7, 5, 6),
    ("xor", 5, 5, 7),
    ("addi", 5, 5, 1),
    ("store", 5, 13, 0),
    ("addi", 3, 3, -1),
    ("bnz", 3, "@loop"),
    ("load", 3, 13, 0),
]
SLOT = 2 * isa.INSTR_SIZE  # the add, which the code rewrite replaces
REWRITES = [isa.encode(op, rd=5, rs1=5, rs2=3) for op in (isa.OP_ADD, isa.OP_XOR, isa.OP_MUL)]

MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.just("rewrite"), st.just(CODE), st.sampled_from(REWRITES)),
    st.sampled_from([("emodpr", CODE, Perms.R | Perms.W), ("emodpr", CODE, Perms.R | Perms.X),
                     ("emodpr", DATA, Perms.R)]),
    st.tuples(st.sampled_from(["swap", "eremove", "host_peek"]), st.sampled_from([CODE, DATA]),
              st.none()),
)
# Each round changes memory (or not), then makes one ecall of n loop
# iterations in budgets of up to ``chunk`` steps, with interrupts after the
# given enclave steps.  Budgets of 1 to 12 end inside blocks, on the
# instruction that ends one, and past it.  At each interrupt the page given
# (if any) is written back, and the page fault it causes later loads it into
# another granule, as demand paging does.
ROUNDS = st.lists(
    st.tuples(MUTATIONS, st.integers(1, 6), st.sets(st.integers(1, 40), max_size=3),
              st.integers(1, 12), st.sampled_from([None, CODE, DATA])),
    min_size=1, max_size=8,
)


def _drive(mode, rounds, drop_caches):
    """Run a warm-up ecall and then ``rounds`` on a fresh machine; returns
    what a run can observe.  With ``drop_caches`` each budget is taken one
    instruction at a time, and both caches are emptied before every step, so
    every access takes the checked path; without, each budget is one call of
    ``step``."""
    m = Machine(small_config(mode=mode))
    m.trace = []  # keep the records, so the two runs compare them
    enc = _enclave(m, LOOP)
    va = free_epc_granules(m, 1)[0]
    m.leaf("EPA", va)
    vcpu = m.vcpus[0]
    seen = []

    def advance(budget):
        """Step up to ``budget`` instructions; the report of the whole run."""
        if not drop_caches:
            return m.step(vcpu, budget)
        steps = 0
        for _ in range(budget):
            m.memory.gpts.flush_translations()
            m.memory.decoded.clear()
            report = m.step(vcpu, 1)
            steps += report.steps
            if report.stop != "limit":
                break
        fault = report.fault and {**report.fault, "step": steps}
        return RunReport(report.stop, steps, fault)

    def run(budget, chunk=1, irqs=(), done=0):
        """Step up to ``budget`` instructions in budgets of up to ``chunk``,
        interrupting the enclave after each step number in ``irqs``
        (counted from ``done``)."""
        end = done + budget
        while done < end:
            due = min((i for i in irqs if i > done), default=end)
            report = advance(min(chunk, due - done, end - done))
            seen.append((report.stop, report.steps, report.fault, vcpu.pc))
            done += report.steps
            if report.stop != "limit":
                return report.stop, done
            if vcpu.in_enclave and done in irqs:
                m.inject_interrupt(vcpu)
        return "limit", done

    def page(off):
        return m.memory.find_page(enc.eid, BASE + off)

    swapped = []  # the page written back at an interrupt: (granule, blob)

    def ecall(n, irqs, chunk, evict=None):
        vcpu.regs[3] = n
        m.enclu(vcpu, 0x2, enc.pages[TCS], AEP_GATE)
        stop, done = run(300, chunk, irqs)
        while stop == "halt" and vcpu.pc == AEP_GATE:
            if vcpu.last_exit[0] == EXIT_IRQ:
                if evict is not None and page(evict) is not None and not swapped:
                    g = page(evict)
                    m.leaf("EBLOCK", g)
                    m.leaf("ETRACK", enc.eid)
                    swapped.append((g, m.leaf("EWB", g, va, 1)))
            elif vcpu.last_exit[0] == EXIT_PAGEFAULT and swapped:
                g, blob = swapped.pop()
                target = next(t for t in free_epc_granules(m, 2) if t != g)
                m.leaf("ELDU", blob.ciphertext, blob.pcmd, va, 1, target, enc.eid)
            else:
                break
            m.enclu(vcpu, 0x3, vcpu.regs[2], AEP_GATE)
            stop, done = run(300, chunk, irqs, done)
        seen.append(("x3", vcpu.regs[3]))

    def mutate(kind, off, arg):
        g = page(off)
        if kind == "host_peek":
            probe = free_host_granule(m)
            m.host_write(probe, 0, isa.assemble(
                [("movi", 5, (g or 0) * GRANULE_SIZE), ("load", 6, 5, 0), ("halt",)],
                origin=probe * GRANULE_SIZE))
            vcpu.pc = probe * GRANULE_SIZE
            run(10)
        elif g is None:
            pass
        elif kind == "rewrite":
            m.leaf("EDBGWR", g, SLOT, arg)
        elif kind == "emodpr":
            m.leaf("EMODPR", g, arg)
        elif kind == "eremove":
            m.leaf("EREMOVE", g)
        else:
            _reload_elsewhere(m, enc.eid, g, va)

    steps = [partial(ecall, 3, (), 1)]
    for mutation, n, irqs, chunk, evict in rounds:
        if mutation is not None:
            steps.append(partial(mutate, *mutation))
        steps.append(partial(ecall, n, irqs, chunk, evict))
    for action in steps:
        try:
            action()
        except SgxError as err:
            seen.append(("refused", err.code.name))
    return seen, list(vcpu.regs), m.trace, m.memory.gpf_log


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sgx", "ccx"]), ROUNDS)
def test_cached_run_equals_a_run_with_caches_dropped_every_step(mode, rounds):
    assert _drive(mode, rounds, drop_caches=False) == _drive(mode, rounds, drop_caches=True)
