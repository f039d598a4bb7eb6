"""The interpreter's translation and decode caches change nothing but wall
time.  Each targeted case warms the caches, changes memory behind them, and
runs again; the differential test compares a machine whose caches are
dropped before every single step with one that keeps them and runs whole
budgets, and a call driven through ``HostRuntime.call`` with every cache
dropped at each of its yields must equal an undisturbed ``ecall``."""

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

from helpers import (BASE, build_raw_enclave, free_epc_granules, free_host_granule,
                     host_scratch_granules, small_config)

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


def test_store_rewriting_the_next_instruction_is_fetched_next(m):
    """``slot`` runs and is cached, then the store just before it rewrites
    its immediate, and it runs again at once, whatever budget each step
    call has."""
    enc = _enclave(m, [
        ("movi", 3, 0),
        ("movi", 5, 1),
        ("movi", 7, 1),
        ("movi", 8, "@slot"),
        ("jmp", "@slot"),
        ("label", "rewrite"),
        ("movi", 5, 0),
        ("store", 7, 8, 8),  # the immediate of the next instruction
        ("label", "slot"),
        ("addi", 3, 3, 100),
        ("bnz", 5, "@rewrite"),
    ])
    vcpu = m.vcpus[0]
    slot = 7 * isa.INSTR_SIZE  # the addi
    for budget in range(1, 14):
        m.leaf("EDBGWR", enc.pages[CODE], slot + 8, (100).to_bytes(8, "little"))
        m.enclu(vcpu, 0x2, enc.pages[TCS], AEP_GATE)
        report = m.step(vcpu, budget)
        while report.stop == "limit":
            report = m.step(vcpu, budget)
        assert report.stop == "halt" and not vcpu.in_enclave
        assert vcpu.regs[3] == 101, budget


def test_loads_and_stores_chain_to_the_next_block_with_no_fetch(m, monkeypatch):
    """One page of alternating load, ALU and store blocks takes one code
    fetch per step call that starts inside, whatever the budget."""
    program = [("movi", 13, BASE + DATA)]
    for i in range(6):
        program += [("load", 5, 13, 8 * i), ("addi", 5, 5, i + 1), ("store", 5, 13, 8 * i)]
    enc = _enclave(m, program)
    fetches = []
    code_page = execution._code_page
    monkeypatch.setattr(execution, "_code_page",
                        lambda mach, vcpu, pc: fetches.append(pc) or code_page(mach, vcpu, pc))
    vcpu = m.vcpus[0]
    budgets = range(1, 25)
    for budget in budgets:
        m.enclu(vcpu, 0x2, enc.pages[TCS], AEP_GATE)
        report = RunReport("limit", 0)
        while report.stop == "limit":
            inside = vcpu.in_enclave
            fetches.clear()
            report = m.step(vcpu, budget)
            assert sum(BASE <= pc < BASE + GRANULE_SIZE for pc in fetches) == inside, budget
        assert report.stop == "halt" and not vcpu.in_enclave
    for i in range(6):
        word = m.leaf("EDBGRD", enc.pages[DATA], 8 * i, 8)
        assert int.from_bytes(word, "little") == DATA_WORD + len(budgets) * (i + 1)


def test_edbgwr_between_ecalls_is_fetched_next(m):
    enc = _enclave(m, [("movi", 3, 111)])
    assert _call(m, enc)[1] == 111
    m.leaf("EDBGWR", enc.pages[CODE], 0, isa.encode(isa.OP_MOVI, rd=3, imm=222))
    assert _call(m, enc)[1] == 222


def _counting_decodes(monkeypatch):
    """The instructions decoded from now on, one entry each."""
    decoded = []
    decode = isa.decode
    monkeypatch.setattr(isa, "decode", lambda word: decoded.append(word) or decode(word))
    return decoded


def test_two_enclaves_of_one_image_share_blocks_until_one_is_rewritten(m, monkeypatch):
    """The second enclave of an image decodes nothing: its code granule
    takes the blocks of its twin, fetched at the same address with the same
    bytes.  A debug write to one twin's code drops only that granule's tie
    to them, so it runs its new code and the other its old."""
    a, b = (_enclave(m, [("movi", 3, 111)]) for _ in range(2))
    ga, gb = a.pages[CODE], b.pages[CODE]
    assert _call(m, a)[1] == 111
    decoded = _counting_decodes(monkeypatch)
    assert _call(m, b)[1] == 111
    assert decoded == [] and m.memory.decoded[ga] is m.memory.decoded[gb]
    m.leaf("EDBGWR", ga, 0, isa.encode(isa.OP_MOVI, rd=3, imm=222))
    assert ga not in m.memory.decoded
    for _ in range(2):
        assert _call(m, a)[1] == 222
        assert _call(m, b)[1] == 111
    assert m.memory.decoded[ga] is not m.memory.decoded[gb]
    # writing the old word back makes the twins' bytes equal again
    m.leaf("EDBGWR", ga, 0, isa.encode(isa.OP_MOVI, rd=3, imm=111))
    decoded.clear()
    assert _call(m, a)[1] == 111
    assert decoded == [] and m.memory.decoded[ga] is m.memory.decoded[gb]


def test_the_same_bytes_at_another_page_address_are_decoded_again(m, monkeypatch):
    """Blocks are keyed by the page address too: a loop's block names its
    own start address, so identical bytes fetched at another page do not
    take the first page's blocks."""
    program = isa.assemble([("movi", 3, 5), ("halt",)], origin=0)
    g1, g2 = host_scratch_granules(m, 2)
    vcpu = m.vcpus[0]
    for g in (g1, g2):
        m.host_write(g, 0, program)
    vcpu.pc = g1 * GRANULE_SIZE
    assert m.step(vcpu, 10).stop == "halt" and vcpu.regs[3] == 5
    decoded = _counting_decodes(monkeypatch)
    vcpu.regs[3], vcpu.pc = 0, g2 * GRANULE_SIZE
    assert m.step(vcpu, 10).stop == "halt" and vcpu.regs[3] == 5
    assert decoded and m.memory.decoded[g1] is not m.memory.decoded[g2]


def test_the_page_memo_stays_at_its_bound(m):
    """Code pages of ever new bytes keep at most ``BLOCK_MEMO_SIZE`` entries
    in the page memo, the oldest out first."""
    g = free_host_granule(m)
    vcpu = m.vcpus[0]
    for i in range(execution.BLOCK_MEMO_SIZE + 20):
        m.host_write(g, 0, isa.assemble([("movi", 3, i), ("halt",)], origin=g * GRANULE_SIZE))
        vcpu.pc = g * GRANULE_SIZE
        assert m.step(vcpu, 10).stop == "halt" and vcpu.regs[3] == i
        assert len(m.memory.page_blocks) == min(i + 1, execution.BLOCK_MEMO_SIZE)
    assert all(page == g * GRANULE_SIZE for page, _ in m.memory.page_blocks)


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
    resolved = []
    resolve = execution._resolve

    def counting_resolve(mach, vcpu, addr, size, kind):
        resolved.append((addr, kind))
        return resolve(mach, vcpu, addr, size, kind)

    monkeypatch.setattr(execution, "_resolve", counting_resolve)
    assert rt.ecall(b, 0, fixtures.SEL_PEEK, host * GRANULE_SIZE) == DATA_WORD
    assert resolved == []


def _assert_every_translation_names_a_live_page(m, rt):
    """Each cache key names a page of a live enclave, resident or in the swap
    store, or a page of physical memory."""
    for eid, page, _ in m.memory.tlb:
        secs = m.enclaves[eid] if eid is not None else None
        if secs is not None and secs.contains(page):
            assert m.memory.find_page(eid, page) is not None or rt.store.has(eid, page)
        else:
            assert page < m.memory.granule_count * GRANULE_SIZE


def test_translation_cache_stays_bounded_over_swaps_and_forgets_a_destroyed_enclave(m, tmp_path):
    """Two enclaves swap their scratch pages out and back in, in turns, so
    each comes back into the granule the other left: stale translations are
    overwritten by the next miss, not piled up, and a destroy leaves none of
    the dead enclave's keys."""
    rt = HostRuntime(m)
    manifest = EnclaveManifest.load(fixtures.write_standard_manifest(tmp_path))
    a, b = rt.load_enclave(manifest), rt.load_enclave(manifest)
    scratch = a.base + fixtures.SCRATCH_OFF  # the same address in both
    host = rt.take_host_granule() * GRANULE_SIZE
    sizes, granules = [], set()
    for i in range(6):
        for h in (a, b):  # a page in the swap store faults back in here
            rt.ecall(h, 0, fixtures.SEL_POKE, scratch, i)
            assert rt.ecall(h, 0, fixtures.SEL_PEEK, scratch) == i
            rt.ecall(h, 0, fixtures.SEL_PEEK, host)
        granules.add(m.memory.find_page(a.eid, scratch))
        rt.swap_out(a, scratch)
        rt.swap_out(b, scratch)
        rt.swap_in(b if i % 2 else a, scratch)
        _assert_every_translation_names_a_live_page(m, rt)
        sizes.append(len(m.memory.tlb))
    assert len(granules) == 2 and sizes == sizes[:1] * 6
    rt.destroy(a)
    assert not any(key[0] == a.eid for key in m.memory.tlb)
    _assert_every_translation_names_a_live_page(m, rt)


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
            m.memory.tlb.clear()
            m.memory.decoded.clear()
            m.memory.page_blocks.clear()
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


def _calls(mode, inject, drop_caches):
    """A poke into a data page swapped out before the call, so demand paging
    runs, then a compute loop, both with interrupts; returns each call's
    result and registers, the page-ins and the trace records.  With
    ``drop_caches`` each call is driven through ``HostRuntime.call`` and
    every cache is emptied at each of its yields; without, each is one
    ``ecall``."""
    rt = HostRuntime(Machine(small_config(mode=mode)))
    m = rt.machine
    standard, compute = (rt.load_enclave(EnclaveManifest.parse(fixtures.build_manifest_text(
        program, name=name))) for name, program in (("standard", fixtures.standard_program()),
                                                     ("compute", fixtures.compute_program())))
    m.trace = []
    slot = standard.base + fixtures.SCRATCH_OFF + 0x40
    assert rt.ecall(standard, 0, fixtures.SEL_POKE, slot, 7) == 7  # warm every cache
    rt.swap_out(standard, slot)
    seen = []
    for handle, args in ((standard, (fixtures.SEL_POKE, slot, DATA_WORD)), (compute, (0, 30))):
        if drop_caches:
            calling = rt.call(handle, 0, *args, inject_at=inject)
            while True:
                m.memory.tlb.clear()
                m.memory.decoded.clear()
                m.memory.page_blocks.clear()
                m.memory.compiled.clear()
                try:
                    next(calling)
                except StopIteration as done:
                    result = done.value
                    break
        else:
            result = rt.ecall(handle, 0, *args, inject_at=inject)
        seen.append((result, list(m.vcpus[0].regs)))
    return seen, rt.swap_in_events, m.trace


@pytest.mark.parametrize("mode", ["sgx", "ccx"])
@pytest.mark.parametrize("inject", [{2, 5, 9, 16, 20, 60, 61, 150}, "every"], ids=["some", "every"])
def test_a_call_with_caches_dropped_at_every_chunk_equals_an_undisturbed_ecall(mode, inject):
    kept = _calls(mode, inject, drop_caches=False)
    assert _calls(mode, inject, drop_caches=True) == kept
    seen, swap_ins, trace = kept
    assert [result for result, _ in seen] == [DATA_WORD, fixtures.compute_expected(30)]
    assert swap_ins == 1 and any(r["kind"] == "aex" and r["reason"] == "pagefault" for r in trace)
    assert sum(r["kind"] == "eresume" for r in trace) > 2
