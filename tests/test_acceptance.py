"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (the per-criterion lines
bypass output capture so they are always visible).  Criteria with a stated
runtime budget assert it.
"""

import dataclasses
import random
import sys
import time
from contextlib import contextmanager

import pytest

from ccxsim import cli, execution, fixtures
from ccxsim.bench import run_leaf_bench
from ccxsim.config import Config
from ccxsim.errors import GranuleProtectionFault, SgxError, SgxErrorCode as E
from ccxsim.machine import ALL_LEAF_NAMES, Machine
from ccxsim.manifest import EnclaveManifest
from ccxsim.memory import (
    GRANULE_SIZE,
    AccessContext,
    PageType,
    Pas,
    Perms,
    SecurityState,
)
from ccxsim.runtime import AEP_GATE, HostRuntime, RETURN_GATE
from ccxsim.structs import KeyPolicy, Pcmd, SecInfo, SigStruct

from helpers import BASE, build_raw_enclave, free_epc_granules, small_config
from oracles import ACCESS_TRUTH, reference_measurement


@contextmanager
def criterion(number: int, title: str, limit: float = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"criterion {number:>2} FAIL  {title}\n")
        sys.__stdout__.flush()
        raise
    elapsed = time.monotonic() - start
    note = f" ({elapsed:.2f}s" + (f" < {limit:.0f}s)" if limit else ")")
    if limit is not None and elapsed > limit:
        sys.__stdout__.write(f"criterion {number:>2} FAIL  {title}: over budget{note}\n")
        sys.__stdout__.flush()
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {limit}s budget")
    sys.__stdout__.write(f"criterion {number:>2} PASS  {title}{note}\n")
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------
# 1. Leaf coverage


def test_criterion_01_leaf_coverage():
    with criterion(1, "all 25 leaves dispatch; undefined leaves fault", limit=10):
        report = run_leaf_bench(Config(granule_count=2048, epc_base=64, epc_size=512),
                                iterations=2)
        assert len(report.per_leaf) == 25
        for name in ALL_LEAF_NAMES:
            assert report.per_leaf[name]["count"] >= 2, name

        machine = Machine(small_config())
        vcpu = machine.vcpus[0]
        for leaf in (0x10, 0x11, 0x1F, 0xFF):
            with pytest.raises(SgxError) as exc:
                machine.encls(leaf)
            assert exc.value.code == E.INVALID_LEAF
        for leaf in (0x8, 0xA, 0x1F, 0xFF):
            with pytest.raises(SgxError) as exc:
                machine.enclu(vcpu, leaf)
            assert exc.value.code == E.INVALID_LEAF
        with pytest.raises(SgxError) as exc:
            execution.gadget_trap(machine, vcpu, execution.TrapFrame(smc_id=0x7, leaf=0))
        assert exc.value.code == E.INVALID_SERVICE


# ---------------------------------------------------------------------------
# 2. Access matrix


def test_criterion_02_access_matrix():
    with criterion(2, "20/20 access-matrix cells match the transcription", limit=1):
        machine = Machine(small_config())
        mem = machine.memory
        probe = 5
        cells = 0
        for pas in Pas:
            mem.gpts.set_entry(probe, pas)
            for accessor in SecurityState:
                got = mem.check_access(accessor, probe, None)
                assert got == ACCESS_TRUTH[accessor.name][pas.name], (accessor, pas)
                cells += 1
        assert cells == 20
        mem.gpts.set_entry(probe, Pas.NORMAL)


# ---------------------------------------------------------------------------
# 3. Isolation fuzz


def test_criterion_03_isolation_fuzz():
    with criterion(3, "10k random accesses: no cross-boundary read succeeds", limit=30):
        machine = Machine(small_config(granule_count=1024, epc_base=32, epc_size=512,
                                       audit_after_leaf=True))
        enclaves = [
            build_raw_enclave(
                machine, measure=False,
                page_specs=[(0x1000 * i, "rw", bytes([n]) * 64) for i in range(8)],
            )
            for n in range(3)
        ]
        owner_of = {}
        for enc in enclaves:
            owner_of[enc.secs_granule] = enc.eid
            for g in enc.pages.values():
                owner_of[g] = enc.eid
        owned_granules = sorted(owner_of)

        contexts = [("host", AccessContext(SecurityState.NORMAL, None), None)] + [
            (f"enclave{e.eid}", AccessContext(SecurityState.REALM, e.eid), e.eid)
            for e in enclaves
        ]
        rng = random.Random(303)
        cross_attempts = 0
        denials = 0
        for i in range(10_000):
            name, ctx, actor_eid = rng.choice(contexts)
            # half the probes aim straight at protected pages, the rest roam
            if rng.random() < 0.5:
                g = rng.choice(owned_granules)
            else:
                g = rng.randrange(2, machine.memory.granule_count)
            owner = owner_of.get(g)
            cross = owner is not None and owner != actor_eid
            log_before = len(machine.memory.gpf_log)
            try:
                machine.memory.read_granule(ctx, g, 0, 8)
                assert not cross, f"cross-boundary read succeeded: {name} -> {g}"
            except GranuleProtectionFault:
                assert cross, f"in-boundary read denied: {name} -> {g}"
                assert len(machine.memory.gpf_log) == log_before + 1
                denials += 1
            if cross:
                cross_attempts += 1
            # sprinkle microprograms through the fuzz; each one audits the
            # table invariants (audit_after_leaf is on)
            if i % 500 == 250:
                spare = free_epc_granules(machine, 1)[0]
                machine.leaf("EAUG", enclaves[i % 3].eid, BASE + 0x40000, spare)
                machine.leaf("EREMOVE", spare)
        assert cross_attempts > 1000
        assert denials == cross_attempts
        machine.audit()


# ---------------------------------------------------------------------------
# 4. Measurement oracle


def test_criterion_04_measurement_oracle(tmp_path):
    with criterion(4, "loader measurement equals reference; 32/32 bit flips differ", limit=5):
        machine = Machine(small_config(granule_count=2048, epc_base=32, epc_size=1024))
        rt = HostRuntime(machine)
        writers = [
            (fixtures.write_standard_manifest, "m1", {}),
            (fixtures.write_standard_manifest, "m2", {"salt": b"variant"}),
            (fixtures.write_compute_manifest, "m3", {}),
            (fixtures.write_notify_manifest, "m4", {}),
            (fixtures.write_toucher_manifest, "m5", {"size": 1 << 23}),
        ]
        for writer, name, kw in writers:
            manifest = EnclaveManifest.load(writer(tmp_path, name, **kw))
            handle = rt.load_enclave(manifest)
            assert handle.mrenclave == reference_measurement(manifest), name
            rt.destroy(handle)

        # single-bit sensitivity over measured content
        program = fixtures.standard_program()
        baseline = rt.load_enclave(EnclaveManifest.parse(
            fixtures.build_manifest_text(program, name="flip")))
        rng = random.Random(404)
        seen = set()
        for trial in range(32):
            flipped = bytearray(program)
            bit = rng.randrange(len(program) * 8)
            while bit in seen:
                bit = rng.randrange(len(program) * 8)
            seen.add(bit)
            flipped[bit // 8] ^= 1 << (bit % 8)
            manifest = EnclaveManifest.parse(
                fixtures.build_manifest_text(bytes(flipped), name=f"flip{trial}"))
            handle = rt.load_enclave(manifest)
            assert handle.mrenclave != baseline.mrenclave, f"trial {trial}"
            assert handle.mrenclave == reference_measurement(manifest)
            rt.destroy(handle)


# ---------------------------------------------------------------------------
# 5. EINIT soundness


def test_criterion_05_einit_soundness():
    with criterion(5, "100 mutated identity statements rejected, honest one accepted"):
        machine = Machine(small_config())
        rng = random.Random(505)

        def fresh_uninit():
            return build_raw_enclave(machine, init=False,
                                     page_specs=[(0x0, "rx", b"\x33" * GRANULE_SIZE)])

        enc = fresh_uninit()
        secs = machine.enclaves[enc.eid]
        honest = machine.crypto.sign_sigstruct(
            secs.mrenclave_state.copy().final(), secs.attributes.signed_view(), 1, 1)

        rejected = 0
        for trial in range(100):
            kind = trial % 3
            if kind == 0:  # flip a signature byte
                sig = SigStruct.from_bytes(honest.to_bytes())
                pos = rng.randrange(64)
                sig.signature = (sig.signature[:pos]
                                 + bytes([sig.signature[pos] ^ (1 << rng.randrange(8))])
                                 + sig.signature[pos + 1:])
                expect = E.SIG_INVALID
            elif kind == 1:  # properly signed statement over a wrong hash
                wrong = bytearray(honest.enclavehash)
                wrong[rng.randrange(32)] ^= 1 << rng.randrange(8)
                sig = machine.crypto.sign_sigstruct(
                    bytes(wrong), honest.attributes, 1, 1)
                expect = E.MEASUREMENT_MISMATCH
            else:  # properly signed statement over wrong attributes
                sig = machine.crypto.sign_sigstruct(
                    honest.enclavehash, honest.attributes ^ (1 << rng.randrange(4)), 1, 1)
                expect = E.ATTRIBUTE_MISMATCH
            with pytest.raises(SgxError) as exc:
                machine.leaf("EINIT", enc.eid, sig)
            assert exc.value.code == expect, trial
            assert not machine.enclaves[enc.eid].initialized
            rejected += 1
        assert rejected == 100
        machine.leaf("EINIT", enc.eid, honest)
        assert machine.enclaves[enc.eid].initialized


# ---------------------------------------------------------------------------
# 6. Swap round trip and anti-replay


def test_criterion_06_swap_roundtrip_antireplay():
    with criterion(6, "200 swap cycles bit-exact; replays and tampers rejected"):
        machine = Machine(small_config(granule_count=1024, epc_base=32, epc_size=512,
                                       audit_after_leaf=False))
        specs = [(0x1000 * i, "rw", b"") for i in range(8)]
        enc = build_raw_enclave(machine, page_specs=specs, measure=False)
        va = free_epc_granules(machine, 1)[0]
        machine.leaf("EPA", va)
        rng = random.Random(606)

        for cycle in range(200):
            off = rng.choice(sorted(enc.pages))
            g = machine.memory.find_page(enc.eid, BASE + off)
            content = rng.randbytes(GRANULE_SIZE)
            machine.leaf("EDBGWR", g, 0, content)
            slot = rng.randrange(512)
            machine.leaf("EBLOCK", g)
            machine.leaf("ETRACK", enc.eid)
            blob = machine.leaf("EWB", g, va, slot)

            target = free_epc_granules(machine, 1)[0]
            machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, slot, target, enc.eid)
            assert machine.leaf("EDBGRD", target, 0, GRANULE_SIZE) == content, cycle

            # replay of the consumed triple: the slot was cleared on reload
            spare = free_epc_granules(machine, 1)[0]
            with pytest.raises(SgxError) as exc:
                machine.leaf("ELDU", blob.ciphertext, blob.pcmd, va, slot,
                             spare, enc.eid)
            assert exc.value.code == E.VERSION_MISMATCH, cycle

            # 1-byte tamper of a fresh writeback of the same page
            machine.leaf("EBLOCK", target)
            machine.leaf("ETRACK", enc.eid)
            slot2 = rng.randrange(512)
            blob2 = machine.leaf("EWB", target, va, slot2)
            wire = bytearray(blob2.ciphertext + blob2.pcmd.pack())
            pos = rng.randrange(len(wire))
            wire[pos] ^= 1 << rng.randrange(8)
            tampered_ct = bytes(wire[: len(blob2.ciphertext)])
            tampered_pcmd = Pcmd.unpack(bytes(wire[len(blob2.ciphertext):]))
            t2 = free_epc_granules(machine, 1)[0]
            with pytest.raises(SgxError) as exc:
                machine.leaf("ELDU", tampered_ct, tampered_pcmd, va, slot2, t2, enc.eid)
            assert exc.value.code == E.MAC_COMPARE_FAIL, cycle

            # honest reload puts the page back for the next cycle
            machine.leaf("ELDU", blob2.ciphertext, blob2.pcmd, va, slot2, t2, enc.eid)
            assert machine.leaf("EDBGRD", t2, 0, GRANULE_SIZE) == content, cycle
            enc.pages[off] = t2
        machine.audit()


# ---------------------------------------------------------------------------
# 7. Track gating interleavings


def test_criterion_07_etrack_gating():
    with criterion(7, "writeback gated until pre-track threads exit, 50 interleavings"):
        for trial in range(50):
            rng = random.Random(7000 + trial)
            machine = Machine(small_config(audit_after_leaf=False))
            enc = build_raw_enclave(
                machine,
                page_specs=[
                    (0x0000, "rx", b"\x11" * GRANULE_SIZE),
                    (0x1000, "rw", b"\x22" * GRANULE_SIZE),
                    (0x2000, "rw", b""), (0x3000, "rw", b""),
                    (0x6000, "rw", b""), (0x7000, "rw", b""),
                ],
                tcs_specs=[
                    {"vaddr": 0x4000, "ossa": 0x2000},
                    {"vaddr": 0x5000, "ossa": 0x6000},
                ],
            )
            va = free_epc_granules(machine, 1)[0]
            machine.leaf("EPA", va)
            g = enc.granule(0x1000)
            threads = [(machine.vcpus[0], enc.pages[0x4000]),
                       (machine.vcpus[1], enc.pages[0x5000])]
            inside = []
            for vcpu, tcs in threads:
                if rng.random() < 0.8:
                    machine.enclu(vcpu, 0x2, tcs, AEP_GATE)
                    inside.append((vcpu, tcs))
            machine.leaf("EBLOCK", g)
            machine.leaf("ETRACK", enc.eid)
            pre_track = list(inside)
            rng.shuffle(pre_track)
            for vcpu, tcs in pre_track:
                # before this thread exits the writeback must be refused
                with pytest.raises(SgxError) as exc:
                    machine.leaf("EWB", g, va, 0)
                assert exc.value.code == E.NOT_TRACKED, trial
                machine.enclu(vcpu, 0x4, RETURN_GATE)
                inside.remove((vcpu, tcs))
                if inside and rng.random() < 0.5:
                    # a thread entering *after* the track must not re-gate
                    pass
            if rng.random() < 0.5 and threads:
                vcpu, tcs = threads[0]
                machine.enclu(vcpu, 0x2, tcs, AEP_GATE)  # current epoch
            machine.leaf("EWB", g, va, 0)  # all pre-track threads have left


# ---------------------------------------------------------------------------
# 8. Context round trip and interrupt transparency


def test_criterion_08_context_roundtrip_and_transparency(tmp_path):
    with criterion(8, "100 register states survive exit/resume; schedules agree", limit=60):
        machine = Machine(small_config(audit_after_leaf=False))
        enc = build_raw_enclave(
            machine,
            page_specs=[(0x0000, "rx", b"\x11" * GRANULE_SIZE),
                        (0x1000, "rw", b"\x22" * GRANULE_SIZE),
                        (0x2000, "rw", b""), (0x3000, "rw", b"")],
            tcs_specs=[{"vaddr": 0x4000, "ossa": 0x2000, "tls_base": 0x1000}],
        )
        tcs_g = enc.pages[0x4000]
        vcpu = machine.vcpus[0]
        rng = random.Random(808)
        for _ in range(100):
            vcpu.regs = [rng.getrandbits(64) for _ in range(32)]
            vcpu.pstate = rng.getrandbits(64)
            machine.enclu(vcpu, 0x2, tcs_g, AEP_GATE)
            snapshot = (list(vcpu.regs), vcpu.pc, vcpu.pstate, vcpu.tpidr)
            machine.inject_interrupt(vcpu)
            machine.enclu(vcpu, 0x3, tcs_g, AEP_GATE)
            assert (list(vcpu.regs), vcpu.pc, vcpu.pstate, vcpu.tpidr) == snapshot
            machine.enclu(vcpu, 0x4, RETURN_GATE)

        # ~1000-step deterministic program under 0 / 1 / every-step interrupts
        m2 = Machine(small_config(granule_count=1024, epc_size=256,
                                  audit_after_leaf=False))
        rt = HostRuntime(m2)
        path = fixtures.write_compute_manifest(tmp_path, "transparency")
        h = rt.load_enclave(EnclaveManifest.load(path))
        expected = fixtures.compute_expected(165)
        assert rt.ecall(h, 0, 0, 165) == expected
        assert rt.ecall(h, 0, 0, 165, inject_at={499}) == expected
        assert rt.ecall(h, 0, 0, 165, inject_at="every") == expected
        resumes = m2.counters["ERESUME"]
        assert resumes > 900  # the every-step schedule really single-stepped


# ---------------------------------------------------------------------------
# 9. Notify flow


def test_criterion_09_notify_flow(tmp_path):
    with criterion(9, "notify handler runs at cssa=1, retires the slot, result intact"):
        machine = Machine(small_config(granule_count=1024, epc_size=256,
                                       audit_after_leaf=False))
        rt = HostRuntime(machine)
        h = rt.load_enclave(EnclaveManifest.load(
            fixtures.write_notify_manifest(tmp_path, "notify9")))
        result = rt.ecall(h, 0, 0, 150, inject_at={321})
        assert result == fixtures.compute_expected(150)
        scratch_g = machine.memory.find_page(h.eid, h.base + fixtures.SCRATCH_OFF)
        read = lambda off: int.from_bytes(machine.leaf("EDBGRD", scratch_g, off, 8), "little")
        assert read(fixtures.SCRATCH_NOTIFY_RAN) == 1
        assert read(fixtures.SCRATCH_NOTIFY_CSSA) == 1
        tcs_g = machine.memory.find_page(h.eid, h.tcs_vaddrs[0])
        assert machine.read_tcs(tcs_g).cssa == 0  # retired via EDECCSSA

        # flag clear: plain resume semantics, handler never runs
        h2 = rt.load_enclave(EnclaveManifest.load(
            fixtures.write_compute_manifest(tmp_path, "plain9")))
        result = rt.ecall(h2, 0, 0, 150, inject_at={321})
        assert result == fixtures.compute_expected(150)
        scratch_g2 = machine.memory.find_page(h2.eid, h2.base + fixtures.SCRATCH_OFF)
        ran = int.from_bytes(
            machine.leaf("EDBGRD", scratch_g2, fixtures.SCRATCH_NOTIFY_RAN, 8), "little")
        assert ran == 0


# ---------------------------------------------------------------------------
# 10. Dynamic page management


def test_criterion_10_sgx2_dynamics(tmp_path):
    with criterion(10, "grow/accept, restriction matrix, type changes, trims"):
        import itertools

        machine = Machine(small_config(granule_count=1024, epc_size=512,
                                       audit_after_leaf=False))
        rt = HostRuntime(machine)
        h = rt.load_enclave(EnclaveManifest.load(
            fixtures.write_standard_manifest(tmp_path, "dyn10")))
        from ccxsim.runtime import EnclaveFault

        # grow: faults until accepted, then reads back zero
        vaddr = h.base + 0x20000
        g = free_epc_granules(machine, 1)[0]
        machine.leaf("EAUG", h.eid, vaddr, g)
        with pytest.raises(EnclaveFault):
            rt.ecall(h, 0, fixtures.SEL_PEEK, vaddr)
        with rt.entered(h) as vcpu:
            machine.enclu(vcpu, 0x5, g, SecInfo(Perms.R | Perms.W, PageType.REG))
        assert rt.ecall(h, 0, fixtures.SEL_PEEK, vaddr) == 0

        # full permission-pair matrix
        all_perms = [Perms(bits) for bits in range(8)]
        cells = 0
        for current, requested in itertools.product(all_perms, all_perms):
            gp = free_epc_granules(machine, 1)[0]
            pv = h.base + 0x30000
            machine.leaf("EAUG", h.eid, pv, gp)
            with rt.entered(h) as vcpu:
                machine.enclu(vcpu, 0x5, gp, SecInfo(Perms.R | Perms.W, PageType.REG))
            machine.leaf("EMODPR", gp, Perms.NONE)
            with rt.entered(h) as vcpu:
                machine.enclu(vcpu, 0x5, gp, SecInfo(Perms.NONE, PageType.REG))
                if current != Perms.NONE:
                    machine.enclu(vcpu, 0x6, gp, current)
            if requested & ~current:
                with pytest.raises(SgxError) as exc:
                    machine.leaf("EMODPR", gp, requested)
                assert exc.value.code == E.PERM_EXPANSION_ATTEMPT
            else:
                machine.leaf("EMODPR", gp, requested)
                with rt.entered(h) as vcpu:
                    machine.enclu(vcpu, 0x5, gp, SecInfo(requested, PageType.REG))
                assert machine.memory.epcm_lookup(gp).perms == requested
            machine.leaf("EREMOVE", gp)
            cells += 1
        assert cells == 64

        # type change to trim frees the page; illegal transitions rejected
        gt = free_epc_granules(machine, 1)[0]
        tv = h.base + 0x40000
        machine.leaf("EAUG", h.eid, tv, gt)
        with rt.entered(h) as vcpu:
            machine.enclu(vcpu, 0x5, gt, SecInfo(Perms.R | Perms.W, PageType.REG))
        machine.leaf("EMODT", gt, PageType.TRIM)
        with rt.entered(h) as vcpu:
            machine.enclu(vcpu, 0x5, gt, SecInfo(Perms.R | Perms.W, PageType.TRIM))
        machine.leaf("EREMOVE", gt)
        assert machine.memory.epcm_lookup(gt) is None
        tcs_g = machine.memory.find_page(h.eid, h.tcs_vaddrs[0])
        with pytest.raises(SgxError) as exc:
            machine.leaf("EMODT", tcs_g, PageType.REG)
        assert exc.value.code == E.PAGE_INVALID


# ---------------------------------------------------------------------------
# 11. Attestation and sealing pairs


def test_criterion_11_attestation_sealing_pairs(tmp_path):
    with criterion(11, "20 fixture pairs: mutual reports, policy-bound sealing"):
        machine = Machine(Config(granule_count=8192, mode="ccx", crypto_seed=11))
        rt = HostRuntime(machine)
        rng = random.Random(1111)

        def load(name, signer):
            path = fixtures.write_standard_manifest(
                tmp_path, name, salt=name.encode(), signer=signer)
            return rt.load_enclave(EnclaveManifest.load(path))

        for pair in range(20):
            same_signer = pair % 2 == 0
            signer_a = f"signer{pair}"
            signer_b = signer_a if same_signer else f"signer{pair}x"
            a = load(f"p{pair}a", signer_a)
            b = load(f"p{pair}b", signer_b)

            outcome = rt.attest(a, b)
            assert outcome.mutual, pair

            # tampering any field breaks verification
            report = outcome.report_ab
            field = rng.choice(["mrenclave", "mrsigner", "reportdata", "mac",
                                "attributes", "isv_svn"])
            if field in ("attributes", "isv_svn"):
                tampered = dataclasses.replace(report, **{field: getattr(report, field) ^ 1})
            elif field == "mac":
                tampered = dataclasses.replace(
                    report, mac=bytes([report.mac[0] ^ 1]) + report.mac[1:])
            else:
                value = bytearray(getattr(report, field))
                value[rng.randrange(len(value))] ^= 1
                tampered = dataclasses.replace(report, **{field: bytes(value)})
            assert not rt.verify_report(b, tampered), (pair, field)

            payload = rng.randbytes(48)
            own_blob = rt.seal(a, KeyPolicy.MRENCLAVE, payload)
            assert rt.unseal(a, own_blob) == payload
            assert rt.unseal(b, own_blob) is None

            signer_blob = rt.seal(a, KeyPolicy.MRSIGNER, payload)
            recovered = rt.unseal(b, signer_blob)
            if same_signer:
                assert recovered == payload, pair
            else:
                assert recovered is None, pair

            rt.destroy(a)
            rt.destroy(b)


# ---------------------------------------------------------------------------
# 12. Mode differential


def test_criterion_12_mode_differential(tmp_path):
    with criterion(12, "2x EPC workload: equal output; writebacks only in sgx mode"):
        path = fixtures.write_toucher_manifest(tmp_path, "diff12", size=1 << 23)
        epc_pages = 64
        touch = 2 * epc_pages
        outputs = {}
        counters = {}
        for mode in ("sgx", "ccx"):
            machine = Machine(Config(granule_count=2048, mode=mode,
                                     epc_base=64, epc_size=epc_pages, crypto_seed=12))
            rt = HostRuntime(machine)
            h = rt.load_enclave(EnclaveManifest.load(path))
            outputs[mode] = rt.ecall(h, 0, 1, touch, step_budget=20_000_000)
            counters[mode] = dict(machine.counters)
            machine.audit()
        assert outputs["sgx"] == outputs["ccx"] == fixtures.toucher_expected(touch)
        excess = touch - epc_pages
        assert counters["sgx"]["EWB"] >= excess
        assert counters["ccx"]["EWB"] == 0
        assert counters["ccx"]["ELDU"] == 0


# ---------------------------------------------------------------------------
# 13. Bench shape


def test_criterion_13_bench_shape():
    with criterion(13, "cost orderings hold; creation cost scales with machine size"):
        creation_costs = []
        for granules in (2048, 4096, 8192):
            report = run_leaf_bench(
                Config(granule_count=granules, epc_base=64, epc_size=512,
                       crypto_seed=13),
                iterations=2,
            )
            cost = {name: row["cost_per_op"] for name, row in report.per_leaf.items()}
            assert cost["EWB"] > cost["EBLOCK"]
            assert cost["ELDU"] > cost["ETRACK"]
            for name, value in cost.items():
                if name != "ECREATE":
                    assert cost["ECREATE"] > value, (granules, name)
            creation_costs.append(cost["ECREATE"])
        assert creation_costs[0] < creation_costs[1] < creation_costs[2]


# ---------------------------------------------------------------------------
# 14. Determinism


def test_criterion_14_report_determinism(tmp_path, capsys):
    with criterion(14, "identical seeds give byte-identical structured reports"):
        fixtures.write_demo_tree(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(Config(granule_count=2048, epc_base=64, epc_size=256,
                                   crypto_seed=14).to_json())

        outputs = []
        for _ in range(2):
            rc = cli.main(["run", str(tmp_path / "seal_unseal.scenario"),
                           "--config", str(cfg_path), "--json"])
            assert rc == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]

        bench_outputs = []
        for _ in range(2):
            rc = cli.main(["bench", "--config", str(cfg_path), "--iterations", "2",
                           "--json"])
            assert rc == 0
            bench_outputs.append(capsys.readouterr().out.encode())
        assert bench_outputs[0] == bench_outputs[1]
