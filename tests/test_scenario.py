"""Scenario scripts and their structured reports."""

import json
import re
from pathlib import Path

import pytest

from ccxsim import cli, fixtures, scenario
from ccxsim.config import Config
from ccxsim.scenario import ScenarioRunner, run_scenario

from helpers import reloads, small_config


@pytest.fixture
def demo_dir(tmp_path):
    fixtures.write_demo_tree(tmp_path)
    return tmp_path


def runner(base_dir=None):
    return ScenarioRunner(small_config(granule_count=1024, epc_base=32, epc_size=512), base_dir)


def run_text(text, base_dir):
    return runner(base_dir).run_text(text)


# ---------------------------------------------------------------------------


def test_lifecycle_scenario_passes(demo_dir):
    result = run_scenario(demo_dir / "lifecycle.scenario",
                          config=small_config(granule_count=1024, epc_size=512))
    assert result.ok
    assert result.summary["counters"]["ECREATE"] == 1
    assert result.summary["counters"]["EENTER"] >= 3


def test_seal_unseal_scenario_passes(demo_dir):
    result = run_scenario(demo_dir / "seal_unseal.scenario",
                          config=small_config(granule_count=2048, epc_size=1024))
    assert result.ok


def test_attest_scenario_passes(demo_dir):
    result = run_scenario(demo_dir / "attest.scenario",
                          config=small_config(granule_count=1024, epc_size=512))
    assert result.ok


def test_scenario_keeps_trace_records_only_in_a_sink_it_is_given(demo_dir):
    result = run_scenario(demo_dir / "mode_diff.scenario", Config(mode="sgx"))
    assert result.ok and result.summary["counters"]["EWB"] > 0
    assert len(result.machine.trace) == 0
    sink = []
    traced = ScenarioRunner(small_config(), trace=sink).run_file(demo_dir / "lifecycle.scenario")
    assert traced.ok and traced.machine.trace is sink
    assert len(sink) >= sum(traced.summary["counters"].values()) > 0


def test_a_peek_of_the_enclaves_own_tcs_page_faults_in_both_modes(demo_dir):
    """Enclave software may not read a TCS page
    (``memory.software_access_refusal``): the standard enclave's PEEK of its
    own TCS ends in a page fault, recorded by the ``try`` line, alike in both
    modes."""
    tcs = 0x200007000
    text = f"create a standard.manifest\ntry ecall a 0 {fixtures.SEL_PEEK} {tcs:#x}\n"
    assert scenario.compare_modes(text, Config(), demo_dir, table=()) == []
    for mode in ("sgx", "ccx"):
        sink = []
        result = ScenarioRunner(Config(mode=mode), demo_dir, trace=sink).run_text(text)
        assert result.ok and not result.events[1]["ok"]
        assert result.events[1]["error"] == f"EnclaveFault: enclave fault: pagefault at {tcs:#x}"
        faults = [record for record in sink if record["kind"] == "pagefault"]
        assert [(f["addr"], f["why"]) for f in faults] == [
            (tcs, "TCS pages are not software-addressable")]


def test_failing_expect_aborts_with_position(demo_dir):
    text = (
        "create app standard.manifest\n"
        "ecall app 0 1 7 0\n"
        "expect last == 8\n"
        "ecall app 0 1 9 0\n"
    )
    result = run_text(text, demo_dir)
    assert not result.ok
    assert result.summary["failed_at"] == 3
    assert "expectation failed" in result.summary["failure"]
    assert "state_snapshot" in result.summary
    # nothing past the failure executed
    assert result.events[-1]["line"] == 3


def test_leaf_counter_reads_zero_before_any_machine_exists(demo_dir):
    result = run_text("expect count:EADD == 0\ncreate app standard.manifest\n", demo_dir)
    assert result.ok
    result = run_text("expect count:EFOO == 0\n", demo_dir)
    assert not result.ok and result.summary["failed_at"] == 1
    assert "unknown leaf counter 'EFOO'" in result.summary["failure"]


def test_unknown_entity_reported(demo_dir):
    result = run_text("ecall ghost 0 1\n", demo_dir)
    assert not result.ok
    assert "unknown enclave" in result.summary["failure"]


def test_enclave_fault_aborts_scenario_with_report(demo_dir):
    # selector 9 is undefined in the fixture program and aborts
    result = run_text("create app standard.manifest\necall app 0 9 0 0\n", demo_dir)
    assert not result.ok
    assert result.summary["failed_at"] == 2
    assert "EnclaveFault" in result.summary["failure"]
    assert "abort" in result.summary["failure"]


def test_parse_error_reports_line(demo_dir):
    result = run_text("create app standard.manifest\nfrobnicate\n", demo_dir)
    assert not result.ok
    assert result.summary["failed_at"] == 2


def test_a_refused_try_line_is_recorded_and_the_run_goes_on(demo_dir):
    text = ("create a standard.manifest\ntry swap_in a 0x100000\ntry ecall ghost 0 1\n"
            "try ecall a 0 1 5 6\n")
    result = run_text(text, demo_dir)
    assert result.ok and result.summary["commands"] == 4 and "failed_at" not in result.summary
    assert result.events[1:] == [
        {"line": 2, "cmd": "swap_in", "text": "try swap_in a 0x100000", "ok": False,
         "error": "swap store holds no page 0x200100000 of enclave 1"},
        {"line": 3, "cmd": "ecall", "text": "try ecall ghost 0 1", "ok": False,
         "error": "scenario line 3: unknown enclave 'ghost'"},
        {"line": 4, "cmd": "ecall", "text": "try ecall a 0 1 5 6", "ok": True, "result": 5},
    ]


@pytest.mark.parametrize("line, message", [
    ("try frobnicate", "unknown command 'frobnicate'"),
    ("try ecall a", "ecall takes 3 to 5 arguments, got 1"),
    ("try", "try needs a command"),
    ("try try ecall a 0 1", "unknown command 'try'"),
])
def test_try_hides_no_authoring_error(line, message, demo_dir):
    result = run_text(f"create a standard.manifest\n{line}\necall a 0 1 5 6\n", demo_dir)
    assert not result.ok and len(result.events) == 2
    assert result.events[-1]["cmd"] == "try"
    assert result.summary["failure"] == f"scenario line 2: {message}"


def test_a_refused_ecall_takes_its_pending_interrupts(demo_dir):
    """A pending ``inject_irq`` schedule belongs to the next ecall line, even
    one that is refused, and never passes on to the call after it."""
    text = ("create a standard.manifest\ninject_irq vcpu=0 at=1\ntry ecall ghost 0 1\n"
            "ecall a 0 1 5 6\nexpect count:ERESUME == 0\n")
    assert run_text(text, demo_dir).ok


# Each input is refused on its line, with no traceback.  Those up to
# sigstruct_directory used to end `ccxsim run --json` in one; the rest are
# refusals no other test reaches.
# name -> (scenario text, line it fails at, part of the reported error).
BAD_INPUTS = {
    "create_arity": ("create a", 1, "create takes 2 arguments, got 1"),
    "ecall_arity": ("ecall a", 1, "ecall takes 3 to 5 arguments, got 1"),
    "seal_policy": ("create a standard.manifest\nseal a foo 00", 2,
                    "unknown seal policy 'foo'"),
    "expect_value": ("expect last == zz", 1, "'zz' is not a number"),
    "manifest_nssa": ("create a negative_nssa.manifest", 1,
                      "manifest line 3: nssa -1 is not a 64-bit unsigned number"),
    "tcs_index": ("create a standard.manifest\necall a 9 1 2 3", 2, "has no TCS 9"),
    "vcpu_index": ("create a standard.manifest\ninject_irq vcpu=99 at=1\necall a 0 1 2 3", 3,
                   "no vcpu 99"),
    # steps count from 1, so these could never fire
    "inject_at_zero": ("create a standard.manifest\ninject_irq vcpu=0 at=0\necall a 0 1 2 3", 2,
                       "inject_irq at=0 can never fire: steps count from 1"),
    "inject_at_negative": ("create a standard.manifest\ninject_irq at=3,-5\necall a 0 1 2 3", 2,
                           "inject_irq at=-5 can never fire"),
    # a page the enclave never had; a resident page is left as it is
    "swap_in_resident": ("create a standard.manifest\nswap_in a 0x100000", 2,
                         "swap store holds no page 0x200100000 of enclave 1"),
    "manifest_missing": ("create a standard.manifest\ncreate b nonexist.manifest", 2,
                         "cannot read manifest 'nonexist.manifest': No such file or directory"),
    "manifest_not_utf8": ("create a latin1.manifest", 1,
                          "cannot read manifest 'latin1.manifest': not UTF-8 text"),
    "sigstruct_missing": ("create a sig_missing.manifest", 1,
                          "LoadError: sigstruct: cannot read sigstruct file 'nonexist.sig'"),
    "sigstruct_directory": ("create a sig_directory.manifest", 1,
                            "LoadError: sigstruct: cannot read sigstruct file 'sigdir'"),
    "attest_probe_first": ("expect attest_ab == 1", 1, "no attestation has run"),
    "probe_unknown": ("expect bogus == 0", 1, "unknown probe 'bogus'"),
    # the mode is the config's: a scenario names no platform
    "mode_command": ("mode ccx", 1, "unknown command 'mode'"),
    "inject_field": ("inject_irq cpu=0 at=1", 1, "unknown inject field 'cpu'"),
    "inject_without_at": ("inject_irq vcpu=0", 1, "inject_irq needs at="),
    # a repeated field is refused, not taken at its last value
    "inject_at_twice": ("create a standard.manifest\ninject_irq at=1 at=5\necall a 0 1 2 3", 2,
                        "inject_irq at= given twice"),
    "inject_vcpu_twice": ("inject_irq vcpu=0 vcpu=1", 1, "inject_irq vcpu= given twice"),
    "manifest_perms_twice": ("create a perms_twice.manifest", 1,
                             "manifest line 2: perms= given twice"),
    "seal_payload": ("create a standard.manifest\nseal a mrenclave 0g", 2,
                     "payload '0g' is not hex"),
    "unseal_first": ("create a standard.manifest\nunseal a", 2, "nothing has been sealed"),
    "expect_operator": ("expect last ~ 0", 1, "unknown operator '~'"),
    # each command with one argument too few and one too many, as the
    # README's grammar counts them
    "create_too_many": ("create a standard.manifest b", 1, "create takes 2 arguments, got 3"),
    "ecall_too_many": ("ecall a 0 1 2 3 4", 1, "ecall takes 3 to 5 arguments, got 6"),
    "destroy_too_few": ("destroy", 1, "destroy takes 1 arguments, got 0"),
    "destroy_too_many": ("destroy a b", 1, "destroy takes 1 arguments, got 2"),
    "inject_irq_too_few": ("inject_irq", 1, "inject_irq takes 1 to 2 arguments, got 0"),
    "inject_irq_too_many": ("inject_irq vcpu=0 at=1 at=2", 1,
                            "inject_irq takes 1 to 2 arguments, got 3"),
    "swap_out_too_few": ("swap_out a", 1, "swap_out takes 2 arguments, got 1"),
    "swap_out_too_many": ("swap_out a 0 0", 1, "swap_out takes 2 arguments, got 3"),
    "swap_in_too_few": ("swap_in a", 1, "swap_in takes 2 arguments, got 1"),
    "swap_in_too_many": ("swap_in a 0 0", 1, "swap_in takes 2 arguments, got 3"),
    "attest_too_few": ("attest a", 1, "attest takes 2 arguments, got 1"),
    "attest_too_many": ("attest a b c", 1, "attest takes 2 arguments, got 3"),
    "seal_too_few": ("seal a mrenclave", 1, "seal takes 3 arguments, got 2"),
    "seal_too_many": ("seal a mrenclave 00 00", 1, "seal takes 3 arguments, got 4"),
    "unseal_too_few": ("unseal", 1, "unseal takes 1 arguments, got 0"),
    "unseal_too_many": ("unseal a b", 1, "unseal takes 1 arguments, got 2"),
    "expect_too_few": ("expect last ==", 1, "expect takes 3 arguments, got 2"),
    "expect_too_many": ("expect last == 0 1", 1, "expect takes 3 arguments, got 4"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_reported_with_its_line(name, demo_dir, capsys):
    text, line, message = BAD_INPUTS[name]
    (demo_dir / "negative_nssa.manifest").write_text("name bad\nsize 0x100000\nnssa -1\n")
    (demo_dir / "perms_twice.manifest").write_text(
        "name bad\npage vaddr=0x0 perms=r perms=rwx content=zero\n")
    (demo_dir / "latin1.manifest").write_bytes("name caf\u00e9\n".encode("latin-1"))
    standard = (demo_dir / "standard.manifest").read_text().splitlines()
    unsigned = [entry for entry in standard if not entry.startswith("sigstruct")]
    for manifest, source in (("sig_missing", "nonexist.sig"), ("sig_directory", "sigdir")):
        (demo_dir / f"{manifest}.manifest").write_text(
            "\n".join(unsigned + [f"sigstruct file:{source}"]) + "\n")
    (demo_dir / "sigdir").mkdir(exist_ok=True)
    (demo_dir / "bad.scenario").write_text(text + "\n")
    assert cli.main(["run", str(demo_dir / "bad.scenario"), "--json"]) == cli.EXIT_FAILED
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    assert summary["failed_at"] == line
    assert message in summary["failure"]


def test_the_readme_grammar_names_every_command_and_probe():
    """The README's grammar block names the commands of the runner's table,
    plus ``try``, and its probes sentence each probe the runner reads:
    what the commands leave, each count the summary carries, and the leaf
    counters."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Scenario grammar", 1)[1]
    block = section.split("```", 2)[1]
    commands = {line.split()[0] for line in block.splitlines() if line[:1].isalpha()}
    assert commands == set(scenario._COMMANDS) | {"try"}
    sentence = re.search(r"Probes: (.*?)\.\s", section, re.DOTALL).group(1)
    r = runner()
    counts = {name for name, value in r.counts().items() if isinstance(value, int)}
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(r.probes) | counts | {"count:<LEAF>"}


def test_the_readme_config_names_every_field_of_config():
    """The JSON block under README's configuration heading names exactly
    the fields of ``Config``, so it can list no deleted field, and loads as
    the default config."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    data = json.loads(block)
    assert set(data) == set(Config.__dataclass_fields__)
    assert Config.from_dict(data) == Config()


def test_an_unknown_sigstruct_source_fails_on_its_manifest_line(demo_dir):
    """The source is checked when the manifest is parsed, before any build
    leaf runs."""
    standard = (demo_dir / "standard.manifest").read_text().splitlines()
    lines = [entry for entry in standard if not entry.startswith("sigstruct")]
    (demo_dir / "bogus.manifest").write_text("\n".join(lines + ["sigstruct bogus"]) + "\n")
    result = run_text("create app bogus.manifest\n", demo_dir)
    assert (result.ok, result.summary["failed_at"]) == (False, 1)
    assert result.summary["failure"] == (
        f"manifest line {len(lines) + 1}: unknown sigstruct source 'bogus'")
    assert result.summary["counters"]["ECREATE"] == 0


def test_ocall_roundtrip_in_scenario(demo_dir):
    text = (
        "create app standard.manifest\n"
        "ecall app 0 3 10 20\n"
        "expect last == 45\n"  # host computes 2*10 + 20 + 5
    )
    assert run_text(text, demo_dir).ok


def test_inject_irq_applies_to_next_ecall(demo_dir):
    text = (
        "create c compute.manifest\n"
        "inject_irq vcpu=0 at=every\n"
        f"ecall c 0 0 165 0\n"
        f"expect last == {fixtures.compute_expected(165)}\n"
        "expect count:ERESUME >= 900\n"
    )
    assert run_text(text, demo_dir).ok


def test_swap_commands_and_counters(demo_dir):
    text = (
        "create app standard.manifest\n"
        f"swap_out app {fixtures.SCRATCH_OFF:#x}\n"
        "expect count:EWB == 1\n"
        "expect swap_out_events == 1\n"
        f"swap_in app {fixtures.SCRATCH_OFF:#x}\n"
        "expect count:ELDU == 1\n"
        "ecall app 0 1 5 0\n"
        "expect last == 5\n"
    )
    assert run_text(text, demo_dir).ok


def test_the_fault_and_swap_in_probes_count_the_run_so_far(demo_dir):
    """``gpf_count`` counts the protection faults of the run and
    ``swap_in_events`` the pages paged back in, across the runs of one
    runner: a call that reads another enclave's page ends its run."""
    r = runner()
    r.base_dir = demo_dir
    text = ("create a standard.manifest\ncreate b standard.manifest\n"
            "expect gpf_count == 0\nexpect swap_in_events == 0\n")
    assert r.run_text(text).ok
    b = r.handles["b"]
    granule = r.machine.memory.find_page(b.eid, b.base + fixtures.SCRATCH_OFF)
    spy = r.run_text(f"ecall a 0 {fixtures.SEL_PEEK} {granule * 0x1000:#x} 0\n")
    assert not spy.ok and spy.events[-1]["error"].startswith("EnclaveFault: enclave fault: gpf")
    text = (f"expect gpf_count == 1\nswap_out b {fixtures.SCRATCH_OFF:#x}\n"
            f"swap_out b {fixtures.CODE_OFF:#x}\nexpect swap_in_events == 0\n"
            "ecall b 0 1 9 0\nexpect swap_in_events == 1\n"  # the code page, on its fetch
            f"swap_in b {fixtures.SCRATCH_OFF:#x}\nexpect swap_in_events == 2\n"
            "expect gpf_count == 1\n")
    assert r.run_text(text).ok


def test_mrenclave_eq_probe(demo_dir):
    text = (
        "create a standard.manifest\n"
        "create b standard.manifest\n"
        "expect mrenclave_eq a b\n"
    )
    assert run_text(text, demo_dir).ok
    text2 = (
        "create a standard.manifest\n"
        "create b standard_b.manifest\n"
        "expect mrenclave_eq a b\n"
    )
    assert not run_text(text2, demo_dir).ok


def test_report_is_deterministic_jsonl(demo_dir):
    cfg = small_config(granule_count=1024, epc_size=512)
    r1 = run_scenario(demo_dir / "lifecycle.scenario", config=cfg)
    cfg2 = small_config(granule_count=1024, epc_size=512)
    r2 = run_scenario(demo_dir / "lifecycle.scenario", config=cfg2)
    assert r1.to_jsonl() == r2.to_jsonl()
    for line in r1.to_jsonl().strip().splitlines():
        json.loads(line)  # every record is a valid JSON document


def test_mode_differential_functional_equivalence(demo_dir):
    """Same script in both modes: identical command results, different swap
    activity."""
    text = (
        "create t toucher.manifest\n"
        "ecall t 0 1 96 0\n"
        f"expect last == {fixtures.toucher_expected(96)}\n"
    )
    results = {}
    for mode in ("sgx", "ccx"):
        config = small_config(granule_count=2048, epc_base=32, epc_size=48, mode=mode)
        results[mode] = ScenarioRunner(config, demo_dir).run_text(text)
        assert results[mode].ok
    functional = lambda res: [
        (e["cmd"], e.get("result")) for e in res.events if e["cmd"] != "expect"
    ]
    assert functional(results["sgx"]) == functional(results["ccx"])
    assert results["sgx"].summary["counters"]["EWB"] >= 96 - 48
    assert results["ccx"].summary["counters"]["EWB"] == 0
    assert results["ccx"].summary["swap_out_events"] == 0


def test_shared_untrusted_buffer_carries_rich_payloads(demo_dir):
    """The call ABI moves big payloads through a host buffer whose address
    rides in an argument word; enclave code reads it in place."""
    from ccxsim.machine import Machine
    from ccxsim.memory import GRANULE_SIZE
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import HostRuntime

    machine = Machine(small_config(granule_count=1024, epc_size=512))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(demo_dir / "standard.manifest"))
    buffer_granule = rt.take_host_granule()
    machine.host_write(buffer_granule, 0, (0x1122334455667788).to_bytes(8, "little"))
    value = rt.ecall(h, 0, fixtures.SEL_PEEK, buffer_granule * GRANULE_SIZE)
    assert value == 0x1122334455667788
    # and the enclave can answer through the same buffer
    rt.ecall(h, 0, fixtures.SEL_POKE, buffer_granule * GRANULE_SIZE + 8, 99)
    assert machine.host_read(buffer_granule, 8, 8) == (99).to_bytes(8, "little")


def test_ocall_handlers_cannot_reach_enclave_memory(demo_dir):
    """A curious host handler takes a protection fault like any other host
    software, and the fault is on the record."""
    from ccxsim.errors import GranuleProtectionFault
    from ccxsim.machine import Machine
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import HostRuntime

    machine = Machine(small_config(granule_count=1024, epc_size=512))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(demo_dir / "standard.manifest"))
    code_granule = machine.memory.find_page(h.eid, h.base)

    def nosy_handler(runtime, handle, a, b):
        return int.from_bytes(runtime.machine.host_read(code_granule, 0, 8), "little")

    rt.register_ocall(fixtures.OCALL_HOSTADD, nosy_handler)
    log_before = len(machine.memory.gpf_log)
    with pytest.raises(GranuleProtectionFault):
        rt.ecall(h, 0, fixtures.SEL_OCALL_ROUNDTRIP, 1, 2)
    assert len(machine.memory.gpf_log) == log_before + 1
    assert machine.memory.gpf_log[-1].granule == code_granule


def test_tcs_evicted_during_ocall_is_reloaded(demo_dir):
    """An outside call leaves the thread's TCS idle; if the swap manager
    evicts it meanwhile, the driver restores it before re-entry."""
    from ccxsim.machine import Machine
    from ccxsim.manifest import EnclaveManifest
    from ccxsim.runtime import HostRuntime

    machine = Machine(small_config(granule_count=1024, epc_size=512))
    rt = HostRuntime(machine)
    h = rt.load_enclave(EnclaveManifest.load(demo_dir / "standard.manifest"))
    tcs_vaddr = h.tcs_vaddrs[0]

    def evicting_handler(runtime, handle, a, b):
        runtime.swap_out(handle, tcs_vaddr)
        return a + b

    rt.register_ocall(fixtures.OCALL_HOSTADD, evicting_handler)
    assert rt.ecall(h, 0, fixtures.SEL_OCALL_ROUNDTRIP, 20, 30) == 50
    assert rt.swap_in_events >= 1  # the TCS came back through the reload path


def test_swap_in_is_the_one_reload(demo_dir, monkeypatch):
    """Every page the runtime reloads, on a demand fault or in a teardown,
    it reloads by ``HostRuntime.swap_in``: over the mode_diff demo in sgx
    mode and then a destroy, the swap_in calls on a filed page number the
    swap-ins and the ELDU leaves, and there are some."""
    from ccxsim.runtime import HostRuntime

    swap_in, reloaded = HostRuntime.swap_in, []

    def counted(rt, handle, vaddr):
        reloaded.append(reloads(rt, handle, vaddr))
        return swap_in(rt, handle, vaddr)

    monkeypatch.setattr(HostRuntime, "swap_in", counted)
    text = (demo_dir / "mode_diff.scenario").read_text() + "destroy t\n"
    result = ScenarioRunner(Config(mode="sgx"), demo_dir).run_text(text)
    assert result.ok and not result.runtime.handles
    assert sum(reloaded) == result.runtime.swap_in_events == result.machine.counters["ELDU"] > 0


def test_swap_store_tamper_fails_mac(demo_dir):
    result = run_text(
        "create app standard.manifest\n"
        f"swap_out app {fixtures.SCRATCH_OFF:#x}\n",
        demo_dir,
    )
    assert result.ok
    # tamper with the stored blob: one flipped ciphertext bit fails the MAC
    rt = result.runtime
    handle = next(iter(rt.handles.values()))
    scratch = handle.base + fixtures.SCRATCH_OFF
    stored = rt.store.pop(handle.eid, scratch)
    ct = bytearray(stored.blob.ciphertext)
    ct[77] ^= 1
    stored.blob.ciphertext = bytes(ct)
    rt.store.put(handle.eid, scratch, stored)
    from ccxsim.errors import SgxError, SgxErrorCode

    with pytest.raises(SgxError) as exc:
        rt.swap_in(handle, scratch)
    assert exc.value.code == SgxErrorCode.MAC_COMPARE_FAIL
