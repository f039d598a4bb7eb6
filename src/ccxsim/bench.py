"""Leaf microbenchmarks with abstract cost accounting.

Each leaf runs in a canonical fixture N times; the report carries invocation
counts and abstract cost units (deterministic, config-derived) plus a
wall-time figure that is informational only and never part of structured
output.  The cost model reproduces relative shape: enclave creation pays a
per-granule table-population charge, so it dominates and scales with machine
size; crypto-backed leaves (init, swap) cost orders more than bookkeeping
leaves like block or track.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict

from .config import Config
from .errors import ModelError
from .machine import ALL_LEAF_NAMES, Machine
from .manifest import EnclaveManifest
from .memory import GRANULE_SIZE, PageType, Perms
from .runtime import AEP_GATE, HostRuntime, RETURN_GATE
from .structs import (
    KeyName,
    KeyPolicy,
    KeyRequest,
    SecInfo,
    TargetInfo,
)
from . import fixtures


@dataclass
class BenchReport:
    config: dict
    iterations: int
    per_leaf: Dict[str, dict]  # name -> {count, cost_total, cost_per_op}
    wall_seconds: float

    def structured(self) -> dict:
        # Deterministic content only; wall time stays out on purpose.
        return {
            "config": self.config,
            "iterations": self.iterations,
            "per_leaf": self.per_leaf,
        }

    def to_json(self) -> str:
        return json.dumps(self.structured(), sort_keys=True, indent=2)

    def human(self) -> str:
        lines = [
            f"leaf microbenchmark, {self.iterations} iterations,"
            f" wall {self.wall_seconds:.3f}s (informational)",
            f"{'leaf':<12} {'count':>7} {'cost/op':>9} {'cost total':>12}",
        ]
        ordered = sorted(
            self.per_leaf.items(), key=lambda kv: -kv[1]["cost_per_op"]
        )
        for name, row in ordered:
            lines.append(
                f"{name:<12} {row['count']:>7} {row['cost_per_op']:>9} {row['cost_total']:>12}"
            )
        return "\n".join(lines)


def _bench_dynamics(m: Machine, rt: HostRuntime, handle, iterations: int) -> None:
    """EAUG/EACCEPT/EMODPE/EMODPR/EMODT/EACCEPTCOPY/EREMOVE cycles."""
    base = handle.base
    dyn = 0x100000
    for i in range(iterations):
        vaddr = base + dyn + i * 2 * GRANULE_SIZE
        copy_vaddr = vaddr + GRANULE_SIZE
        g = rt.take_epc_granule()
        m.leaf("EAUG", handle.eid, vaddr, g)
        g2 = rt.take_epc_granule()
        m.leaf("EAUG", handle.eid, copy_vaddr, g2)
        with rt.entered(handle) as vcpu:
            m.leaf("EACCEPT", g, SecInfo(Perms.R | Perms.W, PageType.REG), vcpu=vcpu)
            m.leaf(
                "EACCEPTCOPY",
                g2,
                base + fixtures.SCRATCH_OFF,
                SecInfo(Perms.R | Perms.W, PageType.REG),
                vcpu=vcpu,
            )
        m.leaf("EMODPR", g, Perms.R)
        with rt.entered(handle) as vcpu:
            m.leaf("EACCEPT", g, SecInfo(Perms.R, PageType.REG), vcpu=vcpu)
            m.leaf("EMODPE", g, Perms.W, vcpu=vcpu)
        m.leaf("EMODT", g, PageType.TRIM)
        with rt.entered(handle) as vcpu:
            m.leaf("EACCEPT", g, SecInfo(Perms.R | Perms.W, PageType.TRIM), vcpu=vcpu)
        m.leaf("EREMOVE", g)
        m.leaf("EREMOVE", g2)


def _bench_swap(m: Machine, rt: HostRuntime, handle, iterations: int) -> None:
    """EBLOCK/ETRACK/EWB/ELDU plus ELDB cycles on one victim page."""
    vaddr = handle.base + 0x300000
    g = rt.take_epc_granule()
    m.leaf("EAUG", handle.eid, vaddr, g)
    with rt.entered(handle) as vcpu:
        m.leaf("EACCEPT", g, SecInfo(Perms.R | Perms.W, PageType.REG), vcpu=vcpu)

    va = rt.take_epc_granule()
    m.leaf("EPA", va)
    for _ in range(iterations):
        # a fresh version array each round keeps EPA in the exercised set
        va_extra = rt.take_epc_granule()
        m.leaf("EPA", va_extra)
        m.leaf("EREMOVE", va_extra)
        g = m.memory.find_page(handle.eid, vaddr)
        m.leaf("EBLOCK", g)
        m.leaf("ETRACK", handle.eid)
        blob = m.leaf("EWB", g, va, 0)
        # reload blocked, push it straight back out, bring it back unblocked
        # so the next round starts settled
        target = rt.take_epc_granule()
        m.leaf("ELDB", blob.ciphertext, blob.pcmd, va, 0, target, handle.eid)
        m.leaf("ETRACK", handle.eid)
        blob2 = m.leaf("EWB", target, va, 1)
        target2 = rt.take_epc_granule()
        m.leaf("ELDU", blob2.ciphertext, blob2.pcmd, va, 1, target2, handle.eid)
    m.leaf("EREMOVE", m.memory.find_page(handle.eid, vaddr))


def _bench_attest(m: Machine, rt: HostRuntime, handle, iterations: int) -> None:
    with rt.entered(handle) as vcpu:
        for _ in range(iterations):
            report = m.leaf(
                "EREPORT", TargetInfo(handle.mrenclave), bytes(64), vcpu=vcpu
            )
            m.leaf(
                "EGETKEY",
                KeyRequest(KeyName.REPORT, KeyPolicy.MRENCLAVE, 0, report.keyid),
                vcpu=vcpu,
            )


def _bench_debug(m: Machine, rt: HostRuntime, handle, iterations: int) -> None:
    g = m.memory.find_page(handle.eid, handle.base + fixtures.SCRATCH_OFF)
    for i in range(iterations):
        m.leaf("EDBGWR", g, 64, (i & 0xFFFFFFFF).to_bytes(8, "little"))
        m.leaf("EDBGRD", g, 64, 8)


def _bench_entry(m: Machine, rt: HostRuntime, handle, iterations: int) -> None:
    """EENTER/EEXIT plus one AEX/ERESUME and an EDECCSSA drain per round."""
    vcpu = m.vcpus[0]
    tcs_granule = m.memory.find_page(handle.eid, handle.tcs_vaddrs[0])
    for _ in range(iterations):
        m.leaf("EENTER", tcs_granule, AEP_GATE, vcpu=vcpu)
        m.inject_interrupt(vcpu)  # AEX with context save
        m.leaf("ERESUME", tcs_granule, AEP_GATE, vcpu=vcpu)  # restore
        m.inject_interrupt(vcpu)
        m.leaf("EENTER", tcs_granule, AEP_GATE, vcpu=vcpu)  # exception-style entry, cssa=1
        m.leaf("EDECCSSA", vcpu=vcpu)  # retires the slot
        m.leaf("EEXIT", RETURN_GATE, vcpu=vcpu)


def run_leaf_bench(config: Config, iterations: int = 100) -> BenchReport:
    """Exercise every leaf `iterations` times in a canonical fixture."""
    if iterations < 1:
        raise ModelError(f"bench needs at least 1 iteration, not {iterations}")
    start = time.monotonic()
    machine = Machine(config)
    rt = HostRuntime(machine)

    # Lifecycle leaves: a fresh mini enclave per iteration.
    manifest = EnclaveManifest.parse(fixtures.build_manifest_text(
        fixtures.standard_program(), name="bench", size=1 << 22))
    for _ in range(iterations):
        handle = rt.load_enclave(manifest)
        rt.destroy(handle)
    handle = rt.load_enclave(manifest)
    _bench_entry(machine, rt, handle, iterations)
    _bench_attest(machine, rt, handle, iterations)
    _bench_debug(machine, rt, handle, iterations)
    _bench_dynamics(machine, rt, handle, iterations)
    _bench_swap(machine, rt, handle, iterations)

    for name in ALL_LEAF_NAMES:
        count = machine.counters[name]
        if count < iterations:
            raise ModelError(f"bench under-exercised {name}: {count} < {iterations}")
    tally = machine.cost_tally
    per_leaf = {name: {"count": machine.counters[name], "cost_total": tally[name],
                       "cost_per_op": machine.leaf_cost[name]} for name in ALL_LEAF_NAMES}
    return BenchReport(config.to_dict(), iterations, per_leaf, time.monotonic() - start)

