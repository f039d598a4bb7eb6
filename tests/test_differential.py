"""A seeded cross-mode differential of the host runtime, run as scenario text.

Each seed draws a scenario of ``try`` lines (create, ecall with and without
interrupts, swap_out, swap_in, seal, unseal, attest, destroy) over the demo
fixtures and runs it line by line in sgx mode, with a paging EPC of 24, 40 or
64 granules, and in ccx mode.  After every line the audit and the paging
records must hold, and both modes must give the same record, but for a swap
refused with a ``ModelError``, which names its mode's paging state, and a line
on a notify enclave: its handler restores frame 0 and retires one slot, so a
nested exit, which only sgx paging makes, changes its result.  A failing seed
prints the ``ccxsim run`` commands that replay it.
"""

from __future__ import annotations

import json
import random
import shlex

import pytest

from ccxsim import cli, fixtures
from ccxsim.memory import GRANULE_SIZE
from ccxsim.scenario import ScenarioRunner

from helpers import check_paging_records, small_config

SEEDS = range(100)
EPC_SIZES = (24, 40, 64)
OPS_PER_SEQUENCE = 24
KINDS = ("standard", "compute", "toucher", "notify")
DYN_PAGES = 12  # most pages one toucher call adds
STEP_BUDGET = 20_000  # max_ecall_steps: ample, yet a notify handler can loop until it

# Pages an explicit swap names, by enclave offset: code, scratch, both
# save-state frames and the TCS; for the toucher also its first added pages.
_PAGES = (fixtures.CODE_OFF, fixtures.SCRATCH_OFF, fixtures.SSA_OFF,
          fixtures.SSA_OFF + GRANULE_SIZE, fixtures.SSA_OFF + 2 * GRANULE_SIZE)
_ADDED = (0x100000, 0x100000 + GRANULE_SIZE)
# How a refused record's error begins, unless it is a ModelError's.
_TYPED_ERRORS = ("scenario line ", "SgxError: ", "LoadError: ", "EnclaveFault: ")


def _draw(rng: random.Random):
    """One scenario's lines and the fixture kinds each line acts on.  e<n> is
    the n-th create's enclave; the scenario ends by destroying each one."""
    kinds, lines, named = [], [], []

    def emit(line, *slots):
        lines.append(f"try {line}")
        named.append(tuple(kinds[slot] for slot in slots))

    for _ in range(OPS_PER_SEQUENCE):
        if not kinds or rng.random() < 0.15:
            kinds.append(rng.choice(KINDS))
            emit(f"create e{len(kinds) - 1} {kinds[-1]}.manifest")
            continue
        slot = rng.randrange(len(kinds))
        pick = rng.random()
        if pick < 0.5:
            if rng.random() < 0.4:
                steps = {rng.randrange(1, 200) for _ in range(rng.randint(1, 3))}
                emit(f"inject_irq vcpu=0 at={','.join(map(str, sorted(steps)))}")
            emit(f"ecall e{slot} 0 {' '.join(map(str, _call_args(rng, kinds[slot])))}", slot)
        elif pick < 0.7:
            pages = _PAGES + (_ADDED if kinds[slot] == "toucher" else ())
            emit(f"{rng.choice(('swap_out', 'swap_in'))} e{slot} {rng.choice(pages):#x}", slot)
        elif pick < 0.8:
            policy = rng.choice(("mrenclave", "mrsigner"))
            emit(f"seal e{slot} {policy} {rng.randbytes(rng.randint(1, 40)).hex()}", slot)
        elif pick < 0.88:
            emit(f"unseal e{slot}", slot)
        elif pick < 0.95:
            other = rng.randrange(len(kinds))
            emit(f"attest e{slot} e{other}", slot, other)
        else:
            emit(f"destroy e{slot}", slot)
    for slot in range(len(kinds)):
        emit(f"destroy e{slot}", slot)
    return lines, named


def _call_args(rng: random.Random, kind: str):
    """(selector, arg1, arg2) of one call into an enclave of ``kind``."""
    if kind == "toucher":
        return 1, rng.randint(1, DYN_PAGES), 0
    if kind in ("compute", "notify"):
        return 1, rng.randint(1, 60), 0
    scratch = fixtures.BASE + fixtures.SCRATCH_OFF + 8 * rng.randrange(32, 64)
    selector = rng.choice((fixtures.SEL_ECHO, fixtures.SEL_ADD, fixtures.SEL_OCALL_ROUNDTRIP,
                           fixtures.SEL_PEEK, fixtures.SEL_POKE))
    if selector == fixtures.SEL_PEEK:
        return selector, rng.choice((scratch, fixtures.BASE + fixtures.CODE_OFF)), 0
    if selector == fixtures.SEL_POKE:
        return selector, scratch, rng.getrandbits(64)
    return selector, rng.getrandbits(32), rng.getrandbits(32)


def _configs(seed: int):
    common = dict(audit_after_leaf=False, max_ecall_steps=STEP_BUDGET)
    return {"sgx": small_config(mode="sgx", epc_size=EPC_SIZES[seed % len(EPC_SIZES)], **common),
            "ccx": small_config(mode="ccx", **common)}


def _run(seed: int, directory, lines, named):
    """Each mode's records of ``lines``, with every check made after each line."""
    runners = [ScenarioRunner(config, base_dir=directory) for config in _configs(seed).values()]
    records = []
    for line_no, (line, kinds) in enumerate(zip(lines, named), start=1):
        records.append(pair := [runner.run_line(line, line_no) for runner in runners])
        for runner in runners:
            runner.machine.audit()
            check_paging_records(runner.runtime)
        swap_refused = pair[0]["cmd"] in ("swap_out", "swap_in") and any(
            not r["ok"] and not r["error"].startswith(_TYPED_ERRORS) for r in pair)
        assert "notify" in kinds or swap_refused or pair[0] == pair[1], pair
    for runner in runners:  # every enclave is destroyed, so no page has an owner
        assert not any(e.owner is not None for e in runner.machine.memory.epcm.values())
    return list(zip(*records))


def _write_seed(directory, seed: int, lines):
    """Write the scenario and both configs of ``seed`` next to the demo
    manifests; return each mode's ``ccxsim`` arguments that replay it."""
    scenario = directory / f"seed{seed}.scenario"
    scenario.write_text("\n".join(lines) + "\n")
    for mode, config in _configs(seed).items():
        (directory / f"seed{seed}-{mode}.json").write_text(config.to_json())
    return [["run", str(scenario), "--config", str(directory / f"seed{seed}-{mode}.json"),
             "--json"] for mode in ("sgx", "ccx")]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("differential")
    fixtures.write_demo_tree(directory)
    return directory


@pytest.mark.parametrize("seed", SEEDS)
def test_sgx_and_ccx_give_equal_outcomes_and_keep_the_paging_records(seed, demo_dir):
    lines, named = _draw(random.Random(seed))
    try:
        _run(seed, demo_dir, lines, named)
    except Exception as exc:
        replay = "".join(f"\n  ccxsim {shlex.join(a)}" for a in _write_seed(demo_dir, seed, lines))
        raise AssertionError(f"seed {seed}: {exc}\nreplay (sgx, ccx):{replay}") from exc


@pytest.mark.parametrize("seed", range(5))
def test_a_drawn_seed_replays_from_its_files(seed, demo_dir, capsys):
    lines, named = _draw(random.Random(seed))
    modes = _run(seed, demo_dir, lines, named)
    for argv, records in zip(_write_seed(demo_dir, seed, lines), modes):
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()[:-1]  # the summary is last
        assert out == [json.dumps(record, sort_keys=True) for record in records]
