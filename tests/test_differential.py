"""A seeded cross-mode differential of the host runtime, run as scenario text.

Each seed draws a scenario of ``try`` lines (create, ecall with and without
interrupts, swap_out, swap_in, seal, unseal, attest, destroy) over the demo
fixtures and runs it through ``scenario.compare_modes``: line by line in sgx
mode, with a paging EPC of 24, 40 or 64 granules, and in ccx mode.  After
every line the audit and the paging records must hold, and the two modes may
differ only in the paging fields that ``MODE_DIFFERENCES`` names.  A failing
seed prints the ``ccxsim`` commands that replay it.  Named seeds also run in
a smaller EPC, each a paging livelock or a wrong answer once, under a cap on
reloads that fails a run that would not end.
"""

from __future__ import annotations

import json
import random
import shlex
from typing import Optional

import pytest

from ccxsim import cli, fixtures
from ccxsim.memory import GRANULE_SIZE
from ccxsim.runtime import HostRuntime
from ccxsim.scenario import ScenarioRunner, compare_modes

from helpers import check_paging_records, reloads, small_config

SEEDS = range(100)
EPC_SIZES = (24, 40, 64)
OPS_PER_SEQUENCE = 24
KINDS = ("standard", "compute", "toucher", "notify")
DYN_PAGES = 12  # most pages one toucher call adds
STEP_BUDGET = 20_000  # max_ecall_steps: ample for every drawn call
RELOAD_CAP = 1_000  # reloads past which a named seed's run counts as stuck; each needs < 120

# Pages an explicit swap names, by enclave offset: code, scratch, both
# save-state frames and the TCS; for the toucher also its first added pages.
_PAGES = (fixtures.CODE_OFF, fixtures.SCRATCH_OFF, fixtures.SSA_OFF,
          fixtures.SSA_OFF + GRANULE_SIZE, fixtures.SSA_OFF + 2 * GRANULE_SIZE)
_ADDED = (0x100000, 0x100000 + GRANULE_SIZE)


def _draw(rng: random.Random):
    """One scenario's lines.  e<n> is the n-th create's enclave, and the
    scenario ends by destroying each one."""
    kinds, lines = [], []

    def emit(line):
        lines.append(f"try {line}")

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
            emit(f"ecall e{slot} 0 {' '.join(map(str, _call_args(rng, kinds[slot])))}")
        elif pick < 0.7:
            pages = _PAGES + (_ADDED if kinds[slot] == "toucher" else ())
            emit(f"{rng.choice(('swap_out', 'swap_in'))} e{slot} {rng.choice(pages):#x}")
        elif pick < 0.8:
            policy = rng.choice(("mrenclave", "mrsigner"))
            emit(f"seal e{slot} {policy} {rng.randbytes(rng.randint(1, 40)).hex()}")
        elif pick < 0.88:
            emit(f"unseal e{slot}")
        elif pick < 0.95:
            other = rng.randrange(len(kinds))
            emit(f"attest e{slot} e{other}")
        else:
            emit(f"destroy e{slot}")
    for slot in range(len(kinds)):
        emit(f"destroy e{slot}")
    return lines


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


def _config(seed: int, epc_size: Optional[int] = None):
    """The seed's config, with its own EPC size unless ``epc_size`` names
    one; the EPC size matters only in sgx mode."""
    return small_config(epc_size=epc_size or EPC_SIZES[seed % len(EPC_SIZES)],
                        audit_after_leaf=False, max_ecall_steps=STEP_BUDGET)


def _check(runner) -> None:
    runner.machine.audit()
    check_paging_records(runner.runtime)


def _run(seed: int, directory, lines, epc_size: Optional[int] = None):
    """Each mode's records of ``lines``, with every check made after each line."""
    records, runners = [], []

    def check(both, pair):
        records.append(pair)
        runners[:] = both
        for runner in both:
            _check(runner)

    differences = compare_modes("\n".join(lines), _config(seed, epc_size), directory,
                                after_line=check)
    assert differences == []
    for runner in runners:  # every enclave is destroyed, so no page has an owner
        assert not any(e.owner is not None for e in runner.machine.memory.epcm.values())
    return list(zip(*records))


def _write_seed(directory, seed: int, lines):
    """Write the scenario and the config of ``seed`` next to the demo
    manifests; return the ``ccxsim`` arguments that compare its modes and
    that run it in sgx and in ccx mode."""
    scenario, config = directory / f"seed{seed}.scenario", directory / f"seed{seed}.json"
    scenario.write_text("\n".join(lines) + "\n")
    config.write_text(_config(seed).to_json())
    return [["compare", str(scenario), "--config", str(config)]] + [
        ["run", str(scenario), "--config", str(config), "--mode", mode, "--json"]
        for mode in ("sgx", "ccx")]


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("differential")
    fixtures.write_demo_tree(directory)
    return directory


@pytest.mark.parametrize("seed", SEEDS)
def test_sgx_and_ccx_give_equal_outcomes_and_keep_the_paging_records(seed, demo_dir):
    lines = _draw(random.Random(seed))
    try:
        _run(seed, demo_dir, lines)
    except Exception as exc:
        replay = "".join(f"\n  ccxsim {shlex.join(a)}" for a in _write_seed(demo_dir, seed, lines))
        raise AssertionError(f"seed {seed}: {exc}\nreplay (compare, sgx, ccx):{replay}") from exc


@pytest.mark.parametrize("seed", range(5))
def test_a_drawn_seed_replays_from_its_files(seed, demo_dir, capsys):
    lines = _draw(random.Random(seed))
    modes = _run(seed, demo_dir, lines)
    compare, *runs = _write_seed(demo_dir, seed, lines)
    assert cli.main(compare) == cli.EXIT_OK
    capsys.readouterr()
    for argv, records in zip(runs, modes):
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()[:-1]  # the summary is last
        assert out == [json.dumps(record, sort_keys=True) for record in records]


@pytest.fixture
def reload_cap(monkeypatch):
    """Fail a run past ``RELOAD_CAP`` page reloads, ``swap_in`` calls on a
    filed page, so that a paging livelock ends the test instead of hanging it."""
    swap_in = HostRuntime.swap_in
    reloaded = []

    def capped(rt, handle, vaddr):
        if reloads(rt, handle, vaddr):
            reloaded.append(vaddr)
            assert len(reloaded) <= RELOAD_CAP, f"more than {RELOAD_CAP} reloads: a paging livelock"
        return swap_in(rt, handle, vaddr)

    with monkeypatch.context() as patch:
        patch.setattr(HostRuntime, "swap_in", capped)
        yield
    assert HostRuntime.swap_in is swap_in


def test_seed_149_compares_equal_in_a_16_granule_epc(demo_dir, reload_cap):
    """Two notify enclaves left interrupted once pinned their thread pages,
    and a PEEK's code and data pages then evicted each other until the step
    budget, while ccx mode returned at once."""
    _run(149, demo_dir, _draw(random.Random(149)), epc_size=16)


def test_seed_156_compares_equal_in_a_16_granule_epc(demo_dir, reload_cap):
    """A crashed notify enclave once kept its pages from reclaim, and a code
    page and a data page evicted each other; and a toucher's EACCEPT of a
    page written back since its EAUG was refused in sgx mode only, where the
    leaf faults as a load would, the host reloads the page, and it runs again."""
    _run(156, demo_dir, _draw(random.Random(156)), epc_size=16)


@pytest.mark.parametrize("seed", [48, 75])
def test_a_seed_with_a_crashed_enclave_compares_equal_in_a_12_granule_epc(
        seed, demo_dir, reload_cap):
    """A crashed enclave's pages were kept from reclaim, so the pages left
    to the other enclaves were too few, and a code page and a data page
    evicted each other without end."""
    _run(seed, demo_dir, _draw(random.Random(seed)), epc_size=12)


def test_seed_17_compares_equal_in_a_12_granule_epc(demo_dir, reload_cap):
    """An AEX-Notify handler once ran EDECCSSA before it read frame 0, so
    the nested exits of sgx paging overwrote the frame, and an ecall
    returned the previous line's result in sgx mode only."""
    _run(17, demo_dir, _draw(random.Random(17)), epc_size=12)


def test_seed_151_runs_to_its_last_line_in_a_16_granule_epc(demo_dir, reload_cap):
    """A notify enclave's entry once reloaded its TCS and both frames in
    turn, each reload writing back another, without end.  Modes still differ
    here: sgx mode refuses a create, as no SECS page is written back."""
    lines = _draw(random.Random(151))
    runner = ScenarioRunner(_config(151, 16), demo_dir)
    for line_no, raw in enumerate(lines, start=1):
        assert runner.run_line(raw, line_no)["line"] == line_no
        _check(runner)
