"""The command-line contract: exit statuses, messages and the cross-mode rule.

Every check calls ``cli.main`` in-process, so an exception that escapes it,
which the installed script would print as a traceback, fails the test.  Exit
status 0 means success, 1 a failed run or a difference between the modes,
and 2 an input the front end cannot read.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ccxsim import cli, fixtures
from ccxsim.config import DEFAULT_COST_FACTORS, MAX_GRANULE_COUNT, MAX_VCPU_COUNT, Config
from ccxsim.errors import ModelError
from ccxsim.machine import ALL_LEAF_NAMES, Machine
from ccxsim.scenario import MODE_DIFFERENCES, compare_modes

from helpers import small_config

DEMOS = ("lifecycle", "mode_diff", "attest", "seal_unseal", "interrupts")
PAGING_LEAVES = ("EBLOCK", "ELDU", "EPA", "ERESUME", "ETRACK", "EWB")
# A call that touches 24 pages, and then asks that nothing was written back:
# with a 16-granule EPC that holds in ccx mode only.
PAGING_PROBE = "create t toucher.manifest\necall t 0 1 24 0\nexpect swap_out_events == 0\n"


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    fixtures.write_demo_tree(directory)
    return directory


@pytest.fixture(autouse=True)
def default_config(monkeypatch):
    monkeypatch.delenv("CCX_SIM_CONFIG", raising=False)


def _main(capsys, *argv):
    """``ccxsim argv``'s exit status, stdout and stderr."""
    status = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return status, out, err


def _write(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# ccxsim compare and MODE_DIFFERENCES


@pytest.mark.parametrize("demo", DEMOS)
def test_compare_finds_each_demo_equal_across_modes(demo, demo_dir, capsys):
    """With the default config, and but for mode_diff with no row at all: the
    other demos page in neither mode, so their runs are equal field by field."""
    scenario = demo_dir / f"{demo}.scenario"
    status, out, _ = _main(capsys, "compare", scenario)
    assert (status, out) == (cli.EXIT_OK, f"{scenario}: sgx and ccx agree\n")
    if demo != "mode_diff":
        assert compare_modes(scenario.read_text(), Config(), demo_dir, table=()) == []


def test_mode_diff_pages_in_sgx_and_runs_no_paging_leaf_in_ccx(demo_dir, capsys):
    """The one-sided half of mode_diff's contract, which no row states: an
    explicit swap_out pages in ccx too, but mode_diff has none."""
    counters = {}
    for mode in ("sgx", "ccx"):
        status, out, _ = _main(capsys, "run", demo_dir / "mode_diff.scenario", "--mode", mode,
                               "--json")
        assert status == cli.EXIT_OK
        counters[mode] = json.loads(out.splitlines()[-1])["summary"]["counters"]
    assert all(counters["sgx"][leaf] > 0 for leaf in PAGING_LEAVES)
    assert all(counters["ccx"][leaf] == 0 for leaf in PAGING_LEAVES)


def test_compare_exits_1_with_the_first_difference_naming_its_line(demo_dir, tmp_path, capsys):
    scenario = _write(demo_dir, "paging_probe.scenario", PAGING_PROBE)
    config = _write(tmp_path, "tiny.json", small_config(epc_size=16).to_json())
    status, out, err = _main(capsys, "compare", scenario, "--config", config)
    assert status == cli.EXIT_FAILED and not err
    assert out.startswith("scenario line 3: error: sgx 'scenario line 3: expectation failed:"
                          " swap_out_events is ")
    assert out.endswith(", wanted == 0', ccx None\n")
    assert compare_modes(PAGING_PROBE.replace("24", "8"), small_config(epc_size=16), demo_dir) == []


def test_compare_names_a_refusal_in_one_mode_before_the_counts_it_moved(demo_dir, tmp_path,
                                                                        capsys):
    """A create that only sgx refuses, its 6-granule EPC too small for the
    enclave: the line's differences list ``error``, then ``ok``, then the
    rest by name, and ``compare`` prints the refusal."""
    scenario = _write(demo_dir, "refused.scenario", "try create c compute.manifest\n")
    config = small_config(epc_size=6)
    differences = compare_modes(scenario.read_text(), config, demo_dir)
    refusal = ("scenario line 1: error: sgx 'LoadError: eadd tcs[0] at 0x7000: EPC exhausted"
               " and no evictable page found', ccx None")
    assert differences[:2] == [refusal, "scenario line 1: ok: sgx False, ccx True"]
    fields = [difference.split(": ")[1] for difference in differences[2:]]
    assert fields == sorted(fields) and "counters.EADD" in fields
    status, out, _ = _main(capsys, "compare", scenario, "--config",
                           _write(tmp_path, "six.json", config.to_json()))
    assert (status, out) == (cli.EXIT_FAILED, refusal + "\n")


@pytest.mark.parametrize("kind", ["scenario-directory", "config-not-json", "config-key-twice"])
def test_compare_of_an_unreadable_input_exits_2(kind, demo_dir, tmp_path, capsys):
    argv = ["compare", demo_dir / "lifecycle.scenario"]
    if kind == "scenario-directory":
        argv[1] = tmp_path
    else:
        text = "{" if kind == "config-not-json" else '{"mode": "sgx", "mode": "ccx"}'
        argv += ["--config", _write(tmp_path, "config.json", text)]
    status, out, err = _main(capsys, *argv)
    assert (status, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ")


def test_compare_of_a_config_valid_in_one_mode_only_exits_2_naming_the_field(
        demo_dir, tmp_path, capsys):
    """A ccx config with no EPC has no sgx variant: ``compare`` refuses it
    before line 1, naming the field, and runs neither mode."""
    config = _write(tmp_path, "ccx_only.json", '{"mode": "ccx", "epc_size": 0}')
    status, out, err = _main(capsys, "compare", demo_dir / "lifecycle.scenario",
                             "--config", config)
    assert (status, out) == (cli.EXIT_USAGE, "")
    assert err == "error: config field 'epc_size' is 0, and sgx mode needs an EPC\n"


@pytest.mark.parametrize("factors", [{}, {"kdf": 7, "aead_page": 0, "gpt_per_granule": 3}])
def test_a_leafs_cost_is_equal_across_modes(factors):
    """``compare_modes`` compares leaf counts and not their costs: a cost is
    the count times a leaf's ``leaf_cost``, which does not depend on the
    mode, so two costs differ exactly where two counts do."""
    config = Config.from_dict({"cost_factors": factors})
    sgx, ccx = (Machine(replace(config, mode=mode)).leaf_cost for mode in ("sgx", "ccx"))
    assert sgx == ccx and sorted(sgx) == ALL_LEAF_NAMES


def test_mode_differences_is_needed_and_enough_for_mode_diff(demo_dir):
    """Without the paging fields mode_diff differs across modes; with them,
    in nothing."""
    text = (demo_dir / "mode_diff.scenario").read_text()
    assert compare_modes(text, Config(), demo_dir, table=frozenset())
    assert compare_modes(text, Config(), demo_dir) == []


def test_a_run_refused_before_its_first_create_reports_the_whole_summary(tmp_path, capsys):
    """The machine is built before line 1, so a summary has one shape: a run
    refused before any create reports every leaf's zero count and cost and
    a state snapshot, and --trace and --snapshot write their files."""
    scenario = _write(tmp_path, "early.scenario", "expect last == 1\n")
    trace, snapshot = tmp_path / "trace.jsonl", tmp_path / "snapshot.json"
    status, out, _ = _main(capsys, "run", scenario, "--json", "--trace", trace,
                           "--snapshot", snapshot)
    assert status == cli.EXIT_FAILED
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert summary["counters"] == summary["cost_tally"] == dict.fromkeys(ALL_LEAF_NAMES, 0)
    assert (summary["failed_at"], summary["state_snapshot"]["enclaves"]) == (1, [])
    assert summary["state_snapshot"]["config"] == Config().to_dict()
    assert trace.read_text() == ""
    assert json.loads(snapshot.read_text())["config"] == Config().to_dict()


# ---------------------------------------------------------------------------
# try lines


TRY_SCENARIO = ("create a standard.manifest\ninject_irq vcpu=0 at=1\ntry ecall ghost 0 1\n"
                "try swap_in a 0x100000\necall a 0 1 5 6\nexpect count:ERESUME == 0\n")


def test_refused_try_lines_are_equal_in_both_modes_and_read_as_refused(demo_dir, capsys):
    """An ecall of an absent enclave still takes the pending interrupt, and a
    swap_in of a page the enclave never had is refused: both are recorded
    and passed over, with no difference at all between the modes, and the
    run passes."""
    assert compare_modes(TRY_SCENARIO, Config(), demo_dir, table=()) == []
    status, out, _ = _main(capsys, "run", _write(demo_dir, "try.scenario", TRY_SCENARIO))
    assert status == cli.EXIT_OK
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["[ok]", "[ok]", "[refused]", "[refused]",
                                                   "[ok]", "[ok]", "PASS:"]


@pytest.mark.parametrize("text, message", [
    ("try frobnicate\n", "scenario line 1: unknown command 'frobnicate'"),
    ("try\n", "scenario line 1: try needs a command"),
])
def test_a_try_line_hides_no_authoring_error(text, message, tmp_path, capsys):
    status, out, _ = _main(capsys, "run", _write(tmp_path, "try.scenario", text))
    assert status == cli.EXIT_FAILED
    assert message in out


# ---------------------------------------------------------------------------
# A refused manifest or enclave program fails its scenario line: exit 1


# name -> (manifest lines, what the output names)
BAD_MANIFESTS = {
    "wide": ("name wide\nsize 0x4000000000000000\n", "manifest line 2: size 0x4000000000000000"),
    # movi x200, 5 at the entry point, then the two save-state pages and the TCS
    "badreg": ("name badreg\nsize 0x10000\n"
               "page vaddr=0 perms=rx content=hex:01c80000000000000500000000000000\n"
               "page vaddr=0x1000 perms=rw\npage vaddr=0x2000 perms=rw\n"
               "tcs vaddr=0x3000 oentry=0 ossa=0x1000\n", "'kind': 'bad_opcode'"),
    "measured": ("name measured\npage vaddr=0 perms=rw measured=Yes\n",
                 "manifest line 2: measured=Yes must be yes or no"),
    "sigbogus": ("name sigbogus\nsigstruct bogus\n",
                 "manifest line 2: unknown sigstruct source 'bogus'"),
    "novaddr": ("name novaddr\npage perms=rw\n", "manifest line 2: missing required field vaddr="),
    "nosize": ("name x\nsize\n", "manifest line 2: size needs a number"),
    "tlsout": ("name tlsout\nsize 0x10000\npage vaddr=0 perms=rx\n"
               "page vaddr=0x1000 perms=rw count=2\n"
               "tcs vaddr=0x3000 oentry=0 ossa=0x1000 tls=0x10000\n",
               "manifest line 5: tcs TLS base outside enclave"),
    "permstwice": ("name permstwice\npage vaddr=0 perms=r perms=rwx content=zero\n",
                   "manifest line 2: perms= given twice"),
}


@pytest.mark.parametrize("name", sorted(BAD_MANIFESTS))
def test_a_refused_manifest_or_program_fails_its_line(name, tmp_path, capsys):
    text, message = BAD_MANIFESTS[name]
    _write(tmp_path, f"{name}.manifest", text)
    calls = "ecall app 0 1\n" if name == "badreg" else ""
    scenario = _write(tmp_path, f"{name}.scenario", f"create app {name}.manifest\n{calls}")
    status, out, _ = _main(capsys, "run", scenario)
    assert status == cli.EXIT_FAILED
    assert message in out


# ---------------------------------------------------------------------------
# Unreadable inputs: exit 2, with the error named


@pytest.mark.parametrize("text, key", [
    ('{"mode": "sgx", "mode": "ccx"}', "mode"),
    ('{"cost_factors": {"kdf": 1, "kdf": 2}}', "kdf"),
])
def test_a_config_key_given_twice_is_refused(text, key, demo_dir, tmp_path, capsys):
    with pytest.raises(ModelError, match=f"^config: JSON key '{key}' given twice$"):
        Config.from_json(text)
    config = _write(tmp_path, "config.json", text)
    status, out, err = _main(capsys, "run", demo_dir / "lifecycle.scenario", "--config", config)
    assert (status, out, err) == (cli.EXIT_USAGE, "",
                                  f"error: config: JSON key '{key}' given twice\n")


# The config door, fuzzed from the fields of Config: each field's values,
# then at most one mutation of the file.
FIELD_VALUES = {
    "granule_count": st.integers(16, MAX_GRANULE_COUNT),
    "mode": st.sampled_from(["sgx", "ccx"]),
    "epc_base": st.integers(0, 4096),
    "epc_size": st.integers(0, 4096),
    "crypto_seed": st.integers(),
    "vcpu_count": st.integers(1, MAX_VCPU_COUNT),
    "max_ecall_steps": st.integers(1, 1 << 40),
    "audit_after_leaf": st.booleans(),
    "cost_factors": st.fixed_dictionaries(
        {}, optional={name: st.integers(0, 1000) for name in DEFAULT_COST_FACTORS}),
}
BOUNDARY_VALUES = [0, -1, 1 << 64, 1 << 40, 2.5, "0x10", True, None, [], {}]


@st.composite
def config_files(draw):
    """The bytes of a config file and the key it gives twice, if any: a
    drawn config with one field or factor set to a boundary value, a key
    no field has, a key given twice, the text cut short, a byte that is not
    UTF-8, or no mutation."""
    data = draw(st.fixed_dictionaries({}, optional=FIELD_VALUES))
    mutation = draw(st.sampled_from(["none", "boundary", "unknown", "twice", "cut", "not_utf8"]))
    if mutation == "boundary":
        name = draw(st.sampled_from(sorted(FIELD_VALUES) + sorted(DEFAULT_COST_FACTORS)))
        value = draw(st.sampled_from(BOUNDARY_VALUES))
        if name in DEFAULT_COST_FACTORS:
            data["cost_factors"] = {**data.get("cost_factors", {}), name: value}
        else:
            data[name] = value
    elif mutation == "unknown":
        data[draw(st.sampled_from(["leaf_base_cost", "Mode", "epc"]))] = 1
    text, twice = json.dumps(data), None
    if mutation == "twice" and data:
        twice = draw(st.sampled_from(sorted(data)))
        text = f'{text[:-1]}, {json.dumps(twice)}: {json.dumps(data[twice])}}}'
    elif mutation == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    raw = text.encode()
    if mutation == "not_utf8":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw, twice


def _admits(config, mode) -> bool:
    try:
        replace(config, mode=mode)
    except ModelError:
        return False
    return True


def test_the_config_strategy_draws_every_field():
    assert sorted(FIELD_VALUES) == sorted(Config.__dataclass_fields__)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_file=config_files())
def test_the_config_door_admits_what_config_admits_and_refuses_the_rest_by_status_2(
        config_file, demo_dir):
    """``run`` exits 0 on a config that ``Config`` admits and 2, with one
    line naming the error, on any other; ``compare`` exits 0 only if both
    modes admit it.  No exception escapes, a key given twice is refused as
    such, and an admitted config has the types of the defaults and
    round-trips through its JSON."""
    raw, twice = config_file
    path = demo_dir / "fuzzed.json"
    path.write_bytes(raw)
    scenario = _write(demo_dir, "nothing.scenario", "expect last == 0\n")
    try:
        config = Config.from_json(raw.decode())
    except (UnicodeDecodeError, ModelError):
        config = None
    for command, admitted in (
            ("run", config is not None),
            ("compare", config is not None and all(_admits(config, m) for m in ("sgx", "ccx")))):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main([command, str(scenario), "--config", str(path)])
        assert status == (cli.EXIT_OK if admitted else cli.EXIT_USAGE)
        if not admitted:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    if twice is not None:
        assert err.getvalue() == f"error: config: JSON key {twice!r} given twice\n"
    if config is not None:  # of the types of the defaults
        assert all(type(value) is type(getattr(Config(), name))
                   for name, value in vars(config).items())
        assert all(type(n) is int and n >= 0 for n in config.cost_factors.values())
        assert Config.from_json(config.to_json()) == config


@pytest.mark.parametrize("text, message", [
    ('{"epcm": [], "enclaves": [], "epcm": []}', "JSON key 'epcm' given twice"),
    ('{"gpt": []}', "member 'gpt' is not an object"),
    ('{"epcm": {}}', "member 'epcm' is not a list"),
])
def test_a_malformed_snapshot_is_refused(text, message, tmp_path, capsys):
    status, out, err = _main(capsys, "inspect", _write(tmp_path, "snapshot.json", text))
    assert (status, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and message in err


def test_attest_with_a_manifest_that_does_not_load_exits_1(demo_dir, tmp_path, capsys):
    bad = _write(tmp_path, "bad.manifest", "name bad\nfrobnicate yes\n")
    status, out, err = _main(capsys, "attest", bad, demo_dir / "standard_b.manifest")
    assert (status, out) == (cli.EXIT_FAILED, "")
    assert err.startswith("load failed: manifest line 2: unknown directive 'frobnicate'")


def test_bench_iterations_that_are_not_a_number_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--iterations", "abc"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "'abc' is not a positive integer" in capsys.readouterr().err


def test_bench_runs_only_the_leaf_suite(demo_dir, capsys):
    status, out, err = _main(capsys, "bench", demo_dir / "lifecycle.scenario")
    assert (status, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: unknown bench suite")


# ---------------------------------------------------------------------------
# python -m ccxsim.fixtures


def test_fixtures_main_writes_the_demo_tree(tmp_path, capsys):
    target = tmp_path / "demo"
    assert fixtures.main([str(target)]) == 0
    assert capsys.readouterr().out == f"fixtures written to {target}\n"
    assert sorted(p.stem for p in target.glob("*.scenario")) == sorted(DEMOS)
