"""The cost-model bench and the command-line front end."""

import dataclasses
import json
import re
import subprocess
import sys

import pytest

from ccxsim import cli, fixtures
from ccxsim.bench import run_leaf_bench
from ccxsim.config import MAX_GRANULE_COUNT, Config
from ccxsim.errors import ModelError
from ccxsim.machine import Machine

from helpers import small_config


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("demo")
    fixtures.write_demo_tree(d)
    return d


def bench_config(granules):
    return Config(granule_count=granules, epc_base=64, epc_size=512)


# ---------------------------------------------------------------------------
# Cost model shape


def test_cost_orderings_match_relative_expense():
    report = run_leaf_bench(bench_config(4096), iterations=3)
    cost = {name: row["cost_per_op"] for name, row in report.per_leaf.items()}
    assert cost["EWB"] > cost["EBLOCK"]
    assert cost["ELDU"] > cost["ETRACK"]
    for name, value in cost.items():
        if name != "ECREATE":
            assert cost["ECREATE"] > value, name


def test_ecreate_cost_monotone_in_granule_count():
    costs = []
    for granules in (2048, 4096, 8192):
        report = run_leaf_bench(bench_config(granules), iterations=1)
        costs.append(report.per_leaf["ECREATE"]["cost_per_op"])
    assert costs[0] < costs[1] < costs[2]


def test_every_leaf_exercised_at_least_n_times():
    n = 5
    report = run_leaf_bench(bench_config(4096), iterations=n)
    assert len(report.per_leaf) == 25
    for name, row in report.per_leaf.items():
        assert row["count"] >= n, name


def test_bench_refuses_a_leaf_it_issued_fewer_times_than_its_iterations(monkeypatch):
    """With the debug round skipped, EDBGRD and EDBGWR never run, and the
    bench ends on the first of them instead of reporting a count of 0."""
    from ccxsim import bench

    monkeypatch.setattr(bench, "_bench_debug", lambda *args: None)
    with pytest.raises(ModelError, match=r"bench under-exercised EDBG(RD|WR): 0 < 2"):
        run_leaf_bench(bench_config(2048), iterations=2)


def test_scenario_bench_in_ccx_mode_reports_zero_writebacks(demo_dir, tmp_path, capsys):
    """A ccx run of the lifecycle demo enters its enclave and writes no page
    back, read from the counters of its ``run --json`` summary."""
    cfg = tmp_path / "ccx.json"
    cfg.write_text(Config(granule_count=2048, mode="ccx", crypto_seed=5).to_json())
    assert cli.main(["run", str(demo_dir / "lifecycle.scenario"), "--config", str(cfg),
                     "--json"]) == cli.EXIT_OK
    counters = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]["counters"]
    assert counters["EWB"] == counters["ELDU"] == 0
    assert counters["EENTER"] >= 1


@pytest.mark.parametrize("iterations", [0, -1])
def test_bench_refuses_fewer_than_one_iteration(iterations, capsys):
    with pytest.raises(ModelError, match="at least 1 iteration"):
        run_leaf_bench(bench_config(2048), iterations=iterations)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--iterations", str(iterations)])
    assert exc.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_bench_structured_output_has_no_wall_time():
    report = run_leaf_bench(bench_config(2048), iterations=1)
    doc = json.loads(report.to_json())
    assert "wall" not in json.dumps(doc)
    assert report.wall_seconds > 0  # human report may show it


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, **overrides):
    cfg = small_config(granule_count=1024, epc_size=512, **overrides)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def test_cli_run_pass_and_exit_zero(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["run", str(demo_dir / "lifecycle.scenario"), "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_cli_run_failing_expect_exits_one(demo_dir, tmp_path, capsys):
    bad = demo_dir / "bad.scenario"
    bad.write_text("create app standard.manifest\necall app 0 1 7 0\nexpect last == 8\n")
    rc = cli.main(["run", str(bad), "--config", str(write_config(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 1
    assert "failed at line 3" in out


def test_cli_run_labels_a_refused_try_line_apart_from_the_line_that_ends_the_run(
        demo_dir, tmp_path, capsys):
    """Without --json, a refused try line is ``[refused]`` in a passing run;
    the refusal that ends a run is ``[FAIL]``."""
    cfg = str(write_config(tmp_path))
    passing = tmp_path / "try.scenario"
    passing.write_text(f"create a {demo_dir / 'standard.manifest'}\ntry ecall ghost 0 1\n"
                       "ecall a 0 1 5 6\n")
    assert cli.main(["run", str(passing), "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("[refused] line 2: try ecall ghost 0 1 !! "
                        "scenario line 2: unknown enclave 'ghost'")
    assert [line.split()[0] for line in lines] == ["[ok]", "[refused]", "[ok]", "PASS:"]
    failing = tmp_path / "fail.scenario"
    failing.write_text(passing.read_text() + "ecall ghost 0 1\n")
    assert cli.main(["run", str(failing), "--config", cfg]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["[ok]", "[refused]", "[ok]", "[FAIL]", "FAIL:",
                                                   "failed"]
    assert lines[3] == "[FAIL] line 4: ecall ghost 0 1 !! scenario line 4: unknown enclave 'ghost'"


def test_cli_run_with_an_oversized_page_count_fails_at_the_manifest_line(tmp_path, capsys):
    """A manifest run of 2**40 zero pages fails its scenario's create line
    with the manifest line named, as any other manifest error does."""
    (tmp_path / "huge.manifest").write_text("name huge\npage vaddr=0 count=1099511627776\n")
    (tmp_path / "huge.scenario").write_text("create app huge.manifest\n")
    rc = cli.main(["run", str(tmp_path / "huge.scenario"), "--config", str(write_config(tmp_path))])
    out = capsys.readouterr().out
    assert rc == 1
    assert "failed at line 1: manifest line 2: run of 1099511627776 pages" in out


def test_cli_mode_flag_flips_swap_behavior(demo_dir, tmp_path, capsys):
    scenario = demo_dir / "small_diff.scenario"
    scenario.write_text(
        "create t toucher.manifest\n"
        "ecall t 0 1 96 0\n"
        f"expect last == {fixtures.toucher_expected(96)}\n"
    )
    cfg = tmp_path / "c.json"
    cfg.write_text(Config(granule_count=2048, epc_base=32, epc_size=48).to_json())
    rc_sgx = cli.main(["run", str(scenario), "--config", str(cfg), "--mode", "sgx", "--json"])
    out_sgx = capsys.readouterr().out
    rc_ccx = cli.main(["run", str(scenario), "--config", str(cfg), "--mode", "ccx", "--json"])
    out_ccx = capsys.readouterr().out
    assert rc_sgx == rc_ccx == 0
    summary_sgx = json.loads(out_sgx.strip().splitlines()[-1])["summary"]
    summary_ccx = json.loads(out_ccx.strip().splitlines()[-1])["summary"]
    assert summary_sgx["counters"]["EWB"] > 0
    assert summary_ccx["counters"]["EWB"] == 0


def test_cli_json_report_is_byte_identical_across_runs(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["run", str(demo_dir / "lifecycle.scenario"), "--config", str(cfg), "--json"])
    out1 = capsys.readouterr().out
    cli.main(["run", str(demo_dir / "lifecycle.scenario"), "--config", str(cfg), "--json"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    for line in out1.strip().splitlines():
        json.loads(line)


def test_cli_env_var_default_config(demo_dir, tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("CCX_SIM_CONFIG", str(cfg))
    rc = cli.main(["run", str(demo_dir / "lifecycle.scenario")])
    capsys.readouterr()
    assert rc == 0


def test_cli_trace_and_snapshot_outputs(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    trace = tmp_path / "trace.jsonl"
    snap = tmp_path / "snap.json"
    rc = cli.main([
        "run", str(demo_dir / "lifecycle.scenario"), "--config", str(cfg),
        "--trace", str(trace), "--snapshot", str(snap),
    ])
    capsys.readouterr()
    assert rc == 0
    kinds = [json.loads(l)["kind"] for l in trace.read_text().splitlines()]
    assert "ecreate" in kinds and "eenter" in kinds
    doc = json.loads(snap.read_text())
    assert "enclaves" in doc and "epcm" in doc


def test_cli_inspect_redacts_unless_debug_requested(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    snap = tmp_path / "snap.json"
    scenario = demo_dir / "stay.scenario"
    scenario.write_text("create app standard.manifest\necall app 0 1 1 0\n")
    cli.main(["run", str(scenario), "--config", str(cfg), "--snapshot", str(snap)])
    capsys.readouterr()

    rc = cli.main(["inspect", str(snap), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    values = set(out["granule_contents"].values())
    assert values == {"<redacted>"}

    cli.main(["inspect", str(snap), "--json", "--debug-enclave"])
    out = json.loads(capsys.readouterr().out)
    shown = [v for v in out["granule_contents"].values() if v != "<redacted>"]
    assert shown  # the demo enclave carries the DEBUG attribute


def test_cli_inspect_human_lists_enclaves(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    snap = tmp_path / "snap.json"
    scenario = demo_dir / "stay2.scenario"
    scenario.write_text("create app standard.manifest\n")
    cli.main(["run", str(scenario), "--config", str(cfg), "--snapshot", str(snap)])
    capsys.readouterr()
    rc = cli.main(["inspect", str(snap)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eid 1" in out and "mrenclave=" in out and "SECS" in out


def test_cli_inspect_human_flags_a_crashed_enclave(demo_dir, tmp_path, capsys):
    """``inspect`` lists a crashed enclave's flag (``cli.cmd_inspect``)."""
    snap = tmp_path / "snap.json"
    scenario = demo_dir / "stay3.scenario"
    scenario.write_text("create app standard.manifest\n")
    cli.main(["run", str(scenario), "--config", str(write_config(tmp_path)), "--snapshot", str(snap)])
    doc = json.loads(snap.read_text())
    doc["enclaves"][0]["crashed"] = True
    snap.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["inspect", str(snap)]) == 0
    assert "eid 1: size 0x200000 [init,debug,crashed]" in capsys.readouterr().out


def test_cli_attest_exit_codes(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main([
        "attest", str(demo_dir / "standard.manifest"), str(demo_dir / "standard_b.manifest"),
        "--config", str(cfg),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mutual attestation: PASS" in out


def test_cli_bench_json(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = cli.main(["bench", "--config", str(cfg), "--iterations", "2", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert set(doc["per_leaf"]) >= {"ECREATE", "EWB", "EDECCSSA"}


def test_cli_bench_human_lists_each_leaf_by_cost_per_op(tmp_path, capsys):
    """Without --json the bench prints a header, then one row per leaf, the
    dearest per op first, with the counts and costs of the JSON report."""
    cfg = write_config(tmp_path)
    assert cli.main(["bench", "--config", str(cfg), "--iterations", "2", "--json"]) == 0
    per_leaf = json.loads(capsys.readouterr().out)["per_leaf"]
    assert cli.main(["bench", "--config", str(cfg), "--iterations", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"leaf microbenchmark, 2 iterations, wall \d+\.\d{3}s \(informational\)",
                        lines[0])
    assert lines[1].split() == ["leaf", "count", "cost/op", "cost", "total"]
    rows = [line.split() for line in lines[2:]]
    assert {name: [int(v) for v in values] for name, *values in rows} == {
        name: [row["count"], row["cost_per_op"], row["cost_total"]]
        for name, row in per_leaf.items()
    }
    costs = [int(row[2]) for row in rows]
    assert costs == sorted(costs, reverse=True)


def test_cli_seed_flag_changes_platform_identity(demo_dir, tmp_path, capsys):
    cfg = write_config(tmp_path)
    args = ["attest", str(demo_dir / "standard.manifest"),
            str(demo_dir / "standard_b.manifest"), "--config", str(cfg), "--json"]
    cli.main(args + ["--seed", "1"])
    doc1 = json.loads(capsys.readouterr().out)
    cli.main(args + ["--seed", "2"])
    doc2 = json.loads(capsys.readouterr().out)
    assert doc1["mutual"] and doc2["mutual"]
    # measurements are seed independent; signer identities are per platform
    assert doc1["a"]["mrenclave"] == doc2["a"]["mrenclave"]
    assert doc1["a"]["mrsigner"] != doc2["a"]["mrsigner"]


def test_cli_unknown_config_is_usage_error(tmp_path, capsys):
    rc = cli.main(["run", "nope.scenario", "--config", str(tmp_path / "missing.json")])
    capsys.readouterr()
    assert rc == 2


def test_config_round_trips(tmp_path):
    cfg = Config(granule_count=4096, mode="ccx", crypto_seed=42)
    text = cfg.to_json()
    again = Config.from_json(text)
    assert again.to_json() == text
    assert again.mode == "ccx" and again.crypto_seed == 42


# Each malformed config is refused with a ModelError that names its field.
BAD_CONFIGS = [
    ({"granule_count": "abc"}, "granule_count"),
    ({"vcpu_count": 2.5}, "vcpu_count"),
    ({"crypto_seed": "x"}, "crypto_seed"),
    ({"cost_factors": 3}, "cost_factors"),
    ([1, 2], "JSON object"),
    ({"cost_factors": {"EFOO": 1}}, "EFOO"),
    ({"cost_factors": {"kdf": -1}}, "cost_factors.kdf"),
    # a leaf's cost is a column of its row, not a config field
    ({"leaf_base_cost": {"ECREATE": 40}}, "leaf_base_cost"),
    # concurrent cores are calls their driver interleaves: no seed is a field
    ({"scheduler_seed": 7}, "scheduler_seed"),
    ({"audit_after_leaf": "no"}, "audit_after_leaf"),
    ({"granule_count": MAX_GRANULE_COUNT + 1}, "granule_count"),
    ({"epc_size": 0}, "epc_size"),
    ({"epc_base": 1}, "epc_base"),
    ({"granule_count": 1024, "epc_base": 1000, "epc_size": 32}, "epc_size"),
    ({"max_ecall_steps": 0}, "max_ecall_steps"),
    ({"max_ecall_steps": 2.5}, "max_ecall_steps"),
    ({"max_ecall_steps": "10"}, "max_ecall_steps"),
    ({"mode": "tdx"}, "mode"),
]


@pytest.mark.parametrize("data, named", BAD_CONFIGS,
                         ids=[named for _, named in BAD_CONFIGS])
def test_malformed_config_is_refused_by_field(data, named, tmp_path, capsys):
    with pytest.raises(ModelError, match=re.escape(named)):
        Config.from_json(json.dumps(data))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "nope.scenario", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"{"],
                         ids=["directory", "not-utf8", "not-json"])
def test_unreadable_config_is_refused(content, tmp_path, capsys):
    path = tmp_path / "cfg"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ModelError, match="config"):
        Config.load(str(path))
    assert cli.main(["run", "nope.scenario", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# Each unreadable front-end input used to end in a Python traceback:
# name -> (subcommand, bytes of the input file, or None for a directory).
UNREADABLE_INPUTS = {
    "inspect-not-json": ("inspect", b"{"),
    "inspect-json-list": ("inspect", b"[1, 2]"),
    "inspect-enclave-not-object": ("inspect", b'{"enclaves": [1]}'),
    "inspect-epcm-without-type": ("inspect", b'{"epcm": [{"granule": 3}]}'),
    "inspect-directory": ("inspect", None),
    "run-directory": ("run", None),
    "run-not-utf8": ("run", b"\xff\xfe create a x.manifest\n"),
    "bench-directory": ("bench", None),
    "attest-directory": ("attest", None),
    "attest-not-utf8": ("attest", b"name \xff\n"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_a_usage_error(name, demo_dir, tmp_path, capsys):
    command, content = UNREADABLE_INPUTS[name]
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = [command, str(path)]
    if command == "attest":
        argv.append(str(demo_dir / "standard_b.manifest"))
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("flag", ["--trace", "--snapshot"])
def test_run_output_path_that_is_a_directory_is_a_usage_error(flag, demo_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["run", str(demo_dir / "lifecycle.scenario"), flag, str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_config_cap_admits_its_bound():
    cfg = Config.from_dict({"granule_count": MAX_GRANULE_COUNT, "cost_factors": {"kdf": 0}})
    assert cfg.granule_count == MAX_GRANULE_COUNT and cfg.cost_factors["kdf"] == 0
    assert cfg.cost_factors["aead_page"] == Config().cost_factors["aead_page"]


def test_a_cost_table_built_in_code_must_name_every_factor():
    """Only ``from_dict`` merges a partial table over the defaults; a
    ``Config`` built in code with one is itself refused, naming the first
    factor it lacks."""
    with pytest.raises(ModelError, match="lacks factor 'gpt_per_granule'"):
        Config(cost_factors={"kdf": 1})
    assert Machine(Config(cost_factors=dict(Config().cost_factors))).leaf_cost


def test_a_built_config_is_frozen_and_each_variant_is_validated():
    """Nothing changes a ``Config`` once built, not even the caller's own
    cost table, and a variant made with ``replace`` is validated as it is
    built: a ccx-only config has no valid sgx variant."""
    table = dict(Config().cost_factors)
    cfg = Config(mode="ccx", epc_size=0, cost_factors=table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.mode = "sgx"
    with pytest.raises(TypeError):
        cfg.cost_factors["kdf"] = 0
    table["kdf"] = 0
    assert cfg.cost_factors["kdf"] == Config().cost_factors["kdf"]
    with pytest.raises(ModelError, match="'epc_size' is 0, and sgx mode needs an EPC"):
        dataclasses.replace(cfg, mode="sgx")
    assert Config.from_json(cfg.to_json()) == cfg


def test_console_entry_point_runs(demo_dir, tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "ccxsim.cli", "run",
         str(demo_dir / "lifecycle.scenario"), "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
