"""Command-line interface: subcommands, exit codes, output determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

import decoupsim
from decoupsim import flops
from decoupsim.cli import build_parser, main


@pytest.fixture
def ber_config(tmp_path):
    cfg = {
        "system": {"n_r": 12, "k": 3, "m_i": 2},
        "decoupler": "SD",
        "detector": "LMMSE",
        "constellation": "QPSK",
        "snr_db": [0.0, 10.0],
        "bits_per_point": 600,
        "seed": 11,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestBerCommand:
    def test_runs_and_writes_outputs(self, ber_config, tmp_path, capsys):
        out = tmp_path / "run1"
        assert main(["ber", "--config", str(ber_config), "--out", str(out)]) == 0
        assert (out / "ber.csv").exists()
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ber"
        assert manifest["config"]["system"]["k"] == 3

    def test_byte_identical_csv_across_thread_counts(self, ber_config, tmp_path):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert main(["ber", "--config", str(ber_config), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["ber", "--config", str(ber_config), "--out", str(out4),
                     "--threads", "4"]) == 0
        assert (out1 / "ber.csv").read_bytes() == (out4 / "ber.csv").read_bytes()

    def test_override_changes_run(self, ber_config, tmp_path):
        out = tmp_path / "o"
        assert main(["ber", "--config", str(ber_config), "--out", str(out),
                     "--override", "snr_db=[5.0]"]) == 0
        body = (out / "ber.csv").read_text()
        assert ",5.0," in body and ",10.0," not in body

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["ber", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("override", [
        'detector="ML"',
        "detector",  # no "="
        "system.n_r=0",
        "threads=0",
        "snr_db=[]",
        'decoupler="QR"',
        'constellation="QAM8"',
        "channel.kronecker.rho_tx=1.0",
        "system.k.x=1",  # a path through a value
        "channel=5",  # a section that is not an object
    ])
    def test_invalid_field_is_config_error(self, ber_config, tmp_path, capsys, override):
        out = tmp_path / "o"
        assert main(["ber", "--config", str(ber_config), "--out", str(out),
                     "--override", override]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("override", ["decodpler=\"PINV\"", "sytem.k=8"])
    def test_misspelt_key_is_config_error(self, ber_config, tmp_path, override):
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path),
                     "--override", override]) == 2

    @pytest.mark.parametrize("override,key", [
        ('whiten="false"', "whiten"),
        ("whiten=False", "whiten"),  # not JSON, so the string "False"
        ("bits_per_point=1200.7", "bits_per_point"),  # 1200 would be a valid budget
        ("seed=3.7", "seed"),
        ("seed=true", "seed"),
        ("threads=2.9", "threads"),
        ("system.n_r=16.9", "n_r"),
        ("system.m_i=[2, 2.5, 2]", "m_i"),
        ('snr_db="048"', "snr_db"),
        ('channel.large_scale.mu_db="3"', "mu_db"),
        ('cost_model.add="2"', "add"),
        # NaN and the infinities parse as JSON numbers, but no run can use them
        ("snr_db=[0, NaN]", "snr_db"),
        ("snr_db=[-Infinity, 0]", "snr_db"),
        ('channel.ce_error={"sigma_e2": NaN}', "sigma_e2"),
        ('cost_model={"mul": Infinity}', "mul"),
        # finite points whose noise variance is past the float range: 10^400 raises,
        # and 2 x 10^308.2 (m_total / k = 2) overflows to inf without raising
        ("snr_db=[-4000, 0]", "snr_db"),
        ("snr_db=[-3082, 0]", "snr_db"),
        # a constellation name that is no power-of-4 order, read without a log2
        ("constellation=QAM0", "constellation"),
        ("constellation=QAM", "constellation"),
        ("constellation=QAM-16", "constellation"),
        ("constellation=QAM1e3", "constellation"),
        # a power of 4 past 65536-QAM, rejected before any point table is built
        ("constellation=QAM262144", "constellation"),
        (f"constellation=QAM{4 ** 64}", "constellation"),
    ])
    def test_value_of_wrong_type_is_config_error(self, ber_config, tmp_path, capsys,
                                                 override, key):
        # a wrong JSON type is rejected by name, never cast into shape
        out = tmp_path / "o"
        assert main(["ber", "--config", str(ber_config), "--out", str(out),
                     "--override", override]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_config_error(self, ber_config, tmp_path, capsys, monkeypatch):
        # rejected before the sweep; root may write anywhere, so the cases are files
        def sweep(*args, **kwargs):
            raise AssertionError("swept before checking --out")

        monkeypatch.setattr("decoupsim.cli.run_paired_ber", sweep)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        for out in (taken, taken / "sub"):
            assert main(["ber", "--config", str(ber_config), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"invalid configuration: cannot write outputs to {out}" in err
        assert taken.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("command,runner,extra", [
        ("audit", "run_equivalence_audit", ["--trials", "200"]),
        ("flops", "run_flop_bench", []),
        ("include", "run_flop_bench", []),
    ])
    def test_every_subcommand_checks_out_before_work(self, command, runner, extra, ber_config,
                                                     tmp_path, capsys, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError(f"{command} ran before checking --out")

        monkeypatch.setattr(f"decoupsim.cli.{runner}", run)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        out = taken / "x"
        assert main([command, "--config", str(ber_config), "--out", str(out), *extra]) == 2
        assert f"invalid configuration: cannot write outputs to {out}" in capsys.readouterr().err
        assert taken.read_text() == "a file, not a directory"

    def test_misspelt_key_in_config_file_is_config_error(self, ber_config, tmp_path):
        cfg = json.loads(ber_config.read_text())
        cfg["decodpler"] = cfg.pop("decoupler")
        ber_config.write_text(json.dumps(cfg))
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path)]) == 2

    def test_cost_model_is_scoped_to_the_subcommand(self, ber_config, tmp_path):
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path),
                     "--override", 'cost_model={"add": 1, "mul": 1, "div": 1}']) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["cost_model"]["mul"] == 1
        assert flops._tally.get() is None
        assert flops.CostModel().matmul(1, 1, 1) == 6

    def test_infeasible_system_exit_code(self, ber_config, tmp_path):
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path),
                     "--override", "system.n_r=4"]) == 3

    def test_sic_overload_exits_3_without_output(self, tmp_path, capsys):
        # each user is decouplable (6 < 8), but its link has 2 rows for 3 streams
        path = tmp_path / "over.json"
        path.write_text(json.dumps({"system": {"n_r": 8, "k": 3, "m_i": 3},
                                    "bits_per_point": 180, "detector": "SIC"}))
        for decoupler in ("SD", "SVD"):
            assert main(["ber", "--config", str(path), "--override", f"decoupler={decoupler}",
                         "--out", str(tmp_path / "o")]) == 3
            assert "SIC detector needs total streams 9 <= n_r=8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("large_scale,code", [
        ({"mu_db": 4000.0}, 4),               # a shadowing draw overflows
        ({"d_rel": 1e-300, "tau": 3.0}, 2),   # the path loss is out of range
        ({"mu_db": 1000.0}, 4),               # an effective-channel Gram overflows
    ])
    def test_out_of_range_large_scale_exits_cleanly(self, tmp_path, capsys, large_scale, code):
        path = tmp_path / "ls.json"
        path.write_text(json.dumps({"system": {"n_r": 8, "k": 2, "m_i": 2},
                                    "bits_per_point": 80,
                                    "channel": {"large_scale": large_scale}}))
        assert main(["ber", "--config", str(path), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o" / "ber.csv").exists()


class TestAuditCommand:
    def test_runs(self, ber_config, tmp_path):
        out = tmp_path / "a"
        assert main(["audit", "--config", str(ber_config), "--out", str(out),
                     "--trials", "5"]) == 0
        lines = (out / "audit.csv").read_text().splitlines()
        assert len(lines) == 4  # header + SD, SVD, PINV

    def test_overflowing_column_norm_exits_4(self, tmp_path, capsys):
        # gains near 1e300 stay finite, but a column's sum of squares overflows;
        # m_total > n_r, so no PINV arm reports it as rank-deficient instead
        path = tmp_path / "ls.json"
        path.write_text(json.dumps({"system": {"n_r": 7, "k": 4, "m_i": 2},
                                    "bits_per_point": 80,
                                    "channel": {"large_scale": {"mu_db": 1000.0}}}))
        out = tmp_path / "a"
        assert main(["audit", "--config", str(path), "--out", str(out), "--trials", "5"]) == 4
        assert capsys.readouterr().err.startswith("error: numerical failure")
        assert not (out / "audit.csv").exists()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFlopsCommand:
    def test_estimates_only_sweep(self, tmp_path):
        out = tmp_path / "f"
        assert main(["flops", "--out", str(out), "--sweep", "users",
                     "--no-instrumented"]) == 0
        lines = (out / "flops_users.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 3  # six K points x three algorithms

    def test_config_cost_model_prices_the_tables(self, ber_config, tmp_path):
        prices = {"add": 1, "mul": 3, "div": 5}
        model = flops.CostModel(**prices)
        cfg = json.loads(ber_config.read_text())
        cfg["cost_model"] = prices
        ber_config.write_text(json.dumps(cfg))

        out = tmp_path / "f"
        assert main(["flops", "--config", str(ber_config), "--out", str(out),
                     "--sweep", "users", "--no-instrumented"]) == 0
        sd80 = next(r for r in _csv_rows(out / "flops_users.csv")
                    if r["algorithm"] == "SD" and r["param"] == "80")
        assert int(sd80["flops_estimate"]) == flops.estimate_flops(
            "SD", 170, 2, k=80, model=model).total
        assert json.loads((out / "manifest.json").read_text())["cost_model"]["mul"] == 3

        out = tmp_path / "i"
        assert main(["include", "--config", str(ber_config), "--out", str(out),
                     "--base-k", "12", "--base-n-r", "34", "--p-max", "2"]) == 0
        ui2 = next(r for r in _csv_rows(out / "include.csv")
                   if r["algorithm"] == "SD_UI" and r["param"] == "2")
        expected = flops.estimate_flops("SD_UI", 34, 2, k=12, added=[2, 2], model=model).total
        assert int(ui2["flops_estimate"]) == expected
        assert int(ui2["flops_instrumented"]) == expected
        assert flops._tally.get() is None
        assert flops.CostModel().matmul(1, 1, 1) == 6

    def test_qr_scale_is_an_unknown_cost_model_key(self, ber_config, tmp_path, capsys):
        out = tmp_path / "f"
        assert main(["flops", "--config", str(ber_config), "--out", str(out), "--no-instrumented",
                     "--override", 'cost_model={"qr_scale": 10}']) == 2
        assert "qr_scale" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_states_no_price_outside_cost_model(self, ber_config, tmp_path):
        out = tmp_path / "f"
        assert main(["flops", "--config", str(ber_config), "--out", str(out), "--sweep", "users",
                     "--no-instrumented", "--override", 'cost_model={"add": 1, "mul": 1}']) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["cost_model"]["add"] == manifest["cost_model"]["mul"] == 1
        assert "cost_model" in manifest["flop_convention"]
        assert not any(c.isdigit() for c in manifest["flop_convention"])

    @pytest.mark.parametrize("command,prices,column", [
        (["flops", "--sweep", "users"], {"svd_scale": 0}, "ratio_to_svd"),
        (["include"], {"inv_scale": 0, "mul": 0, "add": 0}, "ratio_to_pinv"),
    ], ids=["flops", "include"])
    def test_zero_cost_baseline_gives_empty_ratio_cells(self, ber_config, tmp_path, command,
                                                        prices, column):
        out = tmp_path / "f"
        assert main(command + ["--no-instrumented", "--config", str(ber_config), "--out",
                               str(out), "--override", f"cost_model={json.dumps(prices)}"]) == 0
        rows = _csv_rows(next(out.glob("*.csv")))
        assert rows and all(r[column] == "" for r in rows)

    def test_overflowing_flop_total_exits_4(self, ber_config, tmp_path, capsys):
        # a finite price whose FLOP total is past the float range
        out = tmp_path / "f"
        assert main(["flops", "--config", str(ber_config), "--out", str(out), "--sweep", "users",
                     "--no-instrumented", "--override", 'cost_model={"mul": 1e308}']) == 4
        assert "numerical failure: a FLOP total is past the float range" in capsys.readouterr().err
        assert not out.exists()


class TestIncludeCommand:
    def test_small_inclusion_bench(self, tmp_path):
        out = tmp_path / "i"
        assert main(["include", "--out", str(out), "--base-k", "12",
                     "--base-n-r", "34", "--p-max", "2", "--no-instrumented"]) == 0
        lines = (out / "include.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4  # two P points x four algorithms

    def test_infeasible_base_exit_code(self, tmp_path, capsys):
        # 70 users of 2 streams leave 138 > 130 for each; caught before any row runs
        assert main(["include", "--out", str(tmp_path), "--base-k", "70",
                     "--base-n-r", "130", "--no-instrumented"]) == 3
        assert "user 0 cannot be decoupled" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--base-k", "0"), ("--m-i", "0"), ("--p-max", "0"), ("--p-max", "-1"),
        ("--base-n-r", "0"),
    ])
    def test_nonpositive_size_is_config_error(self, tmp_path, flag, value):
        out = tmp_path / "i"
        assert main(["include", "--out", str(out), "--no-instrumented", flag, value]) == 2
        assert not (out / "include.csv").exists()


@pytest.mark.parametrize("argv", [
    ["ber", "--seed", "-5"],
    ["ber", "--override", "seed=-3"],
    ["audit", "--seed", "-5"],
    ["flops", "--seed", "-5", "--sweep", "users"],
    ["include", "--seed", "-5", "--base-k", "4", "--base-n-r", "12", "--p-max", "1"],
], ids=["ber", "ber_config", "audit", "flops", "include"])
def test_negative_seed_is_config_error(argv, ber_config, tmp_path, capsys):
    # numpy's SeedSequence takes no negative seed; it fails as a configuration error
    out = tmp_path / "s"
    config = ["--config", str(ber_config)] if argv[0] in ("ber", "audit") else []
    assert main([*argv, *config, "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "flops", "include"])
def test_threads_is_rejected_where_no_pool_runs(command, ber_config, tmp_path):
    # only ``ber`` runs a thread pool; elsewhere --threads is an invalid configuration
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(ber_config), "--out", str(out), "--threads", "8"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "flops", "include"])
def test_config_threads_is_rejected_where_no_pool_runs(command, ber_config, tmp_path):
    # a threads value in the config (here by override) is as ignored as --threads
    out = tmp_path / "t"
    assert main([command, "--config", str(ber_config), "--out", str(out),
                 "--override", "threads=8"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["flops", "include"])
def test_override_without_config_is_config_error(command, tmp_path):
    out = tmp_path / "o"
    assert main([command, "--no-instrumented", "--out", str(out),
                 "--override", "seed=3"]) == 2
    assert not out.exists()


# README's example configuration
README_CONFIG = {
    "system": {"n_r": 64, "k": 15, "m_i": 4}, "decoupler": "SD", "detector": "LMMSE",
    "constellation": "QPSK", "snr_db": [0.0, 4.0, 8.0, 12.0, 16.0], "bits_per_point": 200040,
    "seed": 1234, "whiten": False, "threads": 1, "n_subcarriers": 1,
    "channel": {"kronecker": {"rho_tx": 0.25, "rho_rx": 0.05},
                "large_scale": {"mu_db": 3.0, "l_path": 0.65, "d_rel": 0.65, "tau": 3.0},
                "ce_error": {"sigma_e2": 0.01}},
    "cost_model": {"add": 2, "mul": 6, "div": 11},
}


def test_in_process_calls_match_fresh_processes(tmp_path):
    # main reuses one parser and one constellation per order: no call may see another's run
    cfg = tmp_path / "readme.json"
    cfg.write_text(json.dumps(README_CONFIG))
    six_trials = ["--override", "bits_per_point=720", "--threads", "2"]
    runs = {"ber_1234": (["ber", "--seed", "1234", *six_trials], "ber.csv"),
            "ber_7": (["ber", "--seed", "7", *six_trials], "ber.csv"),
            "audit": (["audit", "--trials", "3"], "audit.csv")}

    def run(name, out, call):
        argv, csv_name = runs[name]
        assert call([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        return (out / csv_name).read_bytes()

    order = ["ber_1234", "ber_7", "audit", "ber_1234"]
    in_process = [run(name, tmp_path / f"in{i}", main) for i, name in enumerate(order)]
    src = os.path.dirname(os.path.dirname(decoupsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def fresh_process(argv):
        return subprocess.run([sys.executable, "-m", "decoupsim.cli", *argv], env=env,
                              capture_output=True).returncode

    fresh = {name: run(name, tmp_path / f"fresh_{name}", fresh_process) for name in runs}
    assert in_process == [fresh[name] for name in order]
    assert fresh["ber_1234"] != fresh["ber_7"]


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()
