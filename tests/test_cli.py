"""Command-line interface: subcommands, exit codes, output determinism."""

import csv
import json

import pytest

from decoupsim import flops
from decoupsim.cli import main


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

    def test_invalid_field_is_config_error(self, ber_config, tmp_path):
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path),
                     "--override", "detector=\"ML\""]) == 2

    @pytest.mark.parametrize("override", ["decodpler=\"PINV\"", "sytem.k=8"])
    def test_misspelt_key_is_config_error(self, ber_config, tmp_path, override):
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path),
                     "--override", override]) == 2

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
        assert flops.count_matmul(1, 1, 1) == 6

    def test_infeasible_system_exit_code(self, ber_config, tmp_path):
        assert main(["ber", "--config", str(ber_config), "--out", str(tmp_path),
                     "--override", "system.n_r=4"]) == 3


class TestAuditCommand:
    def test_runs(self, ber_config, tmp_path):
        out = tmp_path / "a"
        assert main(["audit", "--config", str(ber_config), "--out", str(out),
                     "--trials", "5"]) == 0
        lines = (out / "audit.csv").read_text().splitlines()
        assert len(lines) == 4  # header + SD, SVD, PINV


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
        prices = {"add": 1, "mul": 3, "div": 5, "qr_scale": 10}
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
        assert flops.count_matmul(1, 1, 1) == 6


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


@pytest.mark.parametrize("command", ["audit", "flops", "include"])
def test_threads_is_rejected_where_no_pool_runs(command, ber_config, tmp_path):
    # only ``ber`` runs a thread pool; elsewhere --threads is an invalid configuration
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(ber_config), "--out", str(out), "--threads", "8"])
    assert exc.value.code == 2
    assert not out.exists()
