import json
from pathlib import Path

import pytest
import yaml

from kinex.cli import build_model, load_experiment_config, main
from kinex.errors import ConfigError


def write_cfg(tmp_path, payload, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


BASE = {
    "n_agents": 20,
    "t_max": 30,
    "n_configs": 6,
    "master_seed": 101,
    "model": {"rule": "distributed_saving", "lambda_window": [0.0, 1.0], "epsilon": 0.5},
}


class TestConfigLoading:
    def test_single_file_multiple_sections(self, tmp_path):
        payload = {
            **BASE,
            "relax": {"t_max": 25},
            "eps-sweep": {"eps_values": [0.4, 0.5, 0.6]},
        }
        path = write_cfg(tmp_path, payload)
        relax = load_experiment_config(path, "relax")
        sweep = load_experiment_config(path, "eps-sweep")
        assert relax.t_max == 25
        assert sweep.t_max == 30
        assert sweep.eps_values == (0.4, 0.5, 0.6)
        assert relax.master_seed == sweep.master_seed == 101

    def test_cli_overrides_win(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        cfg = load_experiment_config(path, "relax", seed=7, out=str(tmp_path / "o"), threads=3)
        assert cfg.master_seed == 7
        assert cfg.output_dir == tmp_path / "o"
        assert cfg.workers == 3

    def test_env_thread_fallback(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, BASE)
        monkeypatch.setenv("KINEX_THREADS", "2")
        cfg = load_experiment_config(path, "relax")
        assert cfg.workers == 2
        # explicit flag beats the environment
        cfg = load_experiment_config(path, "relax", threads=5)
        assert cfg.workers == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "nope.yaml", "relax")

    def test_model_parsing(self):
        spec = build_model({"rule": "fixed_saving", "lambda_fixed": 0.3, "epsilon": "uniform"}, "relax")
        assert spec.rule == "fixed_saving"
        assert spec.eps_fixed is None
        spec = build_model({"rule": "distributed_saving"}, "lambda-family")
        assert spec.eps_fixed == 0.5  # balanced split is the family default
        with pytest.raises(ConfigError):
            build_model({"rule": "pure_gambling", "bogus": 1}, "relax")


class TestCommands:
    def test_relax_writes_series_fits_manifest(self, tmp_path):
        path = write_cfg(tmp_path, {**BASE, "output_dir": str(tmp_path / "out")})
        assert main(["relax", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "series_relax.csv").exists()
        fit_text = (out / "fit_relax.csv").read_text()
        assert "shifted_approach" in fit_text and "pure_decay" in fit_text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "relax"
        assert "series_relax.csv" in manifest["outputs"]

    def test_rerun_reproduces_bytes_and_digests(self, tmp_path):
        p1 = write_cfg(tmp_path, {**BASE, "output_dir": str(tmp_path / "a")}, "a.yaml")
        p2 = write_cfg(tmp_path, {**BASE, "output_dir": str(tmp_path / "b")}, "b.yaml")
        assert main(["relax", "--config", str(p1)]) == 0
        assert main(["relax", "--config", str(p2)]) == 0
        s1 = (tmp_path / "a" / "series_relax.csv").read_bytes()
        s2 = (tmp_path / "b" / "series_relax.csv").read_bytes()
        assert s1 == s2
        m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["started"] != m2["started"]  # only timestamps differ

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfgd = {**BASE, "n_configs": 8}
        p = write_cfg(tmp_path, cfgd)
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
        assert (tmp_path / "t1" / "series_relax.csv").read_bytes() == (
            tmp_path / "t4" / "series_relax.csv"
        ).read_bytes()

    def test_lambda_family_table(self, tmp_path):
        payload = {
            **BASE,
            "t_max": 40,
            "lambda-family": {"lambda_windows": [[0.5, 1.0], [0.0, 1.0]]},
        }
        p = write_cfg(tmp_path, payload)
        assert main(["lambda-family", "--config", str(p), "--out", str(tmp_path / "fam")]) == 0
        table = (tmp_path / "fam" / "tau_table.csv").read_text().splitlines()
        data = [row for row in table if row and not row.startswith("#") and not row.startswith("window_lo")]
        assert len(data) == 2
        # rows come out sorted by window mean regardless of input order
        assert data[0].startswith("0.0,") and data[1].startswith("0.5,")
        assert (tmp_path / "fam" / "series_lw_0_1.csv").exists()
        assert (tmp_path / "fam" / "series_lw_0.5_1.csv").exists()

    def test_eps_sweep_marks_argmin(self, tmp_path):
        payload = {**BASE, "t_max": 60, "n_configs": 30,
                   "eps-sweep": {"eps_values": [0.3, 0.5, 0.7]}}
        p = write_cfg(tmp_path, payload)
        assert main(["eps-sweep", "--config", str(p), "--out", str(tmp_path / "sw")]) == 0
        rows = [
            r
            for r in (tmp_path / "sw" / "x0_table.csv").read_text().splitlines()
            if r and not r.startswith("#") and not r.startswith("eps,")
        ]
        assert len(rows) == 3
        assert sum(r.endswith(",1") for r in rows) == 1

    def test_eps_sweep_needs_distributed_model(self, tmp_path):
        payload = {**BASE, "model": {"rule": "pure_gambling"},
                   "eps-sweep": {"eps_values": [0.5]}}
        p = write_cfg(tmp_path, payload)
        assert main(["eps-sweep", "--config", str(p), "--out", str(tmp_path / "x")]) == 2

    def test_dist_outputs(self, tmp_path):
        payload = {
            **BASE,
            "dist": {"equilibration_steps": 20, "sample_steps": 10, "bins": 20},
        }
        p = write_cfg(tmp_path, payload)
        assert main(["dist", "--config", str(p), "--out", str(tmp_path / "d")]) == 0
        assert (tmp_path / "d" / "hist_wealth.csv").exists()
        assert (tmp_path / "d" / "lambda_bins.csv").exists()  # distributed model

    def test_dist_auto_equilibration(self, tmp_path):
        payload = {**BASE, "t_max": 40, "dist": {"sample_steps": 5}}
        p = write_cfg(tmp_path, payload)
        assert main(["dist", "--config", str(p), "--out", str(tmp_path / "da")]) == 0
        manifest = json.loads((tmp_path / "da" / "manifest.json").read_text())
        assert any("equilibration_steps=" in n for n in manifest["notes"])

    def test_rrn_small_run(self, tmp_path):
        payload = {
            "master_seed": 3,
            "rrn": {"side": 8, "t_max": 40, "n_configs": 2, "g_windows": [[0.0, 1.0]], "dense_check": True},
        }
        p = write_cfg(tmp_path, payload)
        assert main(["rrn", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "series_g_0_1.csv").exists()
        assert (tmp_path / "r" / "tau_table.csv").exists()
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert any("dense-solver" in n for n in manifest["notes"])

    def test_fit_subcommand_on_existing_series(self, tmp_path):
        p = write_cfg(tmp_path, {**BASE, "t_max": 60, "output_dir": str(tmp_path / "src")})
        assert main(["relax", "--config", str(p)]) == 0
        fit_cfg = write_cfg(
            tmp_path,
            {"fit": {"series_csv": str(tmp_path / "src" / "series_relax.csv")}},
            "fit.yaml",
        )
        assert main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "fit_series.csv").exists()

    def test_bad_config_exits_2(self, tmp_path):
        assert main(["relax", "--config", str(tmp_path / "missing.yaml")]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("- just\n- a list\n", encoding="utf-8")
        assert main(["relax", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "override,error",
        [
            ({"n_agents": 1}, "InvalidSize"),
            ({"model": {**BASE["model"], "lambda_window": [0.5, 0.2]}}, "InvalidParameter"),
        ],
    )
    def test_kinex_errors_exit_2_with_one_line(self, tmp_path, capsys, override, error):
        p = write_cfg(tmp_path, {**BASE, **override})
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: ") and error in err
        assert err.count("\n") == 1

    def test_bad_tail_fraction_fails_before_simulating(self, tmp_path):
        p = write_cfg(tmp_path, {**BASE, "tail_fraction": 0.9})
        out = tmp_path / "tf"
        assert main(["relax", "--config", str(p), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_strict_flags_ordering_violation(self, tmp_path):
        # a single window cannot violate the ordering check
        payload = {**BASE, "t_max": 40, "lambda-family": {"lambda_windows": [[0.0, 1.0]]}}
        p = write_cfg(tmp_path, payload)
        assert main(["lambda-family", "--config", str(p), "--strict", "--out", str(tmp_path / "s")]) == 0

    def test_strict_violation_exits_1(self, tmp_path, monkeypatch):
        import kinex.cli as cli

        monkeypatch.setitem(cli.HANDLERS, "relax", lambda cfg: ["simulated ordering violation"])
        p = write_cfg(tmp_path, BASE)
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "v")]) == 0
        assert main(["relax", "--config", str(p), "--strict", "--out", str(tmp_path / "v")]) == 1

    def test_frozen_dynamics_tolerates_fit_failure(self, tmp_path):
        # near-total saving freezes the exchange; fits fail per-row, exit stays 0
        payload = {
            **BASE,
            "model": {"rule": "fixed_saving", "lambda_fixed": 0.999, "epsilon": "uniform"},
        }
        p = write_cfg(tmp_path, payload)
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "frozen")]) == 0
        rows = [
            r
            for r in (tmp_path / "frozen" / "fit_relax.csv").read_text().splitlines()
            if r and not r.startswith("#") and not r.startswith("form,")
        ]
        assert rows and all(not r.endswith(",ok") for r in rows)


def test_preset_relax_reproduces_committed_digests(tmp_path):
    """The desk preset (500 configurations, 1 worker) matches the committed out/relax run."""
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "relax"
    preset = root / "configs" / "experiments.yaml"
    assert main(["relax", "--config", str(preset), "--out", str(out), "--threads", "1"]) == 0
    got = json.loads((out / "manifest.json").read_text())["outputs"]
    want = json.loads((root / "out" / "relax" / "manifest.json").read_text())["outputs"]
    assert got["series_relax.csv"] == want["series_relax.csv"] == "05c144e6cac12faa"
    assert got["fit_relax.csv"] == want["fit_relax.csv"]
