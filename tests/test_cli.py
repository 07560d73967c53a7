import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from kinex.cli import build_model, load_experiment_config, main
from kinex.errors import ConfigError


def write_cfg(tmp_path, payload, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def break_fit_writer(monkeypatch):
    """Make the fit-report writer the handlers call fail, as a full disk would."""
    import kinex.cli as cli

    def broken_write(path, *args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_fit_csv", broken_write)


def break_draw_check(monkeypatch, tmp_path):
    """Make numpy's Generator, the draw check's oracle, disagree with the step
    kernel's draws, as a numpy that mapped its bit generator's output
    differently would."""
    from kinex import kernel
    from kinex.streams import replay

    def shifted(source, plan):
        return [np.nextafter(a, np.inf) if a.dtype.kind == "f" else a for a in replay(source, plan)]

    monkeypatch.setattr(kernel, "replay", shifted)
    kernel.library.cache_clear()


def break_sweep(monkeypatch, tmp_path):
    """Load a kernel whose sweep divides through a reciprocal, as a build
    allowed to reassociate might: its draws hold, its sweeps do not."""
    from kinex import kernel

    broken = tmp_path / "_kernel.c"
    broken.write_text(kernel.SOURCE.read_text().replace("x /= w[c];", "x *= 1.0 / w[c];"))
    monkeypatch.setattr(kernel, "SOURCE", broken)
    monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "kernel_cache")
    kernel.library.cache_clear()


def break_build(monkeypatch, tmp_path):
    """Leave no C compiler to build the kernel with, and no build of it."""
    from kinex import kernel

    monkeypatch.setenv("PATH", "")
    monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "kernel_cache")
    kernel.library.cache_clear()


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

    def test_dist_counts_every_sample_of_the_general_rule(self, tmp_path):
        # The general rule's wealth can go negative; every pooled sample is binned.
        payload = {
            **BASE,
            "n_agents": 100,
            "n_configs": 20,
            "model": {"rule": "general", "eps1_window": [-0.5, 1.0]},
            "dist": {"equilibration_steps": 50, "sample_steps": 0, "bins": 20},
        }
        p = write_cfg(tmp_path, payload)
        assert main(["dist", "--config", str(p), "--out", str(tmp_path / "g")]) == 0
        text = (tmp_path / "g" / "hist_wealth.csv").read_text()
        rows = [r.split(",") for r in text.splitlines() if r[:1] not in ("", "#", "b")]
        assert sum(int(r[2]) for r in rows) == 20 * 100
        assert float(rows[0][0]) < 0.0

    def test_dist_auto_equilibration(self, tmp_path):
        payload = {**BASE, "t_max": 40, "dist": {"sample_steps": 5}}
        p = write_cfg(tmp_path, payload)
        assert main(["dist", "--config", str(p), "--out", str(tmp_path / "da")]) == 0
        manifest = json.loads((tmp_path / "da" / "manifest.json").read_text())
        assert any("equilibration_steps=" in n for n in manifest["notes"])

    @pytest.mark.parametrize(
        "model,dist",
        [
            ({"rule": "pure_gambling", "epsilon": "uniform", "pairing": "lattice2d",
              "lattice_side": 4, "init": "equal_unit"}, {"equilibration_steps": 40}),
            # automatic equilibration: the probe's relaxation fans out too
            (BASE["model"], {"sample_steps": 5}),
        ],
        ids=["lattice_pure_gambling", "distributed_saving"],
    )
    def test_dist_writes_the_same_bytes_at_any_worker_count(self, tmp_path, model, dist):
        n = model.get("lattice_side", 5) ** 2
        p = write_cfg(tmp_path, {**BASE, "n_agents": n, "n_configs": 8, "model": model, "dist": dist})
        written = {}
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}"
            assert main(["dist", "--config", str(p), "--out", str(out), "--threads", str(threads)]) == 0
            written[threads] = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
        assert "hist_wealth.csv" in written[1]
        assert written[2] == written[1] and written[4] == written[1]

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
            ({}, "DrawMismatch"),
            ({}, "KernelBuildError"),
            ({"model": {**BASE["model"], "lambda_window": [0.5, 0.2]}}, "InvalidParameter"),
        ],
    )
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_kinex_errors_exit_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, override, error, threads
    ):
        # raised in the run, where it loads the step kernel, before the
        # 6 configurations fan out (at 2 workers, over 2 threads)
        breaks = {"DrawMismatch": break_draw_check, "KernelBuildError": break_build}
        if error in breaks:
            breaks[error](monkeypatch, tmp_path)
        p = write_cfg(tmp_path, {**BASE, **override})
        argv = ["relax", "--config", str(p), "--out", str(tmp_path / "e"), "--threads", threads]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: ") and error in err
        assert err.count("\n") == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_relax_on_a_kernel_whose_draws_differ_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        # a kernel built from a source whose PCG64 multiplier is off in one bit
        from kinex import kernel

        broken = tmp_path / "_kernel.c"
        broken.write_text(kernel.SOURCE.read_text().replace("0x4385df649fccf645ULL", "0x4385df649fccf647ULL"))
        monkeypatch.setattr(kernel, "SOURCE", broken)
        monkeypatch.setattr(kernel, "BUILD_DIR", tmp_path / "cache")
        kernel.library.cache_clear()
        p = write_cfg(tmp_path, BASE)
        argv = ["relax", "--config", str(p), "--out", str(tmp_path / "e"), "--threads", threads]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: DrawMismatch") and err.count("\n") == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("error", ["DrawMismatch", "SweepMismatch", "KernelBuildError"])
    def test_rrn_kernel_errors_exit_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, error, threads
    ):
        # the resistor lattice's sweep is the same compiled kernel, loaded by the run
        breaks = {
            "DrawMismatch": break_draw_check, "SweepMismatch": break_sweep, "KernelBuildError": break_build
        }
        breaks[error](monkeypatch, tmp_path)
        p = write_cfg(tmp_path, {"rrn": {"side": 8, "t_max": 40, "n_configs": 2, "g_windows": [[0.0, 1.0]]}})
        argv = ["rrn", "--config", str(p), "--out", str(tmp_path / "e"), "--threads", threads]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: ") and error in err
        assert err.count("\n") == 1
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize(
        "experiment,override",
        [
            ("relax", {"tail_fraction": 0.9}),
            ("relax", {"t_max": 5}),
            ("relax", {"n_agents": 1}),
            ("relax", {"model": {**BASE["model"], "pairing": "lattice2d", "lattice_side": 3}}),
            # cells whose output files would share a name
            ("relax", {"eps_values": [0.1, 0.1000001]}),
            ("relax", {"lambda_windows": [[0.0, 1.0], [0.5, 1.0], [0.0, 1.0]]}),
            ("relax", {"g_windows": [[0.2, 1.0], [0.2000001, 1.0]]}),
            # counts that would fail only inside the run, or run as 0
            ("dist", {"dist": {"bins": 0}}),
            ("dist", {"dist": {"equilibration_steps": -5}}),
            ("dist", {"dist": {"sample_steps": -2}}),
            ("dist", {"n_configs": 0}),
            ("dist", {"fit_configs": 0}),
        ],
        ids=["tail_fraction", "t_max", "n_agents", "lattice_side",
             "eps_values", "lambda_windows", "g_windows",
             "bins", "equilibration_steps", "sample_steps", "n_configs", "fit_configs"],
    )
    def test_bad_tail_fraction_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch, experiment, override
    ):
        import kinex.cli as cli

        simulated = []
        for name in ("run_relaxation", "run_equilibrium"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: simulated.append(args))
        p = write_cfg(tmp_path, {**BASE, **override})
        out = tmp_path / "tf"
        assert main([experiment, "--config", str(p), "--out", str(out)]) == 2
        assert simulated == []
        err = capsys.readouterr().err
        assert err.startswith("kinex: config error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,override",
        [
            ("eps-sweep", {"eps_values": [0.5, 1.5]}),
            ("eps-sweep", {"eps_values": [-0.1, 0.5]}),
            ("lambda-family", {"lambda_windows": [[0.0, 1.0], [0.5, 1.2]]}),
            ("lambda-family", {"lambda_windows": [[0.5, 0.5]]}),
            ("lambda-family", {"lambda_windows": [[-0.2, 0.5]]}),
            ("rrn", {"g_windows": [[0.0, 1.0], [0.5, 0.2]]}),
            ("rrn", {"g_windows": [[-0.1, 1.0]]}),
        ],
        ids=["eps_above_1", "eps_below_0", "lambda_hi_above_1", "lambda_empty",
             "lambda_lo_below_0", "g_hi_below_lo", "g_lo_below_0"],
    )
    def test_sweep_values_fail_before_any_cell_is_simulated(
        self, tmp_path, capsys, monkeypatch, experiment, override
    ):
        import kinex.cli as cli

        simulated = []
        for name in ("run_relaxation", "run_rrn_relaxation"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: simulated.append(args))
        section = {"side": 8, "t_max": 40, "n_configs": 2} if experiment == "rrn" else {}
        p = write_cfg(tmp_path, {**BASE, experiment: {**section, **override}})
        out = tmp_path / "sv"
        assert main([experiment, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: config error: ") and err.count("\n") == 1
        assert simulated == []
        assert not out.exists()

    def test_lattice_side_is_checked_where_the_model_runs(self, tmp_path):
        model = {"rule": "pure_gambling", "pairing": "lattice2d", "lattice_side": 4}
        p = write_cfg(tmp_path, {"n_agents": 20, "model": model, "g_windows": [[0.0, 1.0]]})
        with pytest.raises(ConfigError, match="lattice_side=4"):
            load_experiment_config(p, "dist")
        assert load_experiment_config(p, "rrn").model.lattice_side == 4  # rrn runs no agents

    @pytest.mark.parametrize(
        "section",
        [
            {"dense_check": "false"},
            {"dense_check": True, "side": 100},
        ],
        ids=["quoted_bool", "dense_check_too_large"],
    )
    def test_rrn_config_errors_before_simulating(self, tmp_path, capsys, section):
        rrn = {"side": 8, "t_max": 40, "n_configs": 2, "g_windows": [[0.0, 1.0]], **section}
        p = write_cfg(tmp_path, {"rrn": rrn})
        out = tmp_path / "r"
        assert main(["rrn", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_dense_check_limit_is_interior_nodes(self, tmp_path):
        # side 51 has 49 * 51 = 2499 interior nodes, side 52 has 2600
        rrn = {"g_windows": [[0.0, 1.0]], "dense_check": True}
        assert load_experiment_config(write_cfg(tmp_path, {"rrn": {**rrn, "side": 51}}), "rrn").side == 51
        with pytest.raises(ConfigError, match="2500 interior nodes"):
            load_experiment_config(write_cfg(tmp_path, {"rrn": {**rrn, "side": 52}}), "rrn")
        # only rrn runs the dense solve
        assert load_experiment_config(write_cfg(tmp_path, {"side": 100, "dense_check": True}), "relax").dense_check

    @pytest.mark.parametrize(
        "payload,key",
        [({**BASE, "n_agent": 50}, "n_agent"), ({**BASE, "relax": {"tmax": 50}}, "tmax")],
        ids=["top_level", "section"],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, payload, key):
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "uk"
        assert main(["relax", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: config error: unknown config keys") and repr(key) in err
        assert not out.exists()

    def test_failed_run_removes_its_outputs(self, tmp_path, monkeypatch):
        break_fit_writer(monkeypatch)
        p = write_cfg(tmp_path, BASE)
        out = tmp_path / "broken"
        assert main(["relax", "--config", str(p), "--out", str(out)]) == 2
        assert not (out / "series_relax.csv").exists()
        assert not (out / "manifest.json").exists()
        assert list(out.iterdir()) == []

    def test_failed_rerun_keeps_previous_run(self, tmp_path, monkeypatch):
        p = write_cfg(tmp_path, BASE)
        out = tmp_path / "rerun"
        assert main(["relax", "--config", str(p), "--out", str(out)]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        break_fit_writer(monkeypatch)
        rerun = write_cfg(tmp_path, {**BASE, "master_seed": 7}, "rerun.yaml")
        assert main(["relax", "--config", str(rerun), "--out", str(out)]) == 2
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_failed_fit_names_its_error_in_tau_table(self, tmp_path):
        # 15 steps are too few for the auto window (needs 20 samples)
        payload = {**BASE, "t_max": 15, "lambda-family": {"lambda_windows": [[0.0, 1.0]]}}
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "short"
        assert main(["lambda-family", "--config", str(p), "--out", str(out)]) == 0
        rows = (out / "tau_table.csv").read_text().splitlines()
        assert rows[-1] == "0.0,1.0,,,,InsufficientData"
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert notes == ["some windows produced no decay-time fit"]

    def test_fit_override_tags_failed_auto_window(self, tmp_path):
        p = write_cfg(tmp_path, {**BASE, "t_max": 15, "output_dir": str(tmp_path / "src")})
        assert main(["relax", "--config", str(p)]) == 0
        fit_cfg = write_cfg(
            tmp_path,
            {"fit": {"series_csv": str(tmp_path / "src" / "series_relax.csv"), "fit_x0": 0.3}},
            "fit.yaml",
        )
        assert main(["fit", "--config", str(fit_cfg), "--out", str(tmp_path / "f")]) == 0
        rows = (tmp_path / "f" / "fit_series.csv").read_text().splitlines()[2:]
        assert rows == [
            "shifted_approach,,,,,,,InsufficientData",
            "pure_decay,,,,,,,InsufficientData",
        ]

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


ROOT = Path(__file__).resolve().parents[1]
PRESET = ROOT / "configs" / "experiments.yaml"


def test_preset_lambda_family_reproduces_committed_digests_at_two_workers(tmp_path):
    """The lambda-family preset at 2 workers, whose three cells share one block
    of 250 streams a worker, writes every output of the committed run."""
    out = tmp_path / "lambda_family"
    assert main(["lambda-family", "--config", str(PRESET), "--out", str(out), "--threads", "2"]) == 0
    got = json.loads((out / "manifest.json").read_text())["outputs"]
    want = json.loads((ROOT / "out" / "lambda_family" / "manifest.json").read_text())["outputs"]
    assert got == want


def _data_rows(path, n=None):
    rows = [r for r in path.read_text().splitlines() if r and r[0].isdigit()]
    return rows[:n] if n is not None else rows


def _preset_with(tmp_path, experiment, **overrides):
    """The desk preset with ``overrides`` in the ``experiment`` section."""
    payload = yaml.safe_load(PRESET.read_text())
    payload[experiment] = {**payload[experiment], **overrides}
    return write_cfg(tmp_path, payload, "preset.yaml")


def test_preset_fit_reproduces_committed_digest(tmp_path, monkeypatch):
    """`fit` on the committed relax series matches the committed out/refit run."""
    monkeypatch.chdir(ROOT)  # the preset names series_csv relative to the repo root
    out = tmp_path / "refit"
    assert main(["fit", "--config", str(PRESET), "--out", str(out)]) == 0
    got = json.loads((out / "manifest.json").read_text())["outputs"]
    want = json.loads((ROOT / "out" / "refit" / "manifest.json").read_text())["outputs"]
    assert got == want == {"fit_series.csv": "1743f22b44c55f5a"}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_preset_dist_reproduces_committed_digests(tmp_path, threads):
    """The dist preset (pure gambling, 500 economies pooled) matches the committed out/dist run."""
    out = tmp_path / "dist"
    assert main(["dist", "--config", str(PRESET), "--out", str(out), "--threads", threads]) == 0
    got = json.loads((out / "manifest.json").read_text())["outputs"]
    want = json.loads((ROOT / "out" / "dist" / "manifest.json").read_text())["outputs"]
    assert got == want == {"hist_wealth.csv": "9a0a7b9dd61f48c1"}


def test_preset_eps_sweep_reproduces_committed_digests(tmp_path):
    """Every series and the plateau table of the committed out/eps_sweep run, at 2 workers."""
    out = tmp_path / "eps_sweep"
    assert main(["eps-sweep", "--config", str(PRESET), "--out", str(out), "--threads", "2"]) == 0
    got = json.loads((out / "manifest.json").read_text())["outputs"]
    want = json.loads((ROOT / "out" / "eps_sweep" / "manifest.json").read_text())["outputs"]
    assert got == want
    assert want["x0_table.csv"] == "500f88245fb416fb"


def test_dist_lambda_bins_text(tmp_path):
    """A distributed-saving dist run writes these propensity bins, byte for byte."""
    payload = {
        "n_agents": 12,
        "n_configs": 4,
        "master_seed": 7,
        "t_max": 20,
        "model": {"rule": "distributed_saving", "lambda_window": [0.2, 0.9], "epsilon": 0.5},
        "dist": {"equilibration_steps": 10, "sample_steps": 3, "bins": 4},
    }
    p = write_cfg(tmp_path, payload)
    assert main(["dist", "--config", str(p), "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "lambda_bins.csv").read_text() == (
        "# kinex propensity-binned mean wealth\n"
        "lambda_lo,lambda_hi,mean_wealth\n"
        "0.2,0.33999999999999997,0.583112463185957\n"
        "0.33999999999999997,0.48,0.7677894748491422\n"
        "0.48,0.6199999999999999,0.9233165627914506\n"
        "0.6199999999999999,0.76,1.277223508846888\n"
        "0.76,0.9,2.2336146856460832\n"
    )


def test_fit_rows_of_fits_that_fail_inside_a_window(tmp_path):
    """A fit that fails on a given window keeps the window and names its error."""
    series = tmp_path / "line.csv"
    rows = "".join(f"{t},{0.5 - 0.02 * t!r}\n" for t in range(1, 31))
    series.write_text("# spec=line seed=0 n=1 n_configs=1\nt,x_mean\n" + rows, encoding="utf-8")
    fit = {"series_csv": str(series), "fit_x0": 0.3, "fit_window": [2, 30]}
    p = write_cfg(tmp_path, {"fit": fit})
    assert main(["fit", "--config", str(p), "--out", str(tmp_path / "f")]) == 0
    assert (tmp_path / "f" / "fit_series.csv").read_text() == (
        "# kinex fit report; source=line.csv\n"
        "form,t_lo,t_hi,x0,amplitude,tau,r_squared,status\n"
        "shifted_approach,2,30,,,,,WindowContainsCrossing\n"
        "pure_decay,2,30,,,,,LogDomainError\n"
    )


# The general rule with eps1 in [1.5, 2] and eps2 in [0.5, 1]: every exchange
# scales the pair's wealth up, so the run diverges to inf, then nan.
DIVERGING = {
    "n_agents": 10,
    "t_max": 2000,
    "n_configs": 3,
    "master_seed": 1,
    "model": {"rule": "general", "eps1_window": [1.5, 2.0], "eps2_window": [0.5, 1.0]},
}


@pytest.mark.parametrize("experiment", ["relax", "dist"])
@pytest.mark.parametrize("field", ["eps1_window", "eps2_window"])
def test_general_window_wider_than_a_double_exits_2(tmp_path, capsys, experiment, field):
    payload = {**DIVERGING, "t_max": 20, "model": {"rule": "general", field: [-1e308, 1e308]}}
    out = tmp_path / "w"
    assert main([experiment, "--config", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kinex: InvalidParameter: {field}=") and err.count("\n") == 1
    assert not out.exists()


def test_diverging_relax_names_its_fit_error(tmp_path):
    out = tmp_path / "r"
    assert main(["relax", "--config", str(write_cfg(tmp_path, DIVERGING)), "--out", str(out)]) == 0
    x = np.array([r.split(",")[1] for r in _data_rows(out / "series_relax.csv")], dtype=float)
    assert np.isnan(x[-1])  # the series keeps its data
    assert (out / "fit_relax.csv").read_text().splitlines()[2] == "shifted_approach,,,,,,,NoDecayWindow"


def test_diverging_dist_names_its_non_finite_samples(tmp_path, capsys):
    payload = {**DIVERGING, "dist": {"equilibration_steps": 2000}}
    out = tmp_path / "d"
    assert main(["dist", "--config", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "kinex: InvalidParameter: 30 of 30 samples are not finite; no histogram range holds them\n"
    assert not out.exists()


@pytest.mark.parametrize("t_max", [900, 1049])
def test_diverging_relax_prints_no_numpy_warning(tmp_path, capsys, t_max):
    # At t_max 900 the tail is finite but its spread overflows a double; at
    # 1049 the tail ends at inf.  Neither plateau statistic may warn.
    payload = {**DIVERGING, "t_max": t_max, "master_seed": 5}
    out = tmp_path / "r"
    assert main(["relax", "--config", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "fit_relax.csv").read_text().splitlines()[2] == "shifted_approach,,,,,,,NoDecayWindow"


def test_one_sample_plateau_tail_names_its_fit_error(tmp_path, capsys):
    # tail_fraction 0.01 of 30 steps keeps one tail sample: the plateau has no
    # spread, so the window has no threshold, in relax and in fit alike
    payload = {"n_agents": 100, "t_max": 30, "n_configs": 20, "master_seed": 3, "tail_fraction": 0.01,
               "model": {"rule": "distributed_saving"}}
    out = tmp_path / "r"
    assert main(["relax", "--config", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 0
    assert (out / "fit_relax.csv").read_text().splitlines()[2:] == ["shifted_approach,,,,,,,NoDecayWindow"]
    fit = write_cfg(tmp_path, {"fit": {"series_csv": str(out / "series_relax.csv")}, "tail_fraction": 0.01},
                    "fit.yaml")
    assert main(["fit", "--config", str(fit), "--out", str(tmp_path / "f")]) == 0
    assert (tmp_path / "f" / "fit_series.csv").read_text().splitlines()[2:] == [
        "shifted_approach,,,,,,,NoDecayWindow",
        "pure_decay,,,,,,,NoDecayWindow",
    ]
    assert capsys.readouterr().err == ""


def test_diverging_dist_probe_names_its_fit_error(tmp_path, capsys):
    # with no equilibration_steps, dist sizes its equilibration from a probe
    # relaxation; a probe that is not finite has no equilibrium to sample
    out = tmp_path / "d"
    assert main(["dist", "--config", str(write_cfg(tmp_path, DIVERGING)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "kinex: NotDecaying: the probe relaxation is first not finite at step 1058\n"
    assert not out.exists()


def test_finite_dist_probe_whose_fit_fails_falls_back_to_50_steps(tmp_path):
    # the identity exchange never moves: its probe is finite, all zeros, and
    # no sample clears the plateau, so the fit fails and 50 steps are used
    model = {"rule": "general", "eps1_window": [1.0, 1.0], "eps2_window": [0.0, 0.0]}
    payload = {**DIVERGING, "t_max": 30, "model": model}
    out = tmp_path / "d"
    assert main(["dist", "--config", str(write_cfg(tmp_path, payload)), "--out", str(out)]) == 0
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert notes[0] == "equilibration_steps=50 (auto; probe fit failed: NoDecayWindow)"


@pytest.mark.parametrize(
    "experiment,overrides,name",
    [
        ("lambda-family", {"lambda_windows": [[0.5, 1.0]]}, "series_lw_0.5_1.csv"),
        ("eps-sweep", {"eps_values": [0.5]}, "series_eps_0.5.csv"),
    ],
)
def test_preset_series_prefix_matches_committed(tmp_path, experiment, overrides, name):
    """x_mean[t] does not depend on t_max, so a 50-step preset run is a prefix of the committed series."""
    p = _preset_with(tmp_path, experiment, t_max=50, **overrides)
    out = tmp_path / "o"
    assert main([experiment, "--config", str(p), "--out", str(out), "--threads", "1"]) == 0
    committed = ROOT / "out" / experiment.replace("-", "_") / name
    assert _data_rows(out / name) == _data_rows(committed, 50)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_preset_rrn_prefix_matches_committed(tmp_path, threads):
    """The first 200 sweeps of the committed rrn series, byte for byte.

    The sweep's potentials and its sum of |dV| are IEEE operations in a fixed
    order (row-major, no FMA contraction, no fast-math), and the realizations
    are averaged in stream order, so any host and any worker count reproduce
    the committed rows exactly.
    """
    p = _preset_with(tmp_path, "rrn", t_max=200, g_windows=[[0.0, 1.0]])
    out = tmp_path / "o"
    assert main(["rrn", "--config", str(p), "--out", str(out), "--threads", threads]) == 0
    got = _data_rows(out / "series_g_0_1.csv")
    assert len(got) == 200
    assert got == _data_rows(ROOT / "out" / "rrn" / "series_g_0_1.csv", 200)
    header = [r for r in (out / "series_g_0_1.csv").read_text().splitlines() if r[0] in "#t"]
    committed = (ROOT / "out" / "rrn" / "series_g_0_1.csv").read_text().splitlines()[:4]
    assert header == committed


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's tracer wraps is still bound where it looks it up."""
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    import kinex.cli as cli

    assert [name for name in child.OUTER if not callable(getattr(cli, name, None))] == []
    missing = [
        (mod, name)
        for mod, name in child.KERNEL
        if not callable(getattr(importlib.import_module("kinex." + mod), name, None))
    ]
    assert missing == []
