import contextlib
import importlib
import importlib.util
import itertools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex.cli import HANDLERS, build_model, load_experiment_config, main
from kinex.errors import ConfigError
from kinex.exchange import DISTRIBUTED_SAVING, INITS, LATTICE_2D, PAIRINGS, RULES
from kinex.reports import content_digest
from kinex.rrn import LATTICE_INITS


def write_cfg(tmp_path, payload, name="exp.yaml"):
    """``payload`` as YAML, or as the file's bytes where it is bytes."""
    path = tmp_path / name
    path.write_bytes(payload if isinstance(payload, bytes) else yaml.safe_dump(payload).encode())
    return path


def break_fit_writer(monkeypatch):
    """Make the fit-report writer the handlers call fail, as a full disk would."""
    import kinex.cli as cli

    def broken_write(path, *args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_fit_csv", broken_write)


def record_fan_outs(monkeypatch):
    """The stream ranges of every block the wealth models and the resistor
    network run, through the fan-out each of them calls."""
    from kinex import distribution, relaxation
    from kinex.streams import map_stream_blocks

    blocks = []

    def recording(block, *args, **kwargs):
        def recorded(start, stop):
            blocks.append((start, stop))
            return block(start, stop)

        return map_stream_blocks(recorded, *args, **kwargs)

    for module in (relaxation, distribution):
        monkeypatch.setattr(module, "map_stream_blocks", recording)
    return blocks


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

SMALL_RRN = {"side": 8, "t_max": 40, "n_configs": 2, "g_windows": [[0.0, 1.0]]}
# 60 steps of a series long enough to reach the fit, as rows ``t,x_mean``
DECAYING_ROWS = [f"{t},{0.1 + float(np.exp(-t / 10))!r}\n".encode() for t in range(1, 61)]


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

    def test_integral_floats_read_as_ints_and_ints_as_floats(self, tmp_path):
        payload = {**BASE, "n_agents": 20.0, "fit_window": [2.0, 5], "eps_values": [0, 0.5],
                   "model": {**BASE["model"], "epsilon": 1}}
        cfg = load_experiment_config(write_cfg(tmp_path, payload), "relax")
        assert (cfg.n_agents, cfg.fit_window, cfg.eps_values) == (20, (2, 5), (0.0, 0.5))
        assert type(cfg.n_agents) is int and type(cfg.fit_window[0]) is int
        assert type(cfg.eps_values[0]) is float and type(cfg.model.eps_fixed) is float

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

    @pytest.mark.parametrize(
        "experiment,payload,message",
        [
            ("lambda-family", {}, "lambda-family needs a non-empty lambda_windows list"),
            ("eps-sweep", {"eps_values": []}, "eps-sweep needs a non-empty eps_values list"),
            ("rrn", {"g_windows": []}, "rrn needs a non-empty g_windows list"),
            ("eps-sweep", {"eps_values": [0.5], "model": {"rule": "pure_gambling"}},
             "eps-sweep is defined for the distributed-saving model"),
            ("fit", {}, "fit needs series_csv pointing at a series file"),
        ],
        ids=["no_lambda_windows", "no_eps_values", "no_g_windows", "eps_sweep_rule", "fit_no_series"],
    )
    def test_load_refuses_what_the_subcommand_cannot_run(self, tmp_path, experiment, payload, message):
        p = write_cfg(tmp_path, {**BASE, **payload})
        with pytest.raises(ConfigError) as e:
            load_experiment_config(p, experiment)
        assert str(e.value) == message


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
            "rrn": {"side": 8, "t_max": 40, "n_configs": 2, "g_windows": [[0.5, 1.0], [0.0, 1.0]],
                    "dense_check": True},
        }
        p = write_cfg(tmp_path, payload)
        assert main(["rrn", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "series_g_0_1.csv").exists()
        assert (tmp_path / "r" / "tau_table.csv").exists()
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        # the dense check names what it checked: the file's first window, not
        # the first in sorted order, and the sweeps it ran to settle
        (note,) = manifest["notes"]
        head, tail = note.split("; ")
        assert head.startswith("dense-solver check of g_window 0.5:1, realization 0: mean |dV|=")
        assert re.fullmatch(r".* fell below 1e-12 after [1-9]\d* sweeps", head), head
        gap = float(re.fullmatch(r"endpoint gap=(\S+) node residual=\S+", tail)[1])
        assert gap < 1e-9

    def test_dense_check_note_says_when_the_sweeps_never_settle(self, tmp_path, monkeypatch):
        import kinex.cli as cli

        monkeypatch.setattr(cli, "relax_sweep", lambda lat: 0.5)
        p = write_cfg(tmp_path, {"rrn": {**SMALL_RRN, "dense_check": True}})
        assert main(["rrn", "--config", str(p), "--out", str(tmp_path / "r")]) == 0
        (note,) = json.loads((tmp_path / "r" / "manifest.json").read_text())["notes"]
        assert "mean |dV|=0.5 was still not below 1e-12 after 200000 sweeps; endpoint gap=" in note

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
            ("rrn", {"g_windows": [[0.0, float("inf")]]}),
            ("rrn", {"g_windows": [[0.0, 1.0]], "rrn_init": "bogus"}),
            # the resistor lattice's inputs are refused by every subcommand, as side < 3 is
            ("relax", {"g_windows": [[0.0, float("inf")]]}),
            ("relax", {"rrn_init": "bogus"}),
        ],
        ids=["eps_above_1", "eps_below_0", "lambda_hi_above_1", "lambda_empty",
             "lambda_lo_below_0", "g_hi_below_lo", "g_lo_below_0", "g_hi_inf", "rrn_init",
             "g_hi_inf_relax", "rrn_init_relax"],
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

    @pytest.mark.parametrize(
        "experiment,payload,argv",
        [
            ("relax", {**BASE, "model": 5}, []),
            ("relax", {**BASE, "relax": {"model": "abc"}}, []),
            ("dist", {**BASE, "model": [1, 2]}, []),
            ("lambda-family", {**BASE, "lambda-family": {"model": [1, 2]}}, []),
            ("relax", {**BASE, "master_seed": -3}, []),
            ("lambda-family", {**BASE, "master_seed": -3, "lambda_windows": [[0.0, 1.0]]}, []),
            ("dist", BASE, ["--seed", "-1"]),
            ("rrn", {"rrn": SMALL_RRN}, ["--seed", "-1"]),
            ("relax", b"# \xff\xfe\nn_agents: 20\n", []),
            ("relax", b"a: [1, 2\n", []),
            ("rrn", {"rrn": {**SMALL_RRN, "side": 2}}, []),
            ("fit", {"fit": {"series_csv": "s.csv", "fit_window": [50, 10]}}, []),
        ],
        ids=["model_int", "model_str_in_section", "model_list", "model_list_in_section",
             "seed_relax", "seed_lambda_family", "seed_flag_dist", "seed_flag_rrn",
             "not_utf8", "malformed_yaml", "rrn_side_2", "fit_window_reversed"],
    )
    def test_outside_inputs_fail_at_load(self, tmp_path, capsys, monkeypatch, experiment, payload, argv):
        blocks = record_fan_outs(monkeypatch)
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "oi"
        assert main([experiment, "--config", str(p), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: config error: ") and err.count("\n") == 1
        assert blocks == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload,argv,threads_env,message",
        [
            ({**BASE, "model": {"epsilon": "abc"}}, [], None,
             "config error: epsilon='abc' is not a number, 'uniform' or 'default'"),
            ({**BASE, "relax": [1]}, [], None, "config error: section 'relax' must be a mapping"),
            (BASE, [], "abc", "config error: KINEX_THREADS='abc' is not an integer"),
            (BASE, ["--threads", "0"], None, "config error: workers=0 must be >= 1"),
            ({**BASE, "model": {"rule": "bogus"}}, [], None, "InvalidParameter: unknown rule 'bogus'"),
            ({**BASE, "model": {"pairing": "bogus"}}, [], None, "InvalidParameter: unknown pairing 'bogus'"),
            ({**BASE, "model": {"init": "bogus"}}, [], None, "InvalidParameter: unknown init 'bogus'"),
            ({**BASE, "model": {"init_total": 0}}, [], None, "InvalidParameter: init_total=0.0 must be > 0"),
            ({**BASE, "model": {"rule": "general", "eps1_window": [1.0, 0.5]}}, [], None,
             "InvalidParameter: eps1_window=(1.0,0.5) invalid"),
            ({**BASE, "fit_window": [50, 10]}, [], None, "config error: fit_window=(50, 10) needs t_lo < t_hi"),
            ({**BASE, "fit_window": [10, 10]}, [], None, "config error: fit_window=(10, 10) needs t_lo < t_hi"),
            ({**BASE, "fit_x0": float("nan")}, [], None, "config error: fit_x0=nan must be finite"),
            ({**BASE, "fit_x0": float("inf")}, [], None, "config error: fit_x0=inf must be finite"),
            # a number field takes no bool, and an int field no value int() would cut or overflow on
            ({**BASE, "n_configs": float("inf")}, [], None, "config error: n_configs=inf cannot be read as int"),
            ({**BASE, "fit_window": [float("inf"), 5]}, [], None,
             "config error: fit_window=[inf, 5] cannot be read as tuple[int, int]"),
            ({**BASE, "n_configs": True}, [], None, "config error: n_configs=True cannot be read as int"),
            ({**BASE, "master_seed": 3.5}, [], None, "config error: master_seed=3.5 cannot be read as int"),
            ({**BASE, "n_agents": 100.7}, [], None, "config error: n_agents=100.7 cannot be read as int"),
            ({**BASE, "eps_values": [True, 0.5]}, [], None,
             "config error: eps_values=[True, 0.5] cannot be read as tuple[float, ...]"),
            ({**BASE, "lambda_windows": [[False, True]]}, [], None,
             "config error: lambda_windows=[[False, True]] cannot be read as tuple[tuple[float, float], ...]"),
            ({**BASE, "model": {**BASE["model"], "epsilon": True}}, [], None,
             "config error: epsilon=True is not a number, 'uniform' or 'default'"),
        ],
        ids=["epsilon_abc", "section_not_mapping", "threads_env_abc", "threads_flag_0", "unknown_rule",
             "unknown_pairing", "unknown_init", "init_total_0", "general_eps1_window_reversed",
             "fit_window_reversed", "fit_window_empty", "fit_x0_nan", "fit_x0_inf", "n_configs_inf",
             "fit_window_inf", "n_configs_bool", "master_seed_fraction", "n_agents_fraction",
             "eps_values_bool", "lambda_windows_bool", "epsilon_bool"],
    )
    def test_load_refusals_exit_2_with_their_line(
        self, tmp_path, capsys, monkeypatch, payload, argv, threads_env, message
    ):
        blocks = record_fan_outs(monkeypatch)
        if threads_env is None:
            monkeypatch.delenv("KINEX_THREADS", raising=False)
        else:
            monkeypatch.setenv("KINEX_THREADS", threads_env)
        p = write_cfg(tmp_path, payload)
        out = tmp_path / "lr"
        assert main(["relax", "--config", str(p), "--out", str(out), *argv]) == 2
        assert capsys.readouterr().err == f"kinex: {message}\n"
        assert blocks == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "body,line",
        [
            (b"0,1.0\n1,0.5\n2,abc\n", 6),
            (b"0,1.0\n1.5,0.3\n", 5),
            (b"0,1.0\n1\n", 5),
            (b"0,1.0\n1,0.5,0.2\n", 5),
            (b"0,1.0\n1,0.5\xff\n", 5),
            (b"".join(DECAYING_ROWS[::-1]), 5),
            (b"".join(DECAYING_ROWS[:30] + DECAYING_ROWS[29:]), 34),
        ],
        ids=["float_field", "float_step", "missing_field", "extra_field", "not_utf8",
             "out_of_order", "repeated"],
    )
    def test_malformed_series_file_names_its_line(self, tmp_path, capsys, body, line):
        series = tmp_path / "s.csv"
        series.write_bytes(b"# kinex relaxation series\n# spec=x seed=1 n=20 n_configs=6\nt,x_mean\n" + body)
        p = write_cfg(tmp_path, {"fit": {"series_csv": str(series)}})
        out = tmp_path / "f"
        assert main(["fit", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"kinex: InvalidParameter: {series}, line {line}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_series_header_count_that_is_not_an_integer_names_its_line(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("# kinex relaxation series\n# spec=x seed=1 n=20 n_configs=abc\nt,x_mean\n0,1.0\n")
        p = write_cfg(tmp_path, {"fit": {"series_csv": str(series)}})
        assert main(["fit", "--config", str(p), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"kinex: InvalidParameter: {series}, line 2: ") and "abc" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "f").exists()

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
        assert not out.exists()

    def test_failed_run_removes_every_directory_it_created(self, tmp_path, monkeypatch):
        break_fit_writer(monkeypatch)  # fails after series_relax.csv is written
        p = write_cfg(tmp_path, BASE)
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "a" / "b" / "c")]) == 2
        assert not (tmp_path / "a").exists()

    def test_failed_run_leaves_an_existing_parent_as_it_was(self, tmp_path, monkeypatch):
        parent = tmp_path / "runs"
        (parent / "earlier").mkdir(parents=True)
        (parent / "earlier" / "manifest.json").write_text("{}\n")
        (parent / "notes.txt").write_text("kept\n")
        def tree():
            return sorted((f.relative_to(parent), f.is_file() and f.read_bytes()) for f in parent.rglob("*"))

        before = tree()
        break_fit_writer(monkeypatch)
        p = write_cfg(tmp_path, BASE)
        assert main(["relax", "--config", str(p), "--out", str(parent / "new" / "run")]) == 2
        assert tree() == before

    def test_stale_staging_directory_of_the_same_pid_is_reused(self, tmp_path):
        # a run killed with this pid left its staging directory behind
        out = tmp_path / "stale"
        (out / f".partial-{os.getpid()}").mkdir(parents=True)
        (out / f".partial-{os.getpid()}" / "series_relax.csv").write_text("half written\n")
        p = write_cfg(tmp_path, BASE)
        assert main(["relax", "--config", str(p), "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["fit_relax.csv", "manifest.json", "series_relax.csv"]

    @pytest.mark.parametrize("experiment", ["relax", "rrn"])
    def test_out_that_cannot_hold_a_directory_fails_before_any_block_runs(
        self, tmp_path, capsys, monkeypatch, experiment
    ):
        blocks = record_fan_outs(monkeypatch)
        p = write_cfg(tmp_path, {**BASE, "rrn": SMALL_RRN})
        (tmp_path / "file").write_text("not a directory\n")
        assert main([experiment, "--config", str(p), "--out", str(tmp_path / "file" / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("kinex: i/o error: ") and err.count("\n") == 1
        assert blocks == []
        assert (tmp_path / "file").read_text() == "not a directory\n"

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

    @pytest.mark.parametrize("fit_window,cells", [(None, ",,,"), ([1, 5], ",1,5,")], ids=["auto", "given"])
    def test_fit_tags_every_form_with_a_failed_plateau_estimate(self, tmp_path, fit_window, cells):
        # 5 rows, under the 10 a plateau estimate needs; the fit_x0 case is above
        series = tmp_path / "s.csv"
        series.write_bytes(b"# kinex relaxation series\nt,x_mean\n" + b"".join(DECAYING_ROWS[:5]))
        p = write_cfg(tmp_path, {"fit": {"series_csv": str(series), "fit_window": fit_window}})
        assert main(["fit", "--config", str(p), "--out", str(tmp_path / "f")]) == 0
        rows = (tmp_path / "f" / "fit_series.csv").read_text().splitlines()[2:]
        assert rows == [f"shifted_approach{cells},,,,InsufficientData", f"pure_decay{cells},,,,InsufficientData"]

    def test_strict_flags_ordering_violation(self, tmp_path):
        # a single window cannot violate the ordering check
        payload = {**BASE, "t_max": 40, "lambda-family": {"lambda_windows": [[0.0, 1.0]]}}
        p = write_cfg(tmp_path, payload)
        assert main(["lambda-family", "--config", str(p), "--strict", "--out", str(tmp_path / "s")]) == 0

    def test_strict_violation_exits_1(self, tmp_path, monkeypatch):
        import kinex.cli as cli

        monkeypatch.setitem(cli.HANDLERS, "relax", lambda cfg, run: ["simulated ordering violation"])
        p = write_cfg(tmp_path, BASE)
        assert main(["relax", "--config", str(p), "--out", str(tmp_path / "v")]) == 0
        notes = json.loads((tmp_path / "v" / "manifest.json").read_text())["notes"]
        assert notes == ["simulated ordering violation"]
        assert main(["relax", "--config", str(p), "--strict", "--out", str(tmp_path / "v")]) == 1

    def test_lambda_family_decay_times_out_of_order_are_an_assertion(self, tmp_path, capsys, monkeypatch):
        import kinex.cli as cli
        from kinex.expfit import ExpFitResult

        taus = itertools.count(100.0, -1.0)  # every fit's decay time below the last one's
        monkeypatch.setattr(cli, "_fit_series", lambda series, tail_fraction, forms: (
            (2, 10), {form: ExpFitResult(0.0, 1.0, next(taus), (2, 10), 0.99, form) for form in forms}))
        windows = [[0.0, 1.0], [0.5, 1.0], [0.7, 1.0]]
        p = write_cfg(tmp_path, {**BASE, "lambda-family": {"lambda_windows": windows}})
        note = "decay time is not strictly increasing with the window mean"
        for flags, code in (([], 0), (["--strict"], 1)):
            out = tmp_path / f"lf{len(flags)}"
            assert main(["lambda-family", "--config", str(p), "--out", str(out), *flags]) == code
            assert capsys.readouterr().err == f"kinex: assertion: {note}\n"
            assert json.loads((out / "manifest.json").read_text())["notes"] == [note]

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


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_preset_rrn_prefix_matches_committed(tmp_path, threads):
    """The first 200 sweeps of every committed rrn window's series, byte for byte.

    The sweep's potentials and its sum of |dV| are IEEE operations in a fixed
    order (row-major, no FMA contraction, no fast-math), and the realizations
    are averaged in stream order, so any host and any worker count reproduce
    the committed rows exactly, with the windows' cells in one fan-out.
    """
    p = _preset_with(tmp_path, "rrn", t_max=200)
    out = tmp_path / "o"
    assert main(["rrn", "--config", str(p), "--out", str(out), "--threads", threads]) == 0
    for name in ("series_g_0_1.csv", "series_g_0.2_1.csv", "series_g_0.5_1.csv"):
        got = _data_rows(out / name)
        assert len(got) == 200
        assert got == _data_rows(ROOT / "out" / "rrn" / name, 200)
        header = [r for r in (out / name).read_text().splitlines() if r[0] in "#t"]
        assert header == (ROOT / "out" / "rrn" / name).read_text().splitlines()[:4]


def test_preset_rrn_reproduces_committed_digests_at_two_workers(tmp_path):
    """Every series and the decay-time table of the committed out/rrn run."""
    out = tmp_path / "rrn"
    assert main(["rrn", "--config", str(PRESET), "--out", str(out), "--threads", "2"]) == 0
    got = json.loads((out / "manifest.json").read_text())["outputs"]
    want = json.loads((ROOT / "out" / "rrn" / "manifest.json").read_text())["outputs"]
    assert got == want
    assert len(want) == 4


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


# Each run: its argv after the config, its config's sections over BASE, and the
# modules it must not load.  Where no bytecode cache is written, each module a
# run loads is compiled at every start, so a subcommand loads only what it runs.
STARTUP_RUNS = {
    "relax": ([], {}, ["kinex.rrn", "kinex.theory", "kinex.distribution", "multiprocessing"]),
    "lambda-family": (["--threads", "2"], {"lambda_windows": [[0.0, 1.0], [0.5, 1.0]]},
                      ["kinex.rrn", "kinex.theory", "kinex.distribution", "multiprocessing"]),
    "rrn": (["--threads", "2"], SMALL_RRN, ["kinex.distribution", "kinex.theory"]),
    "dist": (["--threads", "2"], {"equilibration_steps": 5, "sample_steps": 5},
             ["kinex.rrn", "kinex.theory"]),
}


@pytest.mark.parametrize("experiment", list(STARTUP_RUNS))
def test_a_run_loads_only_the_modules_its_subcommand_runs(tmp_path, experiment):
    argv, section, unused = STARTUP_RUNS[experiment]
    p = write_cfg(tmp_path, {**BASE, experiment: section})
    code = "import json, sys, kinex.cli; print(json.dumps([kinex.cli.main(sys.argv[1:]), sorted(sys.modules)]))"
    env = {k: v for k, v in os.environ.items() if k != "KINEX_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", code, experiment, "--config", str(p), "--out", str(tmp_path / "o"), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    exit_code, modules = json.loads(out.stdout)
    assert exit_code == 0
    assert "kinex.kernel" in modules  # the run simulated
    assert [m for m in modules if any(m == u or m.startswith(u + ".") for u in unused)] == []


def test_battery_script_passes_threads_0_on_and_writes_nothing(tmp_path):
    # every subcommand, in HANDLERS's order, refuses the worker count
    p = write_cfg(tmp_path, {**BASE, "output_dir": str(tmp_path / "o")})
    env = {k: v for k, v in os.environ.items() if k != "KINEX_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    script = ROOT / "scripts" / "run_all_experiments.py"
    run = subprocess.run([sys.executable, str(script), "--config", str(p), "--threads", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.splitlines() == ["kinex: config error: workers=0 must be >= 1"] * len(HANDLERS)
    assert [line.split()[:2] for line in run.stdout.splitlines()] == [[name, "exit=2"] for name in HANDLERS]
    assert list(tmp_path.iterdir()) == [p]


LAMBDA_EDGES = ((0.0, 1.0), (0.5, 1.0), (0.9999999999999999, 1.0))
EPS1_EDGES = ((0.0, 1.0), (1.5, 2.0), (0.9999999999999999, 1.0))
G_EDGES = ((0.0, 1.0), (0.5, 1.0), (1.0, 1.0 + 1e-12), (0.9999999999999999, 1.0))
G_NON_FINITE = ((float("nan"), 1.0), (0.0, float("inf")))


@st.composite
def generated_configs(draw, experiment):
    """A small config for ``experiment``: every rule, pairing and init, windows
    at their edges, and sizes on both sides of what config load takes."""
    side = draw(st.integers(3, 12))
    rule = draw(st.sampled_from(RULES))
    if experiment == "eps-sweep" and draw(st.integers(0, 3)):
        rule = DISTRIBUTED_SAVING  # the rule it is defined for, most of the time
    model = {
        "rule": rule,
        "pairing": draw(st.sampled_from(PAIRINGS)),
        "init": draw(st.sampled_from(INITS)),
        "epsilon": draw(st.sampled_from(["default", "uniform", 0.0, 0.5, 1.0])),
        "lambda_fixed": draw(st.sampled_from([0.0, 0.5, 0.9])),
        "lambda_window": list(draw(st.sampled_from(LAMBDA_EDGES))),
        "eps1_window": list(draw(st.sampled_from(EPS1_EDGES))),
        "lattice_side": side,
    }
    cfg = {
        "model": model,
        "n_agents": side * side if model["pairing"] == LATTICE_2D else draw(st.integers(2, 144)),
        # a fifth of the time under 10 steps, which config load refuses for all but fit
        "t_max": draw(st.integers(2, 9) if draw(st.integers(0, 4)) == 4 else st.integers(10, 300)),
        "n_configs": draw(st.integers(1, 5)),
        "master_seed": draw(st.integers(0, 2**32 - 1)),
        "tail_fraction": draw(st.sampled_from([0.01, 0.25, 0.5])),
        # a tenth of the time an init config load refuses, whichever subcommand runs
        "rrn_init": "bogus" if draw(st.integers(0, 9)) == 9 else draw(st.sampled_from(LATTICE_INITS)),
    }

    def cells(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))

    if experiment == "lambda-family":
        cfg["lambda_windows"] = [list(w) for w in cells(LAMBDA_EDGES)]
    elif experiment == "eps-sweep":
        cfg["eps_values"] = cells([0.0, 0.45, 0.5, 1.0])
    elif experiment == "rrn":
        windows = cells(G_EDGES)
        if draw(st.integers(0, 2)) == 2:  # a third of the time, a bound config load refuses
            windows.append(draw(st.sampled_from(G_NON_FINITE)))
        cfg |= {"g_windows": [list(w) for w in windows], "side": side, "dense_check": draw(st.booleans())}
    elif experiment == "dist":
        cfg |= {"equilibration_steps": draw(st.sampled_from([None, 0, 20])),
                "sample_steps": draw(st.sampled_from([0, 5])), "bins": draw(st.sampled_from([1, 10, 50])),
                "fit_configs": draw(st.integers(1, 5))}
    elif experiment == "fit":
        cfg["fit_x0"] = draw(st.sampled_from([None, 0.0, 0.02]))
        cfg["fit_window"] = draw(st.sampled_from([None, [2, 20], [20, 2], [1, 500]]))
    return cfg


@pytest.mark.parametrize("experiment", sorted(HANDLERS))
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_generated_configs_keep_the_exit_code_contract(experiment, data):
    """Exit 0 with every listed output digested in the manifest and only
    assertion lines on stderr, or exit 2 with one line and no run directory;
    no RuntimeWarning, and the same bytes at 1 and 2 threads."""
    cfg = data.draw(generated_configs(experiment))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tmp = Path(tmp)
        if experiment == "fit":  # the committed relax series, cut to t_max steps
            committed = ROOT / "out" / "relax" / "series_relax.csv"
            head = [r for r in committed.read_text().splitlines() if not r[0].isdigit()]
            (tmp / "s.csv").write_text("\n".join(head + _data_rows(committed, cfg["t_max"])) + "\n")
            cfg["series_csv"] = str(tmp / "s.csv")
        p = write_cfg(tmp, cfg)
        outcomes = []
        for threads in ("1", "2"):
            out = tmp / f"out{threads}"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([experiment, "--config", str(p), "--out", str(out), "--threads", threads])
            err = err.getvalue()
            if code == 0:
                assert all(r.startswith("kinex: assertion: ") for r in err.splitlines()), err
                outputs = json.loads((out / "manifest.json").read_text())["outputs"]
                assert sorted(outputs) == sorted(f.name for f in out.iterdir() if f.name != "manifest.json")
                files = {name: (out / name).read_bytes() for name in outputs}
                assert outputs and {name: content_digest(b) for name, b in files.items()} == outputs
            else:
                assert code == 2 and err.startswith("kinex: ") and err.count("\n") == 1, err
                assert not out.exists()
                files = None
            outcomes.append((code, err, files))
        assert outcomes[0] == outcomes[1]
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
