"""Tests for the command-line layer: config merging, output layout,
reproducibility of written artifacts, and parity with the library API."""

import csv
import errno
import hashlib
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qdpool import cli, engine, metrics
from qdpool.archive import Archive
from qdpool.tasks import make_task


def collect_echo(lines):
    def echo(message="", **_kwargs):
        lines.append(str(message))

    return echo


def tree_bytes(root):
    """Maps every file under ``root`` to its bytes, keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def small_flags(out_dir, **overrides):
    flags = dict(
        task_name="rastrigin_multi",
        dim=4,
        resolution=10,
        variants=["me-map-elites-ucb", "map-elites"],
        generations=10,
        slots=4,
        batch=4,
        init_samples=20,
        replications=3,
        base_seed=11,
        metrics_every=5,
        out_dir=str(out_dir),
    )
    flags.update(overrides)
    return flags


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config({})
        assert cfg.task_name == "rastrigin_multi"
        assert cfg.variants == list(engine.VARIANT_NAMES)
        assert cfg.generations == 20_000
        assert cfg.slots == 12
        assert cfg.batch == 50
        assert cfg.zeta == 0.05
        assert cfg.window == 50
        assert cfg.replications == 20
        assert cfg.threads == 1

    def test_unknown_task_names_field(self):
        with pytest.raises(cli.ConfigError, match="task"):
            cli.parse_config({"task_name": "rosenbrock"})

    def test_unknown_variant_names_field(self):
        with pytest.raises(cli.ConfigError, match="variant"):
            cli.parse_config({"variants": ["me-map-elites-ucb", "nonsense"]})

    def test_repeated_variant_is_rejected_before_writing(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="variants: map-elites"):
            cli.parse_config(small_flags(tmp_path / "out", variants=["map-elites", "cma-me-opt", "map-elites"]))
        assert not (tmp_path / "out").exists()

    def test_a_single_variant_name_plans_that_variant(self, tmp_path):
        """A config may name one variant as a string rather than a list."""
        cfg = cli.parse_config(small_flags(tmp_path / "out", variants="map-elites", replications=1))
        assert cfg.variants == ["map-elites"]
        assert cli.run_experiment(cfg, echo=collect_echo([])) == 0
        assert [p.name for p in (tmp_path / "out" / "rastrigin_multi").iterdir()] == ["map-elites"]

    def test_an_empty_variant_list_is_rejected_before_writing(self, tmp_path):
        """``variants=[]`` used to run nothing and write a header-only
        ``summary.csv``."""
        with pytest.raises(cli.ConfigError, match="^variants: none given$"):
            cli.parse_config(small_flags(tmp_path / "out", variants=[]))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("replications", 0),
            ("generations", 0),
            ("slots", 0),
            ("batch", -1),
            ("zeta", -0.1),
            ("sigma0", 0.0),
            ("dim", 1),
            ("stats_granularity", "per-emitter"),
            ("metrics_every", 0),
            ("threads", 0),
            ("window", 0),
            ("resolution", 0),
            ("sigma0", math.nan),
            ("sigma0", math.inf),
            ("zeta", math.nan),
            ("zeta", math.inf),
        ],
    )
    def test_invalid_values_name_the_field(self, key, value):
        with pytest.raises(cli.ConfigError, match=key.split("_")[0]):
            cli.parse_config({key: value})

    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_a_non_integer_replications_is_a_config_error(self, tmp_path, value):
        """``replications=2.5`` used to raise a bare ``TypeError`` from
        ``range``; a numpy integer is taken as an ``int``."""
        flags = small_flags(tmp_path / "out")
        with pytest.raises(cli.ConfigError, match=f"^replications must be an integer, got {value}$"):
            cli.parse_config({**flags, "replications": value})
        cfg = cli.parse_config({**flags, "replications": np.int64(2)})
        assert type(cfg.replications) is int and cfg.replications == 2

    def test_config_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[task]\nname = sphere\ndim = 6\nresolution = 12\n"
            "[run]\nvariant = cma-me-opt, map-elites\ngenerations = 40\nseed = 99\n"
            "[scheduler]\nzeta = 0.5\nwindow = 7\n"
            "[output]\ndir = out_here\n"
        )
        cfg = cli.parse_config({}, str(path))
        assert cfg.task_name == "sphere"
        assert cfg.dim == 6
        assert cfg.resolution == 12
        assert cfg.variants == ["cma-me-opt", "map-elites"]
        assert cfg.generations == 40
        assert cfg.base_seed == 99
        assert cfg.zeta == 0.5
        assert cfg.window == 7
        assert cfg.out_dir == "out_here"
        # untouched keys keep their defaults
        assert cfg.slots == 12

    def test_inline_comments_are_stripped(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[run]\n"
            "variant = cma-me-opt, map-elites   # comma-separated\n"
            "generations = 40  ; budget\n"
        )
        cfg = cli.parse_config({}, str(path))
        assert cfg.variants == ["cma-me-opt", "map-elites"]
        assert cfg.generations == 40

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[run]\ngenerations = 40\nseed = 99\n")
        cfg = cli.parse_config({"generations": 77}, str(path))
        assert cfg.generations == 77
        assert cfg.base_seed == 99

    def test_unknown_file_key_is_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[run]\npopulation = 12\n")
        with pytest.raises(cli.ConfigError, match="population"):
            cli.parse_config({}, str(path))

    def test_unknown_section_is_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[cluster]\nnodes = 4\n")
        with pytest.raises(cli.ConfigError, match="cluster"):
            cli.parse_config({}, str(path))

    @pytest.mark.parametrize(
        "content",
        [
            b"[run]\ngenerations = 3\n\xff\xfe\n",
            b"[run]\ngenerations = 3\ngenerations = 4\n",
            b"generations = 3\n[run]\n",
            b"[run]\ngenerations = 3%\n",
        ],
        ids=["not-utf8", "duplicate-key", "no-section-header", "bad-interpolation"],
    )
    def test_unparseable_file_exits_2_naming_it(self, content, tmp_path, capsys):
        path, out = tmp_path / "exp.ini", tmp_path / "out"
        path.write_bytes(content)
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(path) in err
        assert not out.exists()

    def test_unparseable_value_names_field(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[run]\ngenerations = soon\n")
        with pytest.raises(cli.ConfigError, match="generations"):
            cli.parse_config({}, str(path))

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="config"):
            cli.parse_config({}, str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize("value", ["4", "many"])
    def test_the_environment_sets_no_thread_count(self, monkeypatch, value):
        """The default lives in ``RunConfig`` alone; no environment
        variable stands in for the flag or the file key."""
        monkeypatch.setenv("QD_THREADS", value)
        assert cli.parse_config({}).threads == engine.RunConfig.threads == 1
        assert cli.parse_config({"threads": 2}).threads == 2


class TestSettingsTable:
    # one valid value per `run` setting, none of them the default, as INI text
    VALUES = {
        "task_name": "sphere",
        "variants": "cma-me-opt, map-elites",
        "generations": "40",
        "slots": "8",
        "batch": "10",
        "init_samples": "30",
        "replications": "3",
        "base_seed": "5",
        "zeta": "0.2",
        "window": "9",
        "stats_granularity": "kind",
        "dim": "6",
        "resolution": "12",
        "sigma0": "0.3",
        "out_dir": "elsewhere",
        "threads": "2",
        "metrics_every": "7",
    }

    def test_every_setting_has_a_value(self):
        assert [s.name for s in cli._SETTINGS] == list(self.VALUES)

    @pytest.mark.parametrize("setting", cli._SETTINGS, ids=lambda s: s.name)
    def test_file_key_and_flag_set_the_same_field(self, setting, tmp_path):
        text = self.VALUES[setting.name]
        path = tmp_path / "exp.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = {text}\n")
        from_file = cli.parse_config({}, str(path))

        argv = ["run"]
        for value in text.split(", "):
            argv += [setting.flag, value]
        args = cli.build_parser().parse_args(argv)
        from_flag = cli.parse_config({s.name: getattr(args, s.name) for s in cli._SETTINGS})

        assert from_file == from_flag
        assert from_file != cli.parse_config({})

    def test_readme_ini_example_parses_and_documents_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        cli.parse_config({}, str(path))
        for setting in cli._SETTINGS:
            assert f"[{setting.section}]" in block
            assert re.search(rf"^(# )?{setting.key} =", block, re.MULTILINE), setting.key


class TestRunExperiment:
    def test_output_tree_layout(self, tmp_path):
        cfg = cli.parse_config(small_flags(tmp_path / "out"))
        lines = []
        assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 0
        files = tree_bytes(tmp_path / "out")
        rep_files = [name for name in files if "/rep" in name]
        # 2 variants x 3 reps x 3 files per rep
        assert len(rep_files) == 18
        for variant in ("me-map-elites-ucb", "map-elites"):
            for rep in range(3):
                base = f"rastrigin_multi/{variant}/rep{rep}"
                for fname in ("metrics.csv", "archive.csv", "emitter_mix.csv"):
                    assert f"{base}/{fname}" in files
            assert f"rastrigin_multi/{variant}/aggregate.csv" in files
        assert "summary.csv" in files
        assert len(lines) == 6  # one progress line per (variant, rep)

    def test_summary_rows_and_seeds(self, tmp_path):
        cfg = cli.parse_config(small_flags(tmp_path / "out"))
        cli.run_experiment(cfg, echo=collect_echo([]))
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        assert tuple(rows[0].keys()) == cli.SUMMARY_HEADER
        for row in rows:
            assert int(row["seed"]) == 11 + int(row["rep"])
            assert row["task"] == "rastrigin_multi"
            assert int(row["generations"]) == 10
            assert float(row["qd_score"]) <= int(row["archive_size"])

    def test_rerun_is_byte_identical(self, tmp_path):
        for out in ("a", "b"):
            cfg = cli.parse_config(small_flags(tmp_path / out))
            cli.run_experiment(cfg, echo=collect_echo([]))
        first, second = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_cli_run_matches_library_run(self, tmp_path):
        cfg = cli.parse_config(small_flags(tmp_path / "out", variants=["cma-me-imp"], replications=1))
        cli.run_experiment(cfg, echo=collect_echo([]))

        task = make_task("rastrigin_multi", dim=4, resolution=10)
        result = engine.run(
            engine.RunConfig(
                task=task,
                variant="cma-me-imp",
                generations=10,
                slots=4,
                batch_per_emitter=4,
                init_samples=20,
                seed=11,
                metrics_every=5,
            )
        )
        result.archive.write_csv(tmp_path / "direct_archive.csv")
        metrics.write_metrics_csv(result.records, tmp_path / "direct_metrics.csv")
        rep_dir = tmp_path / "out" / "rastrigin_multi" / "cma-me-imp" / "rep0"
        assert (rep_dir / "archive.csv").read_bytes() == (tmp_path / "direct_archive.csv").read_bytes()
        assert (rep_dir / "metrics.csv").read_bytes() == (tmp_path / "direct_metrics.csv").read_bytes()

    def test_a_sweep_into_an_existing_out_rewrites_only_its_plan(self, tmp_path):
        """A sweep into the ``--out`` of an earlier one writes the files of
        its own plan as a fresh sweep does, and leaves the reps and variants
        outside its plan as they were; ``summary.csv`` lists only its runs."""
        first = cli.parse_config(small_flags(tmp_path / "out", base_seed=1))
        cli.run_experiment(first, echo=collect_echo([]))
        before = tree_bytes(tmp_path / "out")
        second = dict(variants=["map-elites"], replications=2, base_seed=7)
        for out in ("out", "fresh"):
            cli.run_experiment(cli.parse_config(small_flags(tmp_path / out, **second)), echo=collect_echo([]))
        after, fresh = tree_bytes(tmp_path / "out"), tree_bytes(tmp_path / "fresh")
        assert after == {**before, **fresh}
        kept = {name for name in before if name not in fresh}
        assert "rastrigin_multi/map-elites/rep2/archive.csv" in kept
        assert "rastrigin_multi/me-map-elites-ucb/aggregate.csv" in kept
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            assert [(row["variant"], row["rep"], row["seed"]) for row in csv.DictReader(f)] == [
                ("map-elites", "0", "7"), ("map-elites", "1", "8")
            ]

    def test_unwritable_output_returns_error(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory\n")
        cfg = cli.parse_config(small_flags(blocker, replications=1, variants=["map-elites"]))
        lines = []
        assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 1
        assert any("error" in line for line in lines)

    def test_unwritable_run_directory_returns_error(self, tmp_path):
        """A run whose files cannot be written ends the sweep with status 1,
        and summary.csv, opened before the first run, keeps its header."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "rastrigin_multi").write_text("a file, not a directory\n")
        cfg = cli.parse_config(small_flags(out, replications=1, variants=["map-elites"]))
        lines = []
        assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 1
        assert lines[-1].startswith("error: cannot write run outputs:")
        assert (out / "summary.csv").read_text() == ",".join(cli.SUMMARY_HEADER) + "\n"

    @pytest.mark.parametrize("cores", [1, 2])
    def test_each_row_reaches_the_file_before_its_line_is_echoed(self, tmp_path, monkeypatch, cores):
        """At each echo, ``summary.csv`` holds one data row per line echoed
        so far, the current one included."""
        out = tmp_path / "out"
        rows_at_echo = []

        def echo(message="", **_kwargs):
            rows_at_echo.append(len((out / "summary.csv").read_text().splitlines()) - 1)

        set_cores(monkeypatch, cores)
        assert cli.run_experiment(cli.parse_config(small_flags(out, replications=2)), echo=echo) == 0
        assert rows_at_echo == [1, 2, 3, 4]

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="the platform has no SIGKILL")
    def test_a_killed_sweep_keeps_the_row_of_every_echoed_run(self, tmp_path):
        """A serial ``qdpool run`` killed at the start of its third run
        keeps the header and the rows of the two runs before it, byte for
        byte, and their rep files; the staging directory is left behind.
        Its stdout is a pipe, which Python block-buffers, and still holds
        the two runs' lines."""
        argv = ["run", "--task", "rastrigin_multi", "--dim", "4", "--resolution", "10"]
        argv += ["--variant", "me-map-elites-ucb", "--variant", "map-elites", "--generations", "10"]
        argv += ["--slots", "4", "--batch", "4", "--init-samples", "20", "--replications", "3"]
        argv += ["--seed", "11", "--metrics-every", "5", "--out", str(tmp_path / "killed")]
        code = (
            "import os, signal\n"
            "from qdpool import cli, engine\n"
            "engine.process_count = lambda runs, threads: 1\n"
            "run, calls = engine.run, []\n"
            "def killing_run(config):\n"
            "    calls.append(config)\n"
            "    if len(calls) == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return run(config)\n"
            "engine.run = killing_run\n"
            f"cli.main({argv!r})\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == -signal.SIGKILL
        lines = []
        cli.run_experiment(cli.parse_config(small_flags(tmp_path / "finished")), echo=collect_echo(lines))
        without_wall_time = [line.rsplit(" (", 1)[0] for line in lines[:2]]
        assert [line.rsplit(" (", 1)[0] for line in proc.stdout.splitlines()] == without_wall_time
        killed, finished = tree_bytes(tmp_path / "killed"), tree_bytes(tmp_path / "finished")
        assert killed.pop("summary.csv") == b"".join(finished["summary.csv"].splitlines(keepends=True)[:3])
        echoed = tuple(f"rastrigin_multi/me-map-elites-ucb/rep{rep}/" for rep in (0, 1))
        assert killed == {name: data for name, data in finished.items() if name.startswith(echoed)}
        staging, *rest = sorted(os.listdir(tmp_path / "killed"))
        assert staging.startswith(".staging-") and rest == ["rastrigin_multi", "summary.csv"]


class TestMainEntry:
    def test_run_via_argv(self, tmp_path):
        status = cli.main(
            [
                "run",
                "--task", "rastrigin_multi",
                "--dim", "4",
                "--resolution", "10",
                "--variant", "map-elites",
                "--generations", "5",
                "--slots", "4",
                "--batch", "4",
                "--init-samples", "20",
                "--replications", "1",
                "--seed", "3",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert status == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "rastrigin_multi" / "map-elites" / "rep0" / "metrics.csv").exists()

    def test_strategy_stopped_at_activation_restarts_and_the_run_completes(self, tmp_path):
        """At sigma0 = 1e-17 every fresh strategy already meets a restart
        criterion; it is sampled once, stops, and the run goes on."""
        out = tmp_path / "out"
        small = ["--task", "sphere", "--dim", "6", "--resolution", "10", "--variant", "cma-me-opt"]
        small += ["--generations", "5", "--slots", "2", "--batch", "4", "--init-samples", "20"]
        assert cli.main(["run", *small, "--replications", "1", "--sigma0", "1e-17", "--out", str(out)]) == 0
        rep_files = [f"sphere/cma-me-opt/rep0/{name}" for name in ("metrics.csv", "archive.csv", "emitter_mix.csv")]
        assert sorted(tree_bytes(out)) == sorted(["summary.csv", "sphere/cma-me-opt/aggregate.csv", *rep_files])

    def test_a_grid_that_cannot_be_allocated_is_an_error(self, tmp_path, monkeypatch, capsys):
        """A grid numpy can index but the machine cannot hold ends in one
        error line; the refusal is simulated, since a real one would take
        the machine's memory."""

        def refuse(spec):
            raise MemoryError(f"Unable to allocate the per-cell arrays of {spec.total_cells} cells")

        monkeypatch.setattr(engine, "Archive", refuse)
        out = tmp_path / "out"
        small = ["--task", "sphere", "--dim", "4", "--resolution", "10", "--generations", "2", "--variant", "map-elites"]
        small += ["--slots", "2", "--batch", "4", "--init-samples", "10", "--replications", "1"]
        assert cli.main(["run", *small, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate the per-cell arrays of 100 cells\n"

    def test_a_window_longer_than_the_run_counts_every_generation(self, tmp_path):
        """Nothing is sized by ``window``: a window of 10**12 generations
        runs and writes the same tree as any other window longer than the
        run, while a short window changes the selections."""
        small = ["--task", "sphere", "--dim", "6", "--resolution", "10", "--generations", "40"]
        small += ["--variant", "me-map-elites-ucb", "--slots", "4", "--batch", "4", "--init-samples", "10"]
        trees = {}
        for window in ("1000000000000", "100000", "3"):
            out = tmp_path / window
            assert cli.main(["run", *small, "--replications", "2", "--window", window, "--out", str(out)]) == 0
            trees[window] = tree_bytes(out)
        assert trees["1000000000000"] == trees["100000"] != trees["3"]

    def test_config_error_exits_2(self, capsys):
        status = cli.main(["run", "--task", "sphere", "--replications", "0"])
        assert status == 2
        assert "replications" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_a_batch_of_one_is_reported_under_batch(self, source, tmp_path, capsys):
        """The engine field ``batch_per_emitter`` is fed by the ``batch``
        setting, so its error names ``batch``, from the flag or the file."""
        out = tmp_path / "out"
        argv = ["run", "--task", "sphere", "--out", str(out)]
        if source == "flag":
            argv += ["--batch", "1"]
        else:
            (tmp_path / "exp.ini").write_text("[run]\nbatch = 1\n")
            argv += ["--config", str(tmp_path / "exp.ini")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "config error: batch must be at least 2\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--variant", "map-elites", "--batch", "1"],
            ["--variant", "map-elites", "--variant", "me-map-elites-uniform", "--slots", "6"],
            ["--variant", "me-map-elites-uniform", "--window", "0"],
            ["--variant", "cma-me-opt", "--sigma0", "nan"],
            ["--variant", "cma-me-opt", "--sigma0", "inf"],
            ["--variant", "cma-me-opt", "--zeta", "nan"],
            ["--variant", "cma-me-opt", "--zeta", "inf"],
            ["--variant", "map-elites", "--seed", "-1"],
            ["--variant", "map-elites", "--resolution", "4294967296"],
            ["--variant", "map-elites", "--resolution", "3037000500"],
            ["--variant", "map-elites", "--resolution", str(2**64)],
        ],
        ids=[
            "batch-1", "uniform-slots-6", "uniform-window-0", "sigma0-nan", "sigma0-inf", "zeta-nan", "zeta-inf",
            "seed-negative", "cells-wrap-to-0", "cells-wrap-negative", "resolution-beyond-int64",
        ],
    )
    def test_invalid_run_exits_2_before_writing(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        small = ["--task", "sphere", "--dim", "4", "--resolution", "10", "--generations", "2"]
        small += ["--slots", "4", "--batch", "4", "--init-samples", "10", "--replications", "1"]
        assert cli.main(["run", *small, "--out", str(out), *argv]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--dim", "1"], ["--sigma0", "-1"], ["--resolution", "0"], ["--resolution", "4294967296"],
         ["--resolution", "3037000500"], ["--resolution", str(2**64)]],
        ids=["dim", "sigma0", "resolution", "cells-wrap-to-0", "cells-wrap-negative", "resolution-beyond-int64"],
    )
    def test_dump_task_config_error_exits_2(self, argv, capsys):
        assert cli.main(["dump-task", "--task", "sphere", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert argv[0][2:] in captured.err
        assert captured.out == ""

    def test_dump_task(self, capsys):
        assert cli.main(["dump-task", "--task", "sphere", "--dim", "20", "--resolution", "50"]) == 0
        out = capsys.readouterr().out
        parsed = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert parsed["name"] == "sphere"
        assert int(parsed["dim"]) == 20
        assert int(parsed["grid_cells"]) == 2500
        assert float(parsed["fitness_best_raw"]) == 0.0
        task = make_task("sphere", dim=20, resolution=50)
        assert float(parsed["fitness_worst_raw"]) == float(task.fitness_worst_raw)

    @pytest.mark.parametrize(
        "task, digest",
        [
            ("rastrigin_proj", "4084c800385f89b8bcf675e4c09dc098c3863f8ec7c87769e5083a3937fe0e5e"),
            ("rastrigin_multi", "89b78650663f77a47f4c7cff6569cce3b34c1155d40d2b6a6786442aa7cc299b"),
            ("sphere", "101d48fb8879ab9c643f28746424a21843859244c3e17492e1805cd2e0890a32"),
            ("redundant_arm", "8911c884aac430e0c3cd52930ebebb0b1d0f17042d454a13563cc14151cda127"),
        ],
    )
    def test_dump_task_bytes_are_pinned(self, task, digest, capsys):
        """sha256 of each task's default ``dump-task`` output: how a task
        stores its constants must not move a byte of it."""
        assert cli.main(["dump-task", "--task", task]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_dump_task_reports_rastrigin_constant(self, capsys):
        cli.main(["dump-task", "--task", "rastrigin_proj", "--dim", "10"])
        out = capsys.readouterr().out
        parsed = dict(line.split(": ", 1) for line in out.strip().splitlines())
        from qdpool.tasks import RASTRIGIN_PER_DIM_MAX

        assert float(parsed["rastrigin_per_dim_max"]) == RASTRIGIN_PER_DIM_MAX


class TestCompare:
    def summary_file(self, tmp_path, rows, header=cli.SUMMARY_HEADER):
        path = tmp_path / "summary.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return str(path)

    def synthetic_rows(self, qd_by_variant, task="sphere"):
        rows = []
        for variant, values in qd_by_variant.items():
            for rep, qd in enumerate(values):
                rows.append([task, variant, rep, rep + 1, 10, 1000, 50, 0.5, qd])
        return rows

    def test_separated_groups_are_flagged_different(self, tmp_path):
        path = self.summary_file(
            tmp_path,
            self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0, 4.0], "cma-me-opt": [10.0, 11.0, 12.0, 13.0]}),
        )
        lines = []
        assert cli.compare_summaries([path], metric="qd_score", alpha=0.05, echo=collect_echo(lines)) == 0
        table = "\n".join(lines)
        assert "task: sphere" in table
        assert "different" in table

    def test_a_task_with_one_variant_gets_no_table(self, tmp_path):
        """A lone variant has nothing to be compared with, however few its
        values; the other tasks are compared as usual."""
        rows = self.synthetic_rows({"map-elites": [1.0]}, task="arm")
        rows += self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [4.0, 5.0, 6.0]})
        lines = []
        path = self.summary_file(tmp_path, rows)
        assert cli.compare_summaries([path], metric="qd_score", alpha=0.05, echo=collect_echo(lines)) == 0
        assert [line for line in lines if line.startswith("\ntask:")] == ["\ntask: sphere"]

    def test_median_of_an_even_count_is_the_mean_of_the_middle_two(self, tmp_path):
        path = self.summary_file(
            tmp_path,
            self.synthetic_rows({"map-elites": [4.0, 1.0, 3.0, 2.0], "cma-me-opt": [10.0, 12.0, 11.0]}),
        )
        lines = []
        assert cli.compare_summaries([path], metric="qd_score", alpha=0.05, echo=collect_echo(lines)) == 0
        row = next(line for line in lines if line.split()[:2] == ["cma-me-opt", "map-elites"])
        assert row.split()[2:4] == ["11.0000", "2.5000"]

    def test_identical_groups_are_undecided(self, tmp_path):
        """A p at or above alpha shows no difference; it does not show an
        equivalence either."""
        path = self.summary_file(
            tmp_path,
            self.synthetic_rows({"map-elites": [5.0, 6.0, 7.0], "cma-me-opt": [5.0, 6.0, 7.0]}),
        )
        lines = []
        assert cli.compare_summaries([path], metric="qd_score", alpha=0.05, echo=collect_echo(lines)) == 0
        row = next(line for line in lines if line.split()[:2] == ["cma-me-opt", "map-elites"])
        assert row.split()[-1] == "undecided"
        assert "equivalent" not in "\n".join(lines)

    def test_a_closed_pipe_ends_compare_without_a_traceback(self, tmp_path):
        """``qdpool compare … | head -1``: the table is far larger than a
        pipe holds, so the reader closes the pipe while compare still
        writes."""
        rows = []
        for t in range(1500):
            rows += self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [4.0, 5.0, 6.0]}, task=f"t{t}")
        path = self.summary_file(tmp_path, rows)
        src = str(Path(cli.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "qdpool.cli", "compare", path],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline().startswith(b"metric: qd_score")
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1, err
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    @pytest.mark.parametrize("column", ["task", "variant", "qd_score"])
    def test_missing_column_is_an_error(self, tmp_path, capsys, column):
        keep = [i for i, c in enumerate(cli.SUMMARY_HEADER) if c != column]
        rows = self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [4.0, 5.0, 6.0]})
        path = self.summary_file(
            tmp_path, [[row[i] for i in keep] for row in rows], [cli.SUMMARY_HEADER[i] for i in keep]
        )
        assert cli.main(["compare", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} has no column {column!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "bad_row,shown",
        [(["sphere", "map-elites", 1, 2, 10, 1000, 50, 0.5, "abc"], "'abc'"), (["sphere", "map-elites"], "None")],
    )
    def test_non_numeric_metric_is_an_error(self, tmp_path, capsys, bad_row, shown):
        rows = self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [4.0, 5.0, 6.0]})
        rows[1] = bad_row
        path = self.summary_file(tmp_path, rows)
        assert cli.main(["compare", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: qd_score {shown} is not a number\n"
        assert captured.out == ""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_metric_is_an_error(self, tmp_path, capsys, cell):
        rows = self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [4.0, 5.0, 6.0]})
        rows[4][-1] = cell
        path = self.summary_file(tmp_path, rows)
        assert cli.main(["compare", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: qd_score {cell!r} is not finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5", "nan", "inf"])
    def test_alpha_outside_the_unit_interval_is_an_error(self, tmp_path, capsys, alpha):
        path = self.summary_file(
            tmp_path,
            self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [9.0, 10.0, 11.0]}),
        )
        assert cli.main(["compare", path, "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha must be in (0, 1), got {float(alpha)}\n"
        assert captured.out == ""

    HEADER = ",".join(cli.SUMMARY_HEADER).encode() + b"\n"

    @pytest.mark.parametrize(
        "name,content,reason",
        [
            ("missing.csv", None, os.strerror(errno.ENOENT)),
            (".", None, os.strerror(errno.EISDIR)),
            (
                "not_text.csv",
                HEADER + b"\x7fELF\x02\x01\x01\x00\xd0\x10\n",
                f"'utf-8' codec can't decode byte 0xd0 in position {len(HEADER) + 8}: "
                "invalid continuation byte",
            ),
            (
                "huge_field.csv",
                HEADER + b"x" * 200_000 + b",a,0,1,10,100,5,0.5,1.0\n",
                "field larger than field limit (131072)",
            ),
        ],
        ids=["missing", "directory", "not_utf8", "field_too_large"],
    )
    def test_unreadable_summary_is_an_error(self, tmp_path, capsys, name, content, reason):
        path = str(tmp_path / name)
        if content is not None:
            Path(path).write_bytes(content)
        assert cli.main(["compare", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot read {path}: {reason}\n"
        assert captured.out == ""

    def test_task_filter_and_missing_rows(self, tmp_path):
        path = self.summary_file(tmp_path, self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0]}))
        lines = []
        assert cli.compare_summaries([path], metric="qd_score", alpha=0.05, task_filter="redundant_arm", echo=collect_echo(lines)) == 2

    def test_too_few_replications_is_an_error(self, tmp_path):
        path = self.summary_file(
            tmp_path,
            self.synthetic_rows({"map-elites": [1.0, 2.0], "cma-me-opt": [3.0, 4.0]}),
        )
        assert cli.compare_summaries([path], metric="qd_score", alpha=0.05, echo=collect_echo([])) == 2

    def test_compare_via_main(self, tmp_path, capsys):
        path = self.summary_file(
            tmp_path,
            self.synthetic_rows({"map-elites": [1.0, 2.0, 3.0], "cma-me-opt": [9.0, 10.0, 11.0]}),
        )
        assert cli.main(["compare", path, "--metric", "qd_score", "--alpha", "0.1"]) == 0
        assert "map-elites" in capsys.readouterr().out

    def test_pooling_multiple_summary_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        path_a = self.summary_file(a, self.synthetic_rows({"map-elites": [1.0, 2.0]}))
        path_b = self.summary_file(b, self.synthetic_rows({"cma-me-opt": [1.5, 2.5], "map-elites": [3.0]}))
        lines = []
        # pooled: map-elites has 3 values, cma-me-opt only 2 -> still an error
        assert cli.compare_summaries([path_a, path_b], metric="qd_score", alpha=0.05, echo=collect_echo(lines)) == 2


class TestThreadsParity:
    def test_threads_flag_does_not_change_outputs(self, tmp_path):
        for out, threads in (("t1", 1), ("t4", 4)):
            cfg = cli.parse_config(
                small_flags(tmp_path / out, variants=["me-map-elites-ucb"], replications=1, threads=threads)
            )
            cli.run_experiment(cfg, echo=collect_echo([]))
        first, second = tree_bytes(tmp_path / "t1"), tree_bytes(tmp_path / "t4")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


WALL_TIME = re.compile(r" \(\d+\.\d+s\)$")


def set_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def count_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    return forks


class TestParallelSweep:
    """`run` runs on min(runs, usable cores // threads) processes; nothing it
    writes or echoes, apart from wall times, may depend on that count, and
    no worker may outlive the call."""

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_tree_and_echo_match_a_serial_sweep(self, tmp_path, monkeypatch, cores):
        outputs = {}
        for n in (1, cores):
            set_cores(monkeypatch, n)
            forks = count_forks(monkeypatch)
            lines = []
            cfg = cli.parse_config(small_flags(tmp_path / f"cores{n}", replications=2))
            assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 0
            assert sorted(os.listdir(tmp_path / f"cores{n}")) == ["rastrigin_multi", "summary.csv"]  # no staging
            assert len(forks) == n - 1  # 2 variants x 2 reps: one process per core
            assert multiprocessing.active_children() == []
            assert all(WALL_TIME.search(line) for line in lines)
            outputs[n] = tree_bytes(tmp_path / f"cores{n}"), [WALL_TIME.sub("", line) for line in lines]
        assert outputs[cores] == outputs[1]

    def test_workers_write_their_runs_and_send_back_no_archive(self, tmp_path, monkeypatch):
        loaded = []

        def record(self, state):  # unpickling's default, plus a record of the call
            loaded.append(1)
            self.__dict__.update(state)

        monkeypatch.setattr(Archive, "__setstate__", record, raising=False)
        set_cores(monkeypatch, 2)
        cfg = cli.parse_config(small_flags(tmp_path / "out", replications=2))
        assert cli.run_experiment(cfg, echo=collect_echo([])) == 0
        assert loaded == []  # no archive was unpickled in this process
        assert len(tree_bytes(tmp_path / "out")) == 4 * 3 + 2 + 1

    @pytest.mark.parametrize("fault", ["rep_dir_is_a_file", "staged_write_fails"])
    def test_an_unwritable_run_of_a_worker_is_an_error(self, tmp_path, monkeypatch, fault):
        """The fourth run is the worker's: it cannot be written in the worker,
        or its rep directory cannot be made.  The sweep ends with status 1 and
        keeps the rows of the three runs before it, and neither the staging
        directory nor the worker outlives it."""
        out = tmp_path / "out"
        if fault == "rep_dir_is_a_file":
            (out / "rastrigin_multi" / "map-elites").mkdir(parents=True)
            (out / "rastrigin_multi" / "map-elites" / "rep1").write_text("a file, not a directory\n")
        else:
            caller = os.getpid()
            write = metrics.write_metrics_csv
            calls = []  # each process counts its own

            def failing_write(records, path):
                calls.append(path)
                if os.getpid() != caller and len(calls) == 2:  # the worker's second run
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                write(records, path)

            monkeypatch.setattr(metrics, "write_metrics_csv", failing_write)
        set_cores(monkeypatch, 2)
        lines = []
        cfg = cli.parse_config(small_flags(out, replications=2))
        assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 1
        assert lines[-1].startswith("error: cannot write run outputs:")
        rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))
        assert [row[1:3] for row in rows[1:]] == [
            ["me-map-elites-ucb", "0"],
            ["me-map-elites-ucb", "1"],
            ["map-elites", "0"],
        ]
        assert sorted(os.listdir(out)) == ["rastrigin_multi", "summary.csv"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault", ["raises", "dies"])
    def test_a_worker_fault_leaves_no_staging_directory(self, tmp_path, monkeypatch, fault):
        caller = os.getpid()
        step = engine.Engine.step

        def faulty_step(self):
            if os.getpid() != caller and self.config.variant == "map-elites":
                if fault == "dies":
                    os._exit(3)
                raise ValueError("injected fault")
            step(self)

        monkeypatch.setattr(engine.Engine, "step", faulty_step)
        set_cores(monkeypatch, 2)
        cfg = cli.parse_config(small_flags(tmp_path / "out", replications=2))
        with pytest.raises(RuntimeError if fault == "dies" else ValueError):
            cli.run_experiment(cfg, echo=collect_echo([]))
        assert sorted(os.listdir(tmp_path / "out")) == ["rastrigin_multi", "summary.csv"]
        assert multiprocessing.active_children() == []

    def test_unwritable_output_stops_the_workers(self, tmp_path, monkeypatch):
        caller = os.getpid()
        step = engine.Engine.step

        def slow_worker_step(self):
            if os.getpid() != caller:
                time.sleep(30)  # a long run: the caller must stop it, not wait for it
            step(self)

        monkeypatch.setattr(engine.Engine, "step", slow_worker_step)
        set_cores(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory\n")
        lines = []
        cfg = cli.parse_config(small_flags(blocker, replications=2))
        start = time.perf_counter()
        assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 1
        assert time.perf_counter() - start < 15
        assert lines and lines[-1].startswith("error: cannot write run outputs:")
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    def test_exception_in_a_worker_propagates_as_in_a_serial_sweep(self, tmp_path, monkeypatch):
        step = engine.Engine.step

        def failing_step(self):
            if (self.config.variant, self.config.seed) == ("map-elites", 12):
                raise ValueError("injected fault")
            step(self)

        monkeypatch.setattr(engine.Engine, "step", failing_step)
        trees = {}
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            cfg = cli.parse_config(small_flags(tmp_path / f"cores{cores}", replications=2))
            # plan order: ucb seeds 11, 12, then map-elites 11, 12; with two
            # processes the failing fourth run is the worker's
            with pytest.raises(ValueError, match="injected fault") as raised:
                cli.run_experiment(cfg, echo=collect_echo([]))
            assert multiprocessing.active_children() == []
            trees[cores] = tree_bytes(tmp_path / f"cores{cores}")
        assert "failing_step" in str(raised.value.__cause__)  # the worker's traceback
        assert trees[2] == trees[1]
        assert "rastrigin_multi/map-elites/rep0/archive.csv" in trees[1]
        assert "rastrigin_multi/map-elites/rep1/archive.csv" not in trees[1]
        # summary.csv keeps the header and the rows of the three finished runs
        rows = list(csv.reader(trees[1]["summary.csv"].decode().splitlines()))
        assert rows[0] == list(cli.SUMMARY_HEADER)
        assert [row[1:4] for row in rows[1:]] == [
            ["me-map-elites-ucb", "0", "11"],
            ["me-map-elites-ucb", "1", "12"],
            ["map-elites", "0", "11"],
        ]

    def test_a_worker_that_dies_is_an_error(self, tmp_path, monkeypatch):
        caller = os.getpid()
        step = engine.Engine.step

        def dying_step(self):
            if os.getpid() != caller:
                os._exit(3)
            step(self)

        monkeypatch.setattr(engine.Engine, "step", dying_step)
        set_cores(monkeypatch, 2)
        cfg = cli.parse_config(small_flags(tmp_path / "out", replications=2))
        with pytest.raises(RuntimeError, match="exited with status 3 before sending run 1"):
            cli.run_experiment(cfg, echo=collect_echo([]))
        assert multiprocessing.active_children() == []

    def test_a_worker_that_cannot_start_is_an_error(self, tmp_path, monkeypatch):
        set_cores(monkeypatch, 3)
        forks = []
        fork = os.fork

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        lines = []
        cfg = cli.parse_config(small_flags(tmp_path / "out", replications=2))
        assert cli.run_experiment(cfg, echo=collect_echo(lines)) == 1
        reason = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
        assert lines == [f"error: cannot start worker processes: {reason}"]
        assert len(forks) == 2  # the first worker started and was stopped
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()

    def test_config_error_starts_no_process(self, tmp_path, monkeypatch):
        set_cores(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        flags = small_flags(tmp_path / "out", batch=1, threads=1)
        with pytest.raises(cli.ConfigError, match="batch"):
            cli.run_experiment(cli.ExperimentConfig(**flags), echo=collect_echo([]))
        assert forks == []
        assert not (tmp_path / "out").exists()

    def test_importing_the_cli_loads_no_process_machinery(self):
        code = "import sys, qdpool.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_importing_qdpool_loads_no_pool_or_masked_arrays(self):
        """Every ``qdpool`` command and benchmark worker pays for what the
        package imports; thread pools, process pools and masked arrays are
        imported only where a call needs them."""
        heavy = ("concurrent.futures", "multiprocessing", "numpy.ma")
        code = f"import sys, qdpool; print([m for m in {heavy!r} if m in sys.modules])"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_a_sweep_loads_no_masked_arrays(self, tmp_path):
        """The first ``np.percentile`` of a process imports ``numpy.ma``
        (15-27 ms on the caller's path), so a sweep's aggregate quartiles
        are computed without it."""
        argv = [
            "run", "--task", "sphere", "--dim", "4", "--resolution", "5",
            "--variant", "map-elites", "--generations", "3", "--slots", "2", "--batch", "3",
            "--init-samples", "8", "--replications", "2", "--out", str(tmp_path / "out"),
        ]
        code = (
            "import sys; from qdpool import cli; "
            f"status = cli.main({argv!r}); print(status, 'numpy.ma' in sys.modules)"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "out" / "sphere" / "map-elites" / "aggregate.csv").exists()
