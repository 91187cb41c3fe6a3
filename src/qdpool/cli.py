"""Command-line front end: experiment orchestration over (variant,
replication) grids, deterministic output layout, variant comparison, and
task-constant auditing.

Subcommands:
    run        Execute variants x replications and write the CSV tree.
    compare    Rank-sum tests with Holm correction over summary files.
    dump-task  Print a task's constants, including derived normalization.

The config file (``--config``) is INI-style: flat ``key = value`` pairs
in ``[task]``, ``[run]``, ``[scheduler]`` and ``[output]`` sections, with
every key mirrored by a command-line flag; flags win over the file, the
file wins over built-in defaults.  The CLI adds no randomness of its own:
replication k always runs with seed ``base_seed + k``, so any single run
can be reproduced in isolation.

``run`` runs its (variant, replication) runs at the same time on
``min(runs, max(1, usable_cores // threads))`` processes, the calling one
included (:func:`engine.run_many`); there is no option for it, and
``taskset`` narrows the usable cores.  The output is the same, byte for
byte, as that of a serial sweep.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from qdpool import engine, metrics
from qdpool._counts import count
from qdpool.scheduler import GRANULARITIES
from qdpool.tasks import (
    DEFAULT_DIM,
    DEFAULT_RESOLUTION,
    RASTRIGIN_PER_DIM_MAX,
    TASK_NAMES,
    TaskSpec,
    make_task,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class ExperimentConfig:
    """A validated experiment: one task, a list of variants, and shared
    run parameters."""

    task_name: str = "rastrigin_multi"
    dim: int = DEFAULT_DIM
    resolution: int = DEFAULT_RESOLUTION
    sigma0: float | None = None
    variants: list[str] = field(default_factory=lambda: list(engine.VARIANT_NAMES))
    replications: int = 20
    base_seed: int = 1
    generations: int = engine.RunConfig.generations
    slots: int = engine.RunConfig.slots
    batch: int = engine.RunConfig.batch_per_emitter
    init_samples: int = engine.RunConfig.init_samples
    zeta: float = engine.RunConfig.zeta
    window: int = engine.RunConfig.window
    stats_granularity: str = engine.RunConfig.stats_granularity
    metrics_every: int = engine.RunConfig.metrics_every
    out_dir: str = "results"
    threads: int = engine.RunConfig.threads


class _Setting(NamedTuple):
    """One `run` setting: its INI section and key, the
    :class:`ExperimentConfig` field it sets, the value type, the flag, any
    further argparse options of that flag (never mutated), and the
    :class:`engine.RunConfig` field it feeds as it is, if any."""

    section: str
    key: str
    name: str
    type: type
    flag: str
    options: dict = {}
    feeds: str | None = None


# INI parsing, the `run` flags, their collection in `main` and `_plan` all
# read this table; rows follow the order of the flags in `qdpool run --help`.
_SETTINGS = (
    _Setting("task", "name", "task_name", str, "--task", {"choices": TASK_NAMES}),
    _Setting(
        "run",
        "variant",
        "variants",
        str,
        "--variant",
        {
            "action": "append",
            "choices": engine.VARIANT_NAMES,
            "help": "repeatable; default is all six variants",
        },
    ),
    _Setting("run", "generations", "generations", int, "--generations", feeds="generations"),
    _Setting("run", "slots", "slots", int, "--slots", feeds="slots"),
    _Setting("run", "batch", "batch", int, "--batch", feeds="batch_per_emitter"),
    _Setting("run", "init", "init_samples", int, "--init-samples", feeds="init_samples"),
    _Setting("run", "replications", "replications", int, "--replications"),
    _Setting("run", "seed", "base_seed", int, "--seed"),
    _Setting("scheduler", "zeta", "zeta", float, "--zeta", feeds="zeta"),
    _Setting("scheduler", "window", "window", int, "--window", feeds="window"),
    _Setting(
        "scheduler",
        "stats_granularity",
        "stats_granularity",
        str,
        "--stats-granularity",
        {"choices": GRANULARITIES},
        feeds="stats_granularity",
    ),
    _Setting("task", "dim", "dim", int, "--dim"),
    _Setting("task", "resolution", "resolution", int, "--resolution"),
    _Setting("task", "sigma0", "sigma0", float, "--sigma0"),
    _Setting("output", "dir", "out_dir", str, "--out"),
    _Setting(
        "run", "threads", "threads", int, "--threads", {"help": "evaluation threads"},
        feeds="threads",
    ),
    _Setting("run", "metrics_every", "metrics_every", int, "--metrics-every", feeds="metrics_every"),
)
_INI_SETTINGS = {(s.section, s.key): s for s in _SETTINGS}


def _read_config_file(path: str) -> dict:
    """The settings of an INI file, by :class:`ExperimentConfig` field; a
    file that cannot be read or parsed is a :class:`ConfigError` naming it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
        items = {section: list(parser[section].items()) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span lines; a config error is one line
        raise ConfigError(f"config: cannot parse file {path!r}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"config: cannot read file {path!r}")
    sections = {s.section for s in _SETTINGS}
    values: dict = {}
    for section, section_items in items.items():
        if section not in sections:
            raise ConfigError(f"config: unknown section [{section}]")
        for key, raw in section_items:
            setting = _INI_SETTINGS.get((section, key))
            if setting is None:
                raise ConfigError(f"config: unknown key {key!r} in section [{section}]")
            try:
                value = [v.strip() for v in raw.split(",")] if setting.name == "variants" else setting.type(raw)
            except ValueError as exc:
                raise ConfigError(f"{setting.name}: cannot parse {raw!r}") from exc
            values[setting.name] = value
    return values


def _task(name: str, dim: int, resolution: int, sigma0: float | None) -> TaskSpec:
    """:func:`make_task`, with an invalid argument reported as a
    :class:`ConfigError`."""
    try:
        return make_task(name, dim=dim, resolution=resolution, sigma0=sigma0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _plan(cfg: ExperimentConfig) -> dict[str, list[engine.RunConfig]]:
    """The engine configuration of each replication of each variant, with
    an invalid task argument or setting reported as a :class:`ConfigError`;
    an error that opens with a :class:`engine.RunConfig` field names the
    setting that feeds it instead."""
    task = _task(cfg.task_name, cfg.dim, cfg.resolution, cfg.sigma0)
    fed = {s.feeds: getattr(cfg, s.name) for s in _SETTINGS if s.feeds}
    try:
        return {
            variant: [
                engine.RunConfig(task=task, variant=variant, seed=cfg.base_seed + rep, **fed)
                for rep in range(cfg.replications)
            ]
            for variant in cfg.variants
        }
    except ValueError as exc:
        field_name, space, rest = str(exc).partition(" ")
        names = {s.feeds: s.name for s in _SETTINGS if s.feeds}
        raise ConfigError(names.get(field_name, field_name) + space + rest) from exc


def parse_config(flags: dict, config_path: str | None = None) -> ExperimentConfig:
    """Merges built-in defaults, an optional config file, and explicit
    flags (``None`` flag values mean "not given") into an
    :class:`ExperimentConfig`.

    The task and every run's :class:`engine.RunConfig` are built once
    here, so every check they make applies before any run starts.

    Raises:
        ConfigError: Naming the offending field.
    """
    values = _read_config_file(config_path) if config_path is not None else {}
    values.update((key, value) for key, value in flags.items() if value is not None)
    cfg = ExperimentConfig(**values)
    if isinstance(cfg.variants, str):
        cfg.variants = [cfg.variants]
    repeated = sorted({v for v in cfg.variants if cfg.variants.count(v) > 1})
    if repeated:
        raise ConfigError(f"variants: {', '.join(repeated)} given more than once")
    try:
        cfg.replications = count("replications", cfg.replications, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _plan(cfg)
    return cfg


SUMMARY_HEADER = (
    "task",
    "variant",
    "rep",
    "seed",
    "generations",
    "evaluations",
    "archive_size",
    "best_fitness",
    "qd_score",
)


def run_experiment(cfg: ExperimentConfig, echo=print) -> int:
    """Runs every (variant, replication) pair and writes the output tree.

    Layout: ``<out>/<task>/<variant>/rep<k>/{metrics,archive,emitter_mix}
    .csv`` plus per-variant ``aggregate.csv`` and a global
    ``summary.csv``.  ``--out`` is created before the first run.
    ``summary.csv`` is line-buffered and gets each run's row once that
    run's files are in place and before its line is echoed, so a sweep
    that raises or is killed keeps the row of every run it echoed.
    Returns a process exit status: 1, after an ``error: …`` line, if the
    worker processes cannot be started, an output cannot be written, or a
    run's memory (its grid, say) cannot be allocated.

    The runs go through :func:`engine.run_many`, so up to
    ``usable cores // threads`` of them run at the same time, this process
    running its share and forked workers the rest.  The process that made
    a run writes its three files into ``<out>/.staging-<pid>/`` (``pid``
    being this process's) and hands back only that directory, its thinned
    records and its wall time, so no archive crosses a pipe.  In plan
    order, this process then makes ``rep<k>``, moves the run's files into
    it with ``os.replace``, writes its summary row and echoes its line,
    and after a variant's last run writes its ``aggregate.csv``.  So the
    tree, and the echoed lines apart from their wall times, are those of
    a serial sweep, also when a run fails.  On every exit path the workers
    are stopped and then the staging directory is removed, so neither
    outlives the call; only a killed sweep leaves the staging directory.

    Raises:
        ConfigError: If any run's configuration is invalid; every run is
            configured before the first one starts, so nothing is written
            and no process is started.
    """
    out_root = Path(cfg.out_dir)
    staging = out_root / f".staging-{os.getpid()}"
    plan = _plan(cfg)

    def stage(result: engine.RunResult):
        """Writes a run's files into its own staging directory (variants
        are distinct and a variant's replications have distinct seeds), in
        the process that made the run, and returns what this process still
        needs."""
        staged = staging / f"{result.config.variant}-seed{result.config.seed}"
        staged.mkdir(parents=True, exist_ok=True)
        metrics.write_metrics_csv(result.records, staged / "metrics.csv")
        result.archive.write_csv(staged / "archive.csv")
        metrics.write_emitter_mix_csv(result.kind_series, staged / "emitter_mix.csv")
        return staged, result.records, result.wall_time

    try:
        runs = engine.run_many([c for run_configs in plan.values() for c in run_configs], stage)
    except OSError as exc:
        echo(f"error: cannot start worker processes: {exc}", file=sys.stderr)
        return 1

    try:
        out_root.mkdir(parents=True, exist_ok=True)
        # line-buffered, so a killed sweep keeps the row of every echoed run
        with open(out_root / "summary.csv", "w", newline="", buffering=1) as summary_file:
            summary = csv.writer(summary_file, lineterminator="\n")
            summary.writerow(SUMMARY_HEADER)
            for variant, run_configs in plan.items():
                variant_dir = out_root / cfg.task_name / variant
                series_by_rep = []
                for rep, run_config in enumerate(run_configs):
                    staged, records, wall_time = next(runs)
                    rep_dir = variant_dir / f"rep{rep}"
                    rep_dir.mkdir(parents=True, exist_ok=True)
                    for path in staged.iterdir():
                        os.replace(path, rep_dir / path.name)
                    series_by_rep.append(records)
                    final = records[-1]
                    summary.writerow([
                        cfg.task_name,
                        variant,
                        rep,
                        run_config.seed,
                        final.generation,
                        final.evaluations,
                        final.archive_size,
                        float(final.best_fitness_norm),
                        float(final.qd_score),
                    ])
                    echo(
                        f"{cfg.task_name}/{variant}/rep{rep}: size={final.archive_size} "
                        f"best={final.best_fitness_norm:.4f} qd={final.qd_score:.2f} "
                        f"({wall_time:.1f}s)"
                    )
                metrics.write_aggregate_csv(series_by_rep, variant_dir / "aggregate.csv")
    except OSError as exc:
        echo(f"error: cannot write run outputs: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        echo(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    finally:
        runs.close()  # stops the workers on every exit path
        shutil.rmtree(staging, ignore_errors=True)  # no worker is left to write into it
    return 0


def compare_summaries(paths, *, metric, alpha, task_filter=None, echo=print) -> int:
    """Pairwise rank-sum comparison of variants found in summary files,
    Holm-corrected within each task's family of comparisons; ``metric``
    and ``alpha`` have their defaults in ``qdpool compare``'s flags."""
    if not 0 < alpha < 1:
        echo(f"error: alpha must be in (0, 1), got {alpha}", file=sys.stderr)
        return 2
    groups: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        try:
            with open(path, newline="") as f:
                reader = csv.DictReader(f)
                columns, rows = reader.fieldnames or (), list(reader)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:  # not a readable CSV text file
            echo(f"error: cannot read {path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            return 2
        missing = [c for c in ("task", "variant", metric) if c not in columns]
        if missing:
            echo(f"error: {path} has no column {missing[0]!r}", file=sys.stderr)
            return 2
        for row in rows:
            if task_filter is not None and row["task"] != task_filter:
                continue
            try:
                value = float(row[metric])
            except (TypeError, ValueError):
                echo(f"error: {path}: {metric} {row[metric]!r} is not a number", file=sys.stderr)
                return 2
            if not math.isfinite(value):
                echo(f"error: {path}: {metric} {row[metric]!r} is not finite", file=sys.stderr)
                return 2
            groups.setdefault((row["task"], row["variant"]), []).append(value)
    if not groups:
        echo("error: no matching rows in summary files", file=sys.stderr)
        return 2

    tasks = sorted({task for task, _ in groups})
    echo(f"metric: {metric}, alpha: {alpha}")
    for task in tasks:
        variants = sorted(v for t, v in groups if t == task)
        pairs = [(a, b) for i, a in enumerate(variants) for b in variants[i + 1 :]]
        if not pairs:
            continue
        rows = []
        for a, b in pairs:
            try:
                stat, p = metrics.rank_sum_compare(groups[(task, a)], groups[(task, b)])
            except metrics.InsufficientDataError as exc:
                echo(f"error: {task}: {a} vs {b}: {exc}", file=sys.stderr)
                return 2
            med_a = statistics.median(groups[(task, a)])
            med_b = statistics.median(groups[(task, b)])
            rows.append((a, b, med_a, med_b, stat, p))
        adjusted = metrics.holm_adjust([row[5] for row in rows])
        echo(f"\ntask: {task}")
        echo(f"{'variant a':>22} {'variant b':>22} {'median a':>12} {'median b':>12} {'W':>8} {'p':>10} {'p(holm)':>10}  verdict")
        for (a, b, med_a, med_b, stat, p), p_adj in zip(rows, adjusted):
            # a p at or above alpha shows no difference, not an equivalence
            verdict = "different" if p_adj < alpha else "undecided"
            echo(
                f"{a:>22} {b:>22} {med_a:>12.4f} {med_b:>12.4f} {stat:>8.1f} "
                f"{p:>10.4g} {p_adj:>10.4g}  {verdict}"
            )
    return 0


def dump_task(name: str, dim: int, resolution: int, sigma0: float | None, echo=print) -> int:
    """Prints one task's constants as ``key: value`` lines for audit.

    Raises:
        ConfigError: If the task arguments are invalid.
    """
    task = _task(name, dim, resolution, sigma0)
    echo(f"name: {task.name}")
    echo(f"dim: {task.dim}")
    echo(f"genotype_lower: {task.lower!r}")
    echo(f"genotype_upper: {task.upper!r}")
    echo(f"sigma0: {float(task.sigma0)!r}")
    echo(f"bd_lower: {[float(v) for v in task.bd_lower]!r}")
    echo(f"bd_upper: {[float(v) for v in task.bd_upper]!r}")
    echo(f"grid_resolution: {[int(v) for v in task.grid_resolution]!r}")
    echo(f"grid_cells: {task.grid().total_cells}")
    echo(f"fitness_worst_raw: {float(task.fitness_worst_raw)!r}")
    echo(f"fitness_best_raw: {float(task.fitness_best_raw)!r}")
    if task.name.startswith("rastrigin"):
        echo(f"rastrigin_per_dim_max: {RASTRIGIN_PER_DIM_MAX!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdpool",
        description="Quality-diversity benchmark runner (emitter pools over a grid archive)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run variants x replications and write CSVs")
    run_p.add_argument("--config", help="INI config file; flags override its values")
    for s in _SETTINGS:
        run_p.add_argument(s.flag, dest=s.name, type=s.type, **s.options)

    cmp_p = sub.add_parser("compare", help="rank-sum tests over summary.csv files")
    cmp_p.add_argument("summaries", nargs="+", help="summary.csv paths")
    cmp_p.add_argument("--metric", default="qd_score", choices=("qd_score", "best_fitness", "archive_size"))
    cmp_p.add_argument("--task", default=None, help="restrict to one task")
    cmp_p.add_argument("--alpha", type=float, default=0.05)

    dump_p = sub.add_parser("dump-task", help="print task constants")
    dump_p.add_argument("--task", required=True, choices=TASK_NAMES)
    dump_p.add_argument("--dim", type=int, default=ExperimentConfig.dim)
    dump_p.add_argument("--resolution", type=int, default=ExperimentConfig.resolution)
    dump_p.add_argument("--sigma0", type=float, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            flags = {s.name: getattr(args, s.name) for s in _SETTINGS}
            cfg = parse_config(flags, args.config)
            # flushed, so a killed sweep's log keeps the line of each kept row
            return run_experiment(cfg, echo=functools.partial(print, flush=True))
        if args.command == "compare":
            return compare_summaries(args.summaries, metric=args.metric, alpha=args.alpha, task_filter=args.task)
        if args.command == "dump-task":
            return dump_task(args.task, args.dim, args.resolution, args.sigma0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`qdpool compare … | head`); point it at
        # devnull so that the flush at exit does not raise again (see "Note
        # on SIGPIPE" in the docs of Python's `signal` module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
