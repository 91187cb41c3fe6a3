"""Property tests of the command line: no input to ``qdpool`` ends in a
traceback.

Each subcommand gets flags drawn in and around every setting's domain;
``run`` also gets config files built from ``cli._SETTINGS`` (with and
without a fault) or made of random bytes, and ``compare`` gets summary
files of random bytes or of CSV with random cells.  Every example stays
tiny: dim <= 6, resolution <= 5, generations <= 3, batch <= 4, slots <=
4, window <= 5, threads <= 2, and one variant with one replication, so
no example forks or allocates much.  No size is ever drawn large, apart
from resolutions whose cell count wraps in int64 (``WRAPPING``): those
grids are rejected before anything is allocated.

The property: ``cli.main`` returns, or exits through argparse, with
status 0, 1 or 2.  A non-zero status ends stderr in its one error line
(``config error: …``, ``error: …``, or argparse's ``qdpool <command>:
error: …``) and prints no traceback, and status 2 leaves nothing under
``--out``.
"""

import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from qdpool import cli, engine
from qdpool.scheduler import GRANULARITIES
from qdpool.tasks import TASK_NAMES

ERROR_LINE = re.compile(r"^(qdpool [\w-]+: )?(config )?error: ")

INT_JUNK = ("0", "-1", "", "x", "1.5", "1e3", "nan", "inf")
# resolutions whose 2-D cell count wraps in int64 (to 0, to a negative, or
# already the resolution itself)
WRAPPING = ("4294967296", "3037000500", str(2**64))


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds).map(repr)


SIGMA0 = st.one_of(st.sampled_from(["1e308", "1e-320"]), floats(min_value=0.0, exclude_min=True))

# name: (tokens inside the setting's domain, tokens around it)
VALUES = {
    "task_name": (st.sampled_from(TASK_NAMES), ("rosenbrock", "")),
    "variants": (st.sampled_from(engine.VARIANT_NAMES), ("nonsense", "")),
    "generations": (ints(1, 3), INT_JUNK),
    "slots": (ints(1, 4), INT_JUNK),
    "batch": (ints(2, 4), ("1", *INT_JUNK)),
    "init_samples": (ints(1, 5), INT_JUNK),
    "replications": (st.just("1"), INT_JUNK),
    "base_seed": (st.integers(0, 2**70).map(str), ("-1", "", "x", "1.5", "nan")),
    "zeta": (st.one_of(st.just("1e308"), floats(min_value=0.0)), ("-0.1", "nan", "inf", "-inf", "x", "")),
    "window": (ints(1, 5), INT_JUNK),
    "stats_granularity": (st.sampled_from(GRANULARITIES), ("pool", "")),
    "dim": (ints(2, 6), ("1", *INT_JUNK)),
    "resolution": (ints(1, 5), (*WRAPPING, *INT_JUNK)),
    "sigma0": (SIGMA0, ("0", "-1", "nan", "inf", "-inf", "x", "")),
    "threads": (ints(1, 2), INT_JUNK),
    "metrics_every": (st.integers(1, 10**30).map(str), INT_JUNK),
}
# settings whose defaults are not tiny, so every example gives them
SIZES = {"variants", "generations", "slots", "batch", "init_samples", "replications", "window", "dim",
         "resolution", "threads"}
ROWS = [s for s in cli._SETTINGS if s.name != "out_dir"]  # --out always points into a fresh directory


def call_main(argv):
    """``cli.main(argv)``'s status (argparse's on a flag it refuses) and
    stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, err.getvalue()


def check(status, err):
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in err, err
    if status != 0:
        lines = err.rstrip("\n").split("\n")
        assert ERROR_LINE.match(lines[-1]), err
        assert sum(bool(ERROR_LINE.match(line)) for line in lines) == 1, err


def test_every_run_setting_has_values():
    assert sorted(VALUES) == sorted(s.name for s in ROWS)


@st.composite
def run_inputs(draw):
    """A tiny `qdpool run`: its flags, and its config file as ``(kind,
    bytes)`` with kind one of none, settings, bytes, missing, directory."""
    usable = st.sampled_from(["none", "settings"])
    kind = draw(st.one_of(usable, usable, st.sampled_from(["bytes", "missing", "directory"])))
    wrong = draw(st.one_of(st.none(), st.sampled_from([s.name for s in ROWS])))  # a setting out of its domain
    flags, sections = [], {}
    for s in ROWS:
        inside, around = VALUES[s.name]
        value = draw(st.sampled_from(around) if s.name == wrong else inside)
        sources = ["flag"] + (["file"] if kind == "settings" else []) + ([] if s.name in SIZES else ["omit"])
        source = draw(st.sampled_from(sources))
        if source == "flag":
            flags.append(f"{s.flag}={value}")
        elif source == "file":
            sections.setdefault(s.section, []).append(f"{s.key} = {value}")
    if kind == "bytes":
        return flags, (kind, draw(st.binary(max_size=80)))
    if kind != "settings":
        return flags, (kind, b"")
    fault = draw(st.one_of(st.none(), st.sampled_from(["stray", "duplicate", "section", "key", "percent"])))
    if fault == "duplicate" and sections:
        lines = next(iter(sections.values()))
        lines.append(lines[0])
    text = "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines) for section, lines in sections.items())
    if fault == "stray":
        text = "stray = 1\n" + text
    elif fault == "section":
        text += "[cluster]\nnodes = 4\n"
    elif fault == "key":
        text += "[run]\npopulation = 12\n"
    elif fault == "percent":
        text += "[task]\nsigma0 = 5%\n"
    return flags, (kind, text.encode())


@settings(max_examples=200, deadline=None)
@given(inputs=run_inputs())
def test_run_never_ends_in_a_traceback(inputs):
    flags, (kind, content) = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        argv = ["run", *flags, f"--out={out}"]
        if kind != "none":
            config = tmp / "exp.ini"
            if kind == "directory":
                config.mkdir()
            elif kind != "missing":
                config.write_bytes(content)
            argv += ["--config", str(config)]
        status, err = call_main(argv)
        event(f"status {status}")
        check(status, err)
        if status == 2:
            assert not out.exists(), err


CELLS = {
    "task": st.sampled_from(["sphere", "sphere", "arm"]),
    "variant": st.sampled_from(["map-elites", "cma-me-opt"]),
    "qd_score": floats(min_value=-1e6, max_value=1e6),
    "best_fitness": floats(min_value=0.0, max_value=1.0),
    "archive_size": ints(0, 25),
}
JUNK_CELLS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "x", ""]), st.text(max_size=4))


@st.composite
def summary_files(draw):
    """A summary file's bytes: random, or CSV of the summary columns (or
    some of them) and random cells, in some files with junk among them."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=120))
    columns = sorted(CELLS)
    if draw(st.booleans()):
        columns = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=len(columns), unique=True))
    junk = draw(st.booleans())
    cells = [st.one_of(CELLS[c], JUNK_CELLS) if junk else CELLS[c] for c in columns]
    rows = draw(st.lists(st.tuples(*cells), max_size=24))
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows(rows)
    return text.getvalue().encode()


@settings(max_examples=120, deadline=None)
@given(
    files=st.lists(summary_files(), min_size=1, max_size=2),
    missing=st.integers(0, 3).map(lambda i: i == 0),
    metric=st.sampled_from([None, None, "qd_score", "best_fitness", "archive_size", "coverage"]),
    task=st.sampled_from([None, None, "sphere", "arm", ""]),
    alpha=st.one_of(st.none(), st.sampled_from(["0", "1", "nan", "inf", "-inf", "x"]), floats(min_value=0.0)),
)
def test_compare_never_ends_in_a_traceback(files, missing, metric, task, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(files):
            path = Path(tmp) / f"summary{i}.csv"
            path.write_bytes(content)
            paths.append(str(path))
        if missing:
            paths.append(str(Path(tmp) / "absent.csv"))
        argv = ["compare", *paths]
        for flag, value in (("--metric", metric), ("--task", task), ("--alpha", alpha)):
            if value is not None:
                argv.append(f"{flag}={value}")
        status, err = call_main(argv)
        event(f"status {status}")
        check(status, err)


@settings(max_examples=60, deadline=None)
@given(
    task=st.one_of(st.none(), st.sampled_from([*TASK_NAMES, "rosenbrock"])),
    dim=st.one_of(st.none(), ints(2, 6), st.sampled_from(("1", *INT_JUNK))),
    resolution=st.one_of(st.none(), ints(1, 5), st.sampled_from((*WRAPPING, *INT_JUNK))),
    sigma0=st.one_of(st.none(), SIGMA0, st.sampled_from(VALUES["sigma0"][1])),
)
def test_dump_task_never_ends_in_a_traceback(task, dim, resolution, sigma0):
    argv = ["dump-task"]
    for flag, value in (("--task", task), ("--dim", dim), ("--resolution", resolution), ("--sigma0", sigma0)):
        if value is not None:
            argv.append(f"{flag}={value}")
    check(*call_main(argv))
