"""Span tracing of qdpool from the outside, for the traced benchmark run.

:meth:`Tracer.install` replaces the public entry points of every qdpool module
with timing wrappers, patched where the caller looks the name up:
``engine`` imports ``evaluate_batch``, ``cell_indices`` and ``snapshot``
by name and ``emitters`` imports ``clip_genotype`` by name, so those are
wrapped in the importing module (wrapping ``qdpool.tasks.evaluate_batch``
would time nothing).  Methods are wrapped on the class that defines them.

A span is ``(name, start, end, parent, run, extra)``; ``parent`` is the
index of the enclosing span (-1 at top level) and ``extra`` a per-layer
count (warnings raised, a matrix rebuild, an emitter that stopped).
``Archive.offer_candidate`` runs ~600 times a generation, so it gets no
span per call; its calls, busy time and outcomes are summed per parent
span instead.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import statistics
import warnings
from collections import Counter, defaultdict
from time import perf_counter

from qdpool import cli, cmaes, emitters, engine, metrics, scheduler
from qdpool.archive import AddStatus, Archive

OFFER = "archive.offer_candidate"

# (span name, owner, attribute); the owner is where callers look it up.
_TARGETS = [
    ("tasks.evaluate_batch", engine, "evaluate_batch"),
    ("tasks.clip_genotype", emitters, "clip_genotype"),
    ("tasks.make_task", cli, "make_task"),
    ("archive.cell_indices", engine, "cell_indices"),
    ("archive.genotype_matrix", Archive, "genotype_matrix"),
    ("archive.random_elite", Archive, "random_elite"),
    ("archive.write_csv", Archive, "write_csv"),
    ("cmaes.ask", cmaes.CmaesState, "ask"),
    ("cmaes.tell", cmaes.CmaesState, "tell"),
    ("cmaes.should_stop", cmaes.CmaesState, "should_stop"),
    ("scheduler.select", scheduler.UcbScheduler, "select"),
    ("scheduler.select", scheduler.UniformScheduler, "select"),
    ("scheduler.record_generation", scheduler.UcbScheduler, "record_generation"),
    ("scheduler.record_generation", scheduler.UniformScheduler, "record_generation"),
    ("engine.run", engine, "run"),
    ("engine.initialize", engine.Engine, "initialize"),
    ("engine.step", engine.Engine, "step"),
    ("metrics.snapshot", engine, "snapshot"),
    ("metrics.write", metrics, "write_metrics_csv"),
    ("metrics.write", metrics, "write_emitter_mix_csv"),
    ("metrics.write", metrics, "write_aggregate_csv"),
    ("cli.run_experiment", cli, "run_experiment"),
]
_EMITTER_CLASSES = [emitters._CmaesEmitter, *emitters.EMITTER_CLASSES.values()]
for _method in ("activate", "generate_samples", "batch_rewards", "finish_generation"):
    for _cls in _EMITTER_CLASSES:
        if _method in vars(_cls):
            _TARGETS.append((f"emitters.{_method}", _cls, _method))


class Tracer:
    """Collects spans and offer aggregates for every traced run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.offers: dict[int, list] = {}  # parent span -> [calls, s, new, improved, rejected]
        self.run = 0
        self._stack: list[int] = []
        self._last_matrix = None
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            count = 0
            start = perf_counter()
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                result, count = extra(fn, args, kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run, count)

        wrapper.__wrapped__ = fn
        return wrapper

    def _offer(self, fn):
        tracer = self
        status_col = {AddStatus.NEW: 2, AddStatus.IMPROVED: 3, AddStatus.REJECTED: 4}

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            parent = tracer._stack[-1] if tracer._stack else -1
            agg = tracer.offers.get(parent)
            if agg is None:
                agg = tracer.offers[parent] = [0, 0.0, 0, 0, 0]
            agg[0] += 1
            agg[1] += elapsed
            agg[status_col[result.status]] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _new_run(self, fn, args, kwargs):
        self.run += 1
        return fn(*args, **kwargs), 0

    @staticmethod
    def _count_warnings(fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        return result, len(caught)

    def _count_rebuild(self, fn, args, kwargs):
        matrix = fn(*args, **kwargs)
        rebuilt = matrix is not self._last_matrix
        self._last_matrix = matrix
        return matrix, int(rebuilt)

    @staticmethod
    def _count_stop(fn, args, kwargs):
        stopped = fn(*args, **kwargs)
        return stopped, int(bool(stopped) and args[0].kind is not emitters.EmitterKind.RANDOM)

    def install(self) -> None:
        """Patches every target; :meth:`uninstall` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        extras = {
            "engine.initialize": self._new_run,
            "tasks.evaluate_batch": self._count_warnings,
            "archive.genotype_matrix": self._count_rebuild,
            "emitters.finish_generation": self._count_stop,
        }
        for name, owner, attr in _TARGETS:
            original = vars(owner)[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original, extras.get(name)))
        original = vars(Archive)["offer_candidate"]
        self._restore.append((Archive, "offer_candidate", original))
        Archive.offer_candidate = self._offer(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        self._last_matrix = None

    def write(self, path) -> None:
        """Writes every span and offer aggregate as one JSON object a line."""
        with open(path, "w") as f:
            for idx, (name, start, end, parent, run, extra) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                    "parent": parent, "run": run, "count": extra}) + "\n")
            for parent, (calls, busy, new, improved, rejected) in sorted(self.offers.items()):
                f.write(json.dumps({"name": OFFER, "parent": parent, "calls": calls,
                                    "busy_s": busy, "new": new, "improved": improved,
                                    "rejected": rejected}) + "\n")

    # -- summary ----------------------------------------------------------

    def _child_seconds(self) -> dict[int, float]:
        """Time each span spends in its direct children (spans and offer
        aggregates); a span's self time is its duration minus this."""
        child_s = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for parent, agg in self.offers.items():
            if parent >= 0:
                child_s[parent] += agg[1]
        return child_s

    def layers(self) -> dict:
        """Per-layer busy time, self time and counts, normalized per
        generation (time spent inside ``engine.step``) or per run."""
        spans = self.spans
        child_s = self._child_seconds()
        in_step = [False] * len(spans)
        step_of = [-1] * len(spans)
        in_cli = [False] * len(spans)
        total = Counter()
        cli_total = Counter()  # the writers count only on the `qdpool run` path
        self_s = Counter()
        calls = Counter()
        counts = Counter()
        step_ms: list[float] = []
        for idx, (name, start, end, parent, _, extra) in enumerate(spans):
            if name == "engine.step":
                step_of[idx] = idx
                step_ms.append((end - start) * 1e3)
            elif parent >= 0:
                step_of[idx] = step_of[parent]
            in_step[idx] = step_of[idx] >= 0
            in_cli[idx] = name == "cli.run_experiment" or (parent >= 0 and in_cli[parent])
            key = (name, in_step[idx])
            duration = end - start
            total[key] += duration
            if in_cli[idx]:
                cli_total[name] += duration
            self_s[key] += duration - child_s[idx]
            calls[key] += 1
            counts[key] += extra
        offer = [0, 0.0, 0, 0, 0]
        for parent, agg in self.offers.items():
            if parent >= 0 and in_step[parent]:
                offer = [a + b for a, b in zip(offer, agg)]

        gens = max(len(step_ms), 1)
        n_runs = max(calls[("engine.initialize", False)], 1)

        def per_gen(name, table=total):
            return table[(name, True)] * 1e3 / gens

        step_total = sum(step_ms)
        self_in_step = sum(v for (n, inside), v in self_s.items() if inside) * 1e3 + offer[1] * 1e3
        min_self = min((v for v in self_s.values()), default=0.0)
        first_step = next((s for s in spans if s[0] == "engine.step"), None)
        quantiles = statistics.quantiles(step_ms, n=20) if len(step_ms) >= 2 else [0.0] * 19
        out = {
            "tasks.evaluate_batch.ms_per_gen": per_gen("tasks.evaluate_batch"),
            "tasks.clip_genotype.ms_per_gen": per_gen("tasks.clip_genotype"),
            "tasks.evaluate_batch.warnings_per_gen": counts[("tasks.evaluate_batch", True)] / gens,
            "archive.offer_candidate.ms_per_gen": offer[1] * 1e3 / gens,
            "archive.offer_candidate.calls_per_gen": offer[0] / gens,
            "archive.cell_indices.ms_per_gen": per_gen("archive.cell_indices"),
            "archive.genotype_matrix.ms_per_gen": per_gen("archive.genotype_matrix"),
            "archive.genotype_matrix.rebuilds_per_gen":
                counts[("archive.genotype_matrix", True)] / gens,
            "archive.random_elite.ms_per_gen": per_gen("archive.random_elite"),
            "archive.new_per_gen": offer[2] / gens,
            "archive.improved_per_gen": offer[3] / gens,
            "archive.rejected_per_gen": offer[4] / gens,
            "archive.add_ratio": (offer[2] + offer[3]) / max(offer[0], 1),
            "archive.write_csv.ms_per_run": cli_total["archive.write_csv"] * 1e3 / n_runs,
            "cmaes.ask.ms_per_gen": per_gen("cmaes.ask"),
            "cmaes.tell.ms_per_gen": per_gen("cmaes.tell"),
            "cmaes.should_stop.ms_per_gen": per_gen("cmaes.should_stop"),
            "cmaes.should_stop.calls_per_gen": calls[("cmaes.should_stop", True)] / gens,
            "cmaes.restarts_per_gen": counts[("emitters.finish_generation", True)] / gens,
            "emitters.generate_samples.self_ms_per_gen":
                per_gen("emitters.generate_samples", self_s),
            "emitters.batch_rewards.ms_per_gen": per_gen("emitters.batch_rewards"),
            "emitters.finish_generation.self_ms_per_gen":
                per_gen("emitters.finish_generation", self_s),
            "emitters.activate.ms_per_gen": per_gen("emitters.activate"),
            "emitters.activations_per_gen": calls[("emitters.activate", True)] / gens,
            "scheduler.select.ms_per_gen": per_gen("scheduler.select"),
            "scheduler.record_generation.ms_per_gen": per_gen("scheduler.record_generation"),
            "engine.step.self_ms_per_gen": per_gen("engine.step", self_s),
            "engine.step.ms_p50": statistics.median(step_ms) if step_ms else 0.0,
            "engine.step.ms_p95": quantiles[18],
            "engine.step.first_ms": (first_step[2] - first_step[1]) * 1e3 if first_step else 0.0,
            "engine.initialize.ms": total[("engine.initialize", False)] * 1e3 / n_runs,
            "metrics.snapshot.ms_per_gen": per_gen("metrics.snapshot"),
            "metrics.write.ms_per_run": cli_total["metrics.write"] * 1e3 / n_runs,
            "cli.run_experiment.self_ms_per_run":
                self_s[("cli.run_experiment", False)] * 1e3 / n_runs,
        }
        checks = {
            "generations": len(step_ms),
            "runs": n_runs,
            "step_ms_total": step_total,
            "self_ms_in_step_total": self_in_step,
            "min_self_ms": min_self * 1e3,
        }
        return {"metrics": out, "checks": checks, "self_ms_per_gen": self._self_table(self_s, offer, gens)}

    @staticmethod
    def _self_table(self_s, offer, gens) -> dict:
        """Self time per layer inside ``engine.step``, largest first."""
        table = {name: v * 1e3 / gens for (name, inside), v in self_s.items() if inside}
        table[OFFER] = offer[1] * 1e3 / gens
        return dict(sorted(table.items(), key=lambda kv: -kv[1]))

    def first_step_excess(self) -> dict:
        """Self time of each layer in the first traced generation minus its
        median over the other generations of that run, largest first: where
        a one-off first-generation stall sits."""
        spans = self.spans
        steps = [i for i, s in enumerate(spans) if s[0] == "engine.step"]
        steps = [i for i in steps if spans[i][4] == spans[steps[0]][4]] if steps else []
        if len(steps) < 2:
            return {}
        step_index = {s: k for k, s in enumerate(steps)}
        child_s = self._child_seconds()
        per_step = defaultdict(lambda: [0.0] * len(steps))
        owner = {}
        for idx, (name, start, end, parent, _, _) in enumerate(spans):
            owner[idx] = idx if idx in step_index else owner.get(parent)
            if owner[idx] is None:
                continue
            per_step[name][step_index[owner[idx]]] += (end - start - child_s[idx]) * 1e3
        for parent, agg in self.offers.items():
            if owner.get(parent) is not None:
                per_step[OFFER][step_index[owner[parent]]] += agg[1] * 1e3
        excess = {
            name: values[0] - statistics.median(values[1:]) for name, values in per_step.items()
        }
        return dict(sorted(excess.items(), key=lambda kv: -kv[1]))
