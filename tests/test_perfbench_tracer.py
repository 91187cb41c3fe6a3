"""Guard for the benchmark's span tracer: ``perfbench/tracer.py`` looks up
qdpool classes, methods and module attributes by name, so renaming or
removing one of them breaks the traced benchmark mode.  This installs the
tracer, runs a tiny UCB run and a tiny uniform run, and checks that the
central spans were recorded and that uninstalling puts every original
back.  The restart criteria are evaluated only inside ``tell``, through
the public ``should_stop``, so every ``cmaes.should_stop`` span must nest
in a ``cmaes.tell`` span; the per-layer ``cmaes.should_stop.*`` metrics
measure nothing if ``tell`` reaches them some other way."""

import importlib.util
from pathlib import Path

from qdpool import engine
from qdpool.archive import Archive
from qdpool.tasks import make_task

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_spans_and_uninstall_restores_originals():
    tracer_module = load_tracer_module()
    targets = [(owner, attr) for _, owner, attr in tracer_module._TARGETS]
    targets.append((Archive, "offer_candidate"))
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in targets}

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for variant in ("me-map-elites-ucb", "me-map-elites-uniform"):
            engine.run(
                engine.RunConfig(
                    task=make_task("sphere", dim=4, resolution=5),
                    variant=variant,
                    generations=6,
                    slots=4,
                    batch_per_emitter=4,
                    init_samples=20,
                    seed=7,
                    metrics_every=3,
                )
            )
    finally:
        tracer.uninstall()

    names = {span[0] for span in tracer.spans}
    assert {"engine.step", "cmaes.tell", "emitters.finish_generation"} <= names
    assert tracer.run == 2
    checks = [span for span in tracer.spans if span[0] == "cmaes.should_stop" and span[4] == 1]
    assert checks, "the ucb run recorded no cmaes.should_stop span"
    assert all(tracer.spans[span[3]][0] == "cmaes.tell" for span in checks)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"


def test_the_tracer_still_counts_cmaes_restarts():
    """``cmaes.restarts_per_gen`` counts the exhausted CMA-ES emitters
    through ``_CmaesEmitter.finish_generation``, which each family's
    ``update_batch`` calls; a UCB run restarts some of them."""
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        engine.run(
            engine.RunConfig(
                task=make_task("sphere", dim=4, resolution=5),
                generations=20,
                slots=4,
                batch_per_emitter=4,
                init_samples=20,
                seed=7,
            )
        )
    finally:
        tracer.uninstall()
    assert tracer.layers()["metrics"]["cmaes.restarts_per_gen"] > 0
