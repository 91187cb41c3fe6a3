"""Golden digests: sha256 of the CSV files of tiny fixed runs.

A refactor that must not change behaviour keeps every digest here.  A
change that alters output bits on purpose re-records the digests it
changes and says why.

Recorded with Python 3.11.7 and numpy 2.4.6.  The ``map-elites`` runs
involve no LAPACK call; the ``me-map-elites-ucb`` runs go through
``np.linalg.eigh`` in CMA-ES and may differ on another BLAS/LAPACK build.
"""

import hashlib

import pytest

from qdpool.engine import RunConfig, run
from qdpool.metrics import write_emitter_mix_csv, write_metrics_csv
from qdpool.tasks import TASK_NAMES, make_task

FILES = ("metrics.csv", "archive.csv", "emitter_mix.csv")

GOLDEN = {
    # (task, variant): (metrics.csv, archive.csv, emitter_mix.csv)
    ("rastrigin_proj", "map-elites"): (
        "e5bb0854ad9523aacc9b8d043a9472e9a010c681c5c436488776d64ba90d9aed",
        "347864eac7b7907e00eb1d7c81c5df9d746aa9208cc854bce83652ad906317ef",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("rastrigin_proj", "me-map-elites-ucb"): (
        "598bf4e9b5526743edb99794b269ee053a51834c6749dd4ec5a444f7dbbd861a",
        "9d208928f41c0dbbe15b0b2bdcc0caefa1b15a86cb9fd2580956eba094fd345f",
        "c91b06f0c67d0d723b63b27a71e03462c4ecf805aa48063928ab4d80bae4cf9b",
    ),
    ("rastrigin_multi", "map-elites"): (
        "4651960eb6c24fa3df8b7888eb6107ef95191eea0d2e18a2cba8ec819a757169",
        "2718e8caf6ae988d65af7713341b2041fdc221d85967eb6b94d47cbac96fc18f",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("rastrigin_multi", "me-map-elites-ucb"): (
        "536782101888b585c3acca49dacd6a0d261edadf0a5c51d380506c9f4054d2d5",
        "b258551414efe7f860cb52a9f3e1169c11c45ebbe65e193488f0a44b382932af",
        "2003e44e55112cd5da4a5bd12dd59a3bf8a32c53a505a46d64ce13f171960938",
    ),
    ("sphere", "map-elites"): (
        "75af03a1db08049e53fd884635897471ab3adf00dd7f7754a901e6b1b5c44e34",
        "60b33bb5833c630bc6f4856b8e9310944f5f02fb29726cc7adfe29c843c60b58",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("sphere", "me-map-elites-ucb"): (
        "e5519081d2aa72a866d397f582e26fa7c20111996565817f15c321cc630fcea8",
        "0b2c1fee9c6e2291b778c6c3e729d72e694fb1811c4ee782378bd5527a6fe1de",
        "a9718e04ed2e7da3e12c5bb702848ecaa73efd66ef6618ce6374e9647f2e74a8",
    ),
    ("redundant_arm", "map-elites"): (
        "b6892efa30b5f843f507932fc1b2e79ea33526f6b2c267d87912bc490418f890",
        "c6959a185419ce0de103519b62acb5c9133db33ac8826b2ae7a6395ccf399894",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("redundant_arm", "me-map-elites-ucb"): (
        "fb22b85534e9fd454326aa4ca53b9c0b4300d8f69b5e6edcca96230bb8e9e7aa",
        "4a327d2de9eca81f6751e31098f8131b5bd4c46813ce5d526ab91979ac7035e3",
        "b9887d1a79ee153f9fb6e252cba10d9bc90b66a490b9ca753fb25d9a493cd834",
    ),
}


def write_tree(task_name, variant, out_dir):
    result = run(
        RunConfig(
            task=make_task(task_name, dim=6, resolution=10),
            variant=variant,
            generations=100,
            slots=4,
            batch_per_emitter=8,
            init_samples=20,
            seed=7,
            metrics_every=5,
        )
    )
    write_metrics_csv(result.records, out_dir / "metrics.csv")
    result.archive.write_csv(out_dir / "archive.csv")
    write_emitter_mix_csv(result.kind_series, out_dir / "emitter_mix.csv")


def digests(out_dir):
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in FILES)


@pytest.mark.parametrize("variant", ["map-elites", "me-map-elites-ucb"])
@pytest.mark.parametrize("task_name", TASK_NAMES)
def test_golden_digests(task_name, variant, tmp_path):
    write_tree(task_name, variant, tmp_path)
    assert digests(tmp_path) == GOLDEN[(task_name, variant)]
