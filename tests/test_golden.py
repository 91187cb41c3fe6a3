"""Golden digests: sha256 of the CSV files of tiny fixed runs.

A refactor that must not change behaviour keeps every digest here.  A
change that alters output bits on purpose re-records the digests it
changes and says why.

Recorded with Python 3.11.7 and numpy 2.4.6 (OpenBLAS); print the
digests of the current code with ``PYTHONPATH=src python
tests/test_golden.py``.  The ``map-elites`` runs involve no LAPACK call.
The runs of the other five variants go through CMA-ES, whose
``np.linalg.cholesky`` (LAPACK ``potrf``) and ``np.linalg.solve``
(``gesv``) calls, like its matmuls, may round differently on another
BLAS/LAPACK build.
"""

import hashlib

import pytest

from qdpool.engine import VARIANT_NAMES, RunConfig, run
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
        "1cee018ba71729ae8a5380da862990f8cc1a9c44efbad8874455dcfb969f44d8",
        "a3f1f93a4b7af5d6220cbf73016e14916edc30acce517c420a121e72aa62cec9",
        "60341491e336aef0c7b34ecb06a985e9b32ef8dfdca9a11b9bb96637b7ac3c32",
    ),
    ("rastrigin_multi", "map-elites"): (
        "4651960eb6c24fa3df8b7888eb6107ef95191eea0d2e18a2cba8ec819a757169",
        "2718e8caf6ae988d65af7713341b2041fdc221d85967eb6b94d47cbac96fc18f",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("rastrigin_multi", "me-map-elites-ucb"): (
        "55b466e733f6a7f4fe36a0b3fcfeb51c1a082a491251a9443ec533e9753f4af3",
        "4b0cca3552fd5a59c411cd33b1bb7f05274369750d21d4c5dc2d375b402b6449",
        "b182001b2f66c197a07b38ba992e97489d71732750f011f0aac4a0579587c7cd",
    ),
    ("sphere", "map-elites"): (
        "75af03a1db08049e53fd884635897471ab3adf00dd7f7754a901e6b1b5c44e34",
        "60b33bb5833c630bc6f4856b8e9310944f5f02fb29726cc7adfe29c843c60b58",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("sphere", "me-map-elites-ucb"): (
        "5f98c0f500d99e13d73fdcec9812558de9e8f270997acb4eccf34fe6c375aa18",
        "5ab5e9f470be4ae3fbf0e6ee234186caf95aa5435ea84cf7eabca03f353b8e46",
        "efd2aa6f1ec9e69dc5282a95459b4d858f63c7d3da12c6cc61ec102619e5f0fa",
    ),
    ("redundant_arm", "map-elites"): (
        "b6892efa30b5f843f507932fc1b2e79ea33526f6b2c267d87912bc490418f890",
        "c6959a185419ce0de103519b62acb5c9133db33ac8826b2ae7a6395ccf399894",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("redundant_arm", "me-map-elites-ucb"): (
        "1393f32a8168720c1ecdd65625b25df68a47d625b38b2bc9353bb8c292408ff5",
        "b25145b3c83f276e7ec4cd88302b852ff127f8144aa7d176c2b4691120db54d6",
        "9f0a996a2fb5aea1fe75c666d63e1557ae9ff1ab0b09d9824845dddcfdeb9b95",
    ),
    ("rastrigin_proj", "me-map-elites-uniform"): (
        "2ed877e7ec26f9ccd52d77a1499d58ad823e89936f1a72e07772b47344ffb486",
        "b3c684f78d202c029f2f76c6fc5a4b8c1b214e6cc00596ee9784d07ede9458c1",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("rastrigin_proj", "cma-me-opt"): (
        "cfd28ffa13d90c88c8448446b5a39d59979cc7ff1f48b16b393e551c450417ff",
        "d30ca1ae7b8d18c2da5a8616f67515f6effe116c5936415d1ea268eed07e92d8",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("rastrigin_proj", "cma-me-dir"): (
        "4949d3ab62702553459b85b59cb843d61b0b8186e9a7f9656dd979f31f1b1d47",
        "920d9b6a4f576a77f882ecb76985cfefdf876452c61af16dcdb49d41d89927e1",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("rastrigin_proj", "cma-me-imp"): (
        "91c10bbc74ed565176a273f1dcc79a2b4d0d4ad40bcf9e95042854fae7dc2dfd",
        "b9f51f2e174fe89fd5bccef614805d4fb7588740b997c04ca14d58682edf5c9e",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("rastrigin_multi", "me-map-elites-uniform"): (
        "7bca9ea41bc3b6d6d94b935ca51f165ea36bac21bdec365182433f7f193e5236",
        "a11e584fa29a3df8090e63224e62695556a517a0432304a8c6a1deffa6eaf91a",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("rastrigin_multi", "cma-me-opt"): (
        "a662d9f3bad92e7bb4404e0134cea47d30be824f1da98c6c9ccb09b45c5a3e65",
        "2d4b688e77f115506b8f5cdccc4d443e374f2e289073d2628a8f688a2e1e8a9d",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("rastrigin_multi", "cma-me-dir"): (
        "932e6371f1e70db7d52fe71c9e9e84f2865bba7041ea72cb78162b188eb8f054",
        "fe09eb4f8d34725c5ea58e5e1eb6668f75a2f23a1569d44436e4f18aaaaaf479",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("rastrigin_multi", "cma-me-imp"): (
        "18cd373dc1c59b49874febd5969d1b16030e514f0b2c6b1dbf7a7c061048148e",
        "d677361b31ff3478645d57e07f597ea681c73eb83ef3500fe63da2d749f8c4bf",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("sphere", "me-map-elites-uniform"): (
        "c2e301c8242b449d830da156472e71da586b13adc4954f61baa8d1d7729efe15",
        "94baab78aa072adae0985e00e2408f7ced99f0b896fd3b360b3355a4208d4070",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("sphere", "cma-me-opt"): (
        "8bccfe712715f130706a6b7b175766d91c77623deda9059445be828305745656",
        "f76e0c3eafdcf229977b685b3eafcb1df5532a9a65dae01cddf32d023a1e6b46",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("sphere", "cma-me-dir"): (
        "d63838012bf4b17edeac12ada9152769136b0fd7be65c15e48ca2df9b0bf4f8d",
        "f83c8eabc61173325cbb82b855f3d64a01db1cbbf02e67f37af70ff718aefe6a",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("sphere", "cma-me-imp"): (
        "8b5fd3373df4bebd813ce850039822f845624f16921a6747441119a92438c6a9",
        "52a1677312a0d786bd292520882cc5788cbd4aef10d1f137cff28fea9c2b3b09",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("redundant_arm", "me-map-elites-uniform"): (
        "fab1996be9d06ab1c354e8440bf3be2497aefd52994b87fe71bb928a4dff230c",
        "15b3a7e20821fb1fd64b9b0ffe5de13d785f1052296a5fcb7e493d7fb327dec5",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("redundant_arm", "cma-me-opt"): (
        "529b635e1a9fe4341aeab97908709b03d45c3da1308e90058475b66b9f60c545",
        "decac546d9b68c91c0eb4096dbededee4c81186e9bb53e031dc1c23a229faf85",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("redundant_arm", "cma-me-dir"): (
        "503be211d4d9c455d64a5b6e3c91ebeaa1701a12758f8c360d3ab91b29691868",
        "ae714f25ee1260d686a508b53f3510b4a7393fe18429cb5f764ada035568b879",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("redundant_arm", "cma-me-imp"): (
        "29819747d501e7a91372531fa35fc1c3d918e3ff0b4b25bed1e6027b50aae614",
        "4726a1de4dcabe05a5cee9700badfac6f8f92f8465c610e1e52a41e15a2b2b47",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
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


@pytest.mark.parametrize("variant", VARIANT_NAMES)
@pytest.mark.parametrize("task_name", TASK_NAMES)
def test_golden_digests(task_name, variant, tmp_path):
    write_tree(task_name, variant, tmp_path)
    assert digests(tmp_path) == GOLDEN[(task_name, variant)]


if __name__ == "__main__":
    # Prints the GOLDEN dict for the current code, in the order above, so
    # that re-recording is one command whose diff can be reviewed:
    #   PYTHONPATH=src python tests/test_golden.py
    import itertools
    import tempfile
    from pathlib import Path

    cases = list(GOLDEN)
    cases += [c for c in itertools.product(TASK_NAMES, VARIANT_NAMES) if c not in GOLDEN]
    print("GOLDEN = {")
    print("    # (task, variant): (metrics.csv, archive.csv, emitter_mix.csv)")
    for task_name, variant in cases:
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(task_name, variant, Path(tmp))
            print(f'    ("{task_name}", "{variant}"): (')
            for digest in digests(Path(tmp)):
                print(f'        "{digest}",')
            print("    ),")
    print("}")
