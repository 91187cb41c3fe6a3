"""Golden digests: sha256 of the CSV files of tiny fixed runs.

A refactor that must not change behaviour keeps every digest here.  A
change that alters output bits on purpose re-records the digests it
changes and says why.

Recorded with Python 3.11.7 and numpy 2.4.6 (OpenBLAS 0.3.31, kernel
``SkylakeX``); print the digests of the current code with
``PYTHONPATH=src python tests/test_golden.py``.  The ``map-elites`` runs
involve no LAPACK call.  The runs of the other five variants go
through CMA-ES, whose matmuls and ``np.linalg.cholesky`` (LAPACK
``potrf``) round differently under different OpenBLAS kernels, so these
bytes are fixed per OpenBLAS kernel family.  Measured by forcing
``OPENBLAS_CORETYPE`` on a 2-core AVX-512 machine: ``SkylakeX``,
``Cooperlake`` and ``SapphireRapids`` pass all 24 digests; ``Haswell``,
``Zen``, ``Sandybridge`` and ``Nehalem`` fail the 20 CMA-ES digests and
pass the 4 ``map-elites`` ones.  It was not run on an AVX2 machine, where
OpenBLAS picks ``Haswell`` or ``Zen`` itself.
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
        "8c64006eac887c8c696c262a73d3e89ef7d65dbe8dc238e85f6976a88bd554c9",
        "f39c289b0378f613a0a9e32f60aacb75aa6f9669bb7159628857f4da549502b8",
        "60341491e336aef0c7b34ecb06a985e9b32ef8dfdca9a11b9bb96637b7ac3c32",
    ),
    ("rastrigin_multi", "map-elites"): (
        "4651960eb6c24fa3df8b7888eb6107ef95191eea0d2e18a2cba8ec819a757169",
        "2718e8caf6ae988d65af7713341b2041fdc221d85967eb6b94d47cbac96fc18f",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("rastrigin_multi", "me-map-elites-ucb"): (
        "8247f36595f5b4e3b164b5f84c03d731b373d8c7ea611713ca37b6aab99c8445",
        "6965da71e1c5b70c814674f8f8da27ef958992288734fbc2cbcad522f3ddd77c",
        "b182001b2f66c197a07b38ba992e97489d71732750f011f0aac4a0579587c7cd",
    ),
    ("sphere", "map-elites"): (
        "75af03a1db08049e53fd884635897471ab3adf00dd7f7754a901e6b1b5c44e34",
        "60b33bb5833c630bc6f4856b8e9310944f5f02fb29726cc7adfe29c843c60b58",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("sphere", "me-map-elites-ucb"): (
        "e4faff7ae0c9f4c502a651bad027a5390145db47f2649f670427d965bcbdcf14",
        "9506241f01c4b70042b5a30317d6b09ca2971e7c5d66248761d24f73798fff37",
        "efd2aa6f1ec9e69dc5282a95459b4d858f63c7d3da12c6cc61ec102619e5f0fa",
    ),
    ("redundant_arm", "map-elites"): (
        "b6892efa30b5f843f507932fc1b2e79ea33526f6b2c267d87912bc490418f890",
        "c6959a185419ce0de103519b62acb5c9133db33ac8826b2ae7a6395ccf399894",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("redundant_arm", "me-map-elites-ucb"): (
        "da5a7b7ec0ee9b2b5cbe7e1f856730807901c2afd936a079c76419c353e67403",
        "3f14e45f14e0cc23d9c2a484081509013037632b42da19035373af9e6e700b5f",
        "9f0a996a2fb5aea1fe75c666d63e1557ae9ff1ab0b09d9824845dddcfdeb9b95",
    ),
    ("rastrigin_proj", "me-map-elites-uniform"): (
        "e2752ea7dbc482d3999bb302d6b1dc50d634986db126494cb9213fe33bc014d1",
        "7c04200ef93d3e9197e7f9e3ab9e6ca86a6e2d92e5b98be5a0eb1d7ff1184a0d",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("rastrigin_proj", "cma-me-opt"): (
        "cfd28ffa13d90c88c8448446b5a39d59979cc7ff1f48b16b393e551c450417ff",
        "2446f658b8fe94017ead7873237b2aa1c2ed36137a40980a653d4ce25964554b",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("rastrigin_proj", "cma-me-dir"): (
        "4949d3ab62702553459b85b59cb843d61b0b8186e9a7f9656dd979f31f1b1d47",
        "e658edfef73d045e157fbfd4604bf60564750638f8d4669a4e13c248ae27349b",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("rastrigin_proj", "cma-me-imp"): (
        "a89d3700ae24238b70cbd763a8eea93862afc1969c70acdbd7d60db9a514f001",
        "23760639d0beba04c419f6a14a11d3ee8fdfda2dc851365005981ac0d01d958a",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("rastrigin_multi", "me-map-elites-uniform"): (
        "bfd5b4aeb254c672ba1a6bba80d11605d2bfcfe239151d23526a811e92877558",
        "b6deee1f77ee9f0066de1bbacd81249a18e31379da082a27e6fba1ac7a608c46",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("rastrigin_multi", "cma-me-opt"): (
        "d8b576cdb04779b6fd4c7f8a63fb2dbc4a28ccca918f3bb4f36843ebbaf15d78",
        "fc518e1b2a471cb833a7a1e391c9de170bb106ef7f89ed947d5fbc70b178ca80",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("rastrigin_multi", "cma-me-dir"): (
        "7e004a6c57900f31b99189aee43387c1acb28548a2f8904ebd367c98e086b3f1",
        "cda1e7277a8c297f7b8b08add389f44189b420efddafb2bbc587eb4d52f712e8",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("rastrigin_multi", "cma-me-imp"): (
        "9445393248febb05061cc9e98f2ac21425e842ab31dd114d8858190bacd94514",
        "6c0d194b66ff0f5f9e99688a12d1d38c31ab93b893586ac574a4c36bf2f87226",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("sphere", "me-map-elites-uniform"): (
        "68e4a964d377ab535689495fbcb842c975e4e72e9deb7cb562c5ea2a45d99f34",
        "d380267c9946d9a797b47495746b0cae45c5570564e57392463c9ef9797f736b",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("sphere", "cma-me-opt"): (
        "8bccfe712715f130706a6b7b175766d91c77623deda9059445be828305745656",
        "3113a58d74f0505b38f04eccdd6686f7e6e4e32b78ca978263dfda49f118ebf3",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("sphere", "cma-me-dir"): (
        "d63838012bf4b17edeac12ada9152769136b0fd7be65c15e48ca2df9b0bf4f8d",
        "70b98f9b0eadc52897d621b2672b64974e0e52f551f1a3d782e2d4ac5d42226e",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("sphere", "cma-me-imp"): (
        "f0bcf0290297bf00de17a0fbf004238d9af88a7f346ec6dcf2150aa4f265c581",
        "ae67f818ebcd5a4b0bc295ac6e1f321601a015e5a777091f975af225eb5eeff3",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("redundant_arm", "me-map-elites-uniform"): (
        "5faf6a3b31778b79ba553a19e292f1ab5491b185aec6e03762a2f8bb611874a7",
        "04c90f36150319fdabcd67f1b4753d8bbd833f6a5e2404479aa3d9297e33c243",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("redundant_arm", "cma-me-opt"): (
        "131aabf6830294f8719cae5f10426d9eaf43734f114be01cc7cc55b1a4896e02",
        "28c12c2ece9de0ce69cad960573021531a9ffe0554a9be1e5bec9bcf9a697d56",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("redundant_arm", "cma-me-dir"): (
        "6adf4fe3f76e71285153078073f590385308bb12793476371fb06a0ac49cdac0",
        "cfd536a14503144b81c4b7cb2f9b1e790d0a03fb1bac790a7815368d1e12ef80",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("redundant_arm", "cma-me-imp"): (
        "344556b45a42ba0fcda0a1ff816ded9944af0a4d1c7f834fbbb0aa5d0e281730",
        "6065cf84020d6e63ec9cfddf8849df34596865d334a5c1725602281e02b41205",
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
