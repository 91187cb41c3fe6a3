"""Golden digests: sha256 of the CSV files of tiny fixed runs.

A refactor that must not change behaviour keeps every digest here.  A
change that alters output bits on purpose re-records the digests it
changes and says why.

Recorded with Python 3.11.7 and numpy 2.4.6.  The ``map-elites`` runs
involve no LAPACK call; the runs of the other five variants go through
``np.linalg.eigh`` in CMA-ES and may differ on another BLAS/LAPACK build.
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
    ("rastrigin_proj", "me-map-elites-uniform"): (
        "8b5ba73bfa9519066c36088ecf629d6a35cbb1b14caa972a06aa33b762e28758",
        "7b91c4e88daff9d204c86088c851be3c59a294d015e67da38983cce34fc59a24",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("rastrigin_proj", "cma-me-opt"): (
        "6e62b7e51d543963c209a771d9248fdd12e2c310540b974dfd8b337fadc53ab6",
        "b6c242e4a3f9eac4db48d0ecbf52a0835290077680274d6d7cf770b3d7d1fa85",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("rastrigin_proj", "cma-me-dir"): (
        "e766333987134d577e954ed73cc480193db395a527a24c6d5e77156acdb33659",
        "8213a3a72445a0eb71fd113ba175dc9565bc7b3704e11f152c9925003d9794c0",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("rastrigin_proj", "cma-me-imp"): (
        "8d60c054f8b6730b65a7fb889ac5dc211dbc8419c312b48d4fcad7cac7ef5558",
        "6970b9c10302e0fca1fd4f014dce8bc9bbea80904b76597f0f328dcfc564496d",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("rastrigin_multi", "me-map-elites-uniform"): (
        "94158c4d8ae5c13b93325d87299d1b150467a8d61d26f5ca4fbb0c0a8b20aac1",
        "f9649e48a9685721d9d756834e07dfd84ecff82c42936101ea5c40ec6affb9fa",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("rastrigin_multi", "cma-me-opt"): (
        "04fd8fe2d8547cb0d02c3ec24da7b381cf54908578c5da03010ee4d6181bf2d5",
        "fb945c0885eb784141bf8649338f1a70792a3564ec1c366e6a791de927f28cc8",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("rastrigin_multi", "cma-me-dir"): (
        "c3646e606b41aa7403e86b92a2894efda6d3cf12a18f2ee2837fb456db0ea370",
        "a87a1d09d62ec7f6f740e687d8f81f4c372aff243d643fa273ee5b88ee37b9c1",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("rastrigin_multi", "cma-me-imp"): (
        "2d86d38fcc515c1569582ae5899880ccbf3daf2de5ec71dd310e22ac92956934",
        "e4efc72c420306a724676e0c4eafeeb69410fef38093abf04fbb58f527a95641",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("sphere", "me-map-elites-uniform"): (
        "cc80588535479e86191c641bdbd6fda149cd2ad4048a417c924b781699cb8e82",
        "27615ddf9663682089837f2efda16553de2e2858e9c124733d507bee766d118d",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("sphere", "cma-me-opt"): (
        "898cc28b74de30c2c46b883129ab36b212d32423ba4c23bd28c08903bbe6fa44",
        "0d7c491986a0c9e4421136b64dd4a7d5dbc288ea83da0cdf1af663464d6f69bf",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("sphere", "cma-me-dir"): (
        "6c8a513eb8803dedfb469919b6887332e2cb542038b361048e8ee645e5c55bea",
        "f841e7109a8175c886a174ed3c18be9426d51cf1bcaade92c570d4479bf775e2",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("sphere", "cma-me-imp"): (
        "aeaf72c5f3eccb918048f2ecad0ddccf1bd737d22ce90085428cb4eee50c11df",
        "8d4fb9391dce1524739a50a7e91913df48f7aadac8ae6c7cacbe35351261c4de",
        "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
    ),
    ("redundant_arm", "me-map-elites-uniform"): (
        "1be869922c8ab7a741cbfde1ff3ef7a02fc6b0edcc6434a4f956e6650ceb0089",
        "b8b96040a8869d770aa4e94c0d3de2e7fc93de49b788b3b8deae96d536a7e341",
        "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
    ),
    ("redundant_arm", "cma-me-opt"): (
        "345ce53dfb9f163f30b8f56f2ab84268fc34222437a7e8bac1f67b0b71074fb8",
        "58dfb627668f0558f69c7c1ad40370d1eefdd12a27140e8ff57b3e8abf39edfd",
        "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
    ),
    ("redundant_arm", "cma-me-dir"): (
        "1683ad6c0cd40df6e22e965b029630c56b145346fed1bd3c6230c3984ae108e4",
        "013c270907fa222e79b9ea38e19126ebe24d3b18d856739935822654c1ed1144",
        "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
    ),
    ("redundant_arm", "cma-me-imp"): (
        "6e3e19cef46b9974e32977f36ad812b31a986714b4a3a216560d61dc59201e37",
        "f77a6c2f331e798c3a961a7f19a2fc2abe2a29b20a5eb5fed0419481d0c7db03",
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
