"""Golden digests: sha256 of the CSV files of tiny fixed runs.

A refactor that must not change behaviour keeps every digest here.  A
change that alters output bits on purpose re-records the digests it
changes and says why.

Recorded with Python 3.11.7, numpy 2.4.6 (OpenBLAS 0.3.31) and glibc
2.36 (:data:`RECORDED_WITH`), whose libm gives the ``cos`` and ``sin``
bits that the rastrigin and redundant_arm digests rest on.  The
``map-elites`` runs involve no BLAS or LAPACK call, so one set of their
digests, ``MAP_ELITES``, holds under every OpenBLAS kernel.  The runs of
the other five variants go through CMA-ES, whose matmuls and
``np.linalg.cholesky`` (LAPACK ``potrf``) round differently under
different kernels, so their bytes are fixed per OpenBLAS kernel family:
``CMA_ES`` holds one set per family, picked by the core name that the
loaded OpenBLAS reports (``KERNEL_FAMILIES``; ``tests/blas_kernel.py``
reads it, and the header of every test log prints it).

The sets were recorded on a 2-core AVX-512 machine, whose OpenBLAS picks
``SkylakeX``, by forcing each kernel with ``OPENBLAS_CORETYPE``:

* ``SkylakeX``; forcing ``Cooperlake`` or ``SapphireRapids`` there runs
  ``SkylakeX`` too, as the reported core name shows (the AVX-512 family);
* ``Haswell``; forcing ``Zen`` runs ``Haswell`` (the AVX2 family);
* ``Sandybridge`` and ``Nehalem``, each a family of its own.

Each family's CMA-ES set differs from every other's.  ``Prescott`` runs a
kernel named ``Katmai``, which has no set.  A kernel without a set fails
the CMA-ES digests.  A missing or differing set fails naming the
running OpenBLAS kernel, numpy and C library beside those recorded.
Print the digests of the current code
under the running kernel with ``PYTHONPATH=src python tests/test_golden.py``
(prefix ``OPENBLAS_CORETYPE=<kernel>`` to force one).  No set was recorded
on an AVX2 machine, where OpenBLAS picks ``Haswell`` by itself; the test of
forced kernels checks the set of every family older than the running one,
as far as the machine at hand runs them.

``SWEEP`` pins the files that only a ``qdpool run`` sweep writes,
``summary.csv`` and each variant's ``aggregate.csv``, for a tiny
``map-elites`` sweep, so one set holds under every kernel.
"""

import contextlib
import hashlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blas_kernel import openblas_corename
from qdpool import cli
from qdpool.engine import VARIANT_NAMES, RunConfig, run
from qdpool.metrics import write_emitter_mix_csv, write_metrics_csv
from qdpool.tasks import TASK_NAMES, make_task

FILES = ("metrics.csv", "archive.csv", "emitter_mix.csv")

# OpenBLAS core name -> its kernel family, oldest first: a CPU that runs a
# family's kernel runs the kernels of every family before it too
KERNEL_FAMILIES = {"Nehalem": "Nehalem", "Sandybridge": "Sandybridge", "Haswell": "AVX2", "SkylakeX": "AVX-512"}

# what every digest set below was recorded with, besides its kernel
RECORDED_WITH = "numpy 2.4.6, C library glibc 2.36"

MAP_ELITES = {
    # (task, variant): (metrics.csv, archive.csv, emitter_mix.csv)
    ("rastrigin_proj", "map-elites"): (
        "e5bb0854ad9523aacc9b8d043a9472e9a010c681c5c436488776d64ba90d9aed",
        "347864eac7b7907e00eb1d7c81c5df9d746aa9208cc854bce83652ad906317ef",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("rastrigin_multi", "map-elites"): (
        "4651960eb6c24fa3df8b7888eb6107ef95191eea0d2e18a2cba8ec819a757169",
        "2718e8caf6ae988d65af7713341b2041fdc221d85967eb6b94d47cbac96fc18f",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("sphere", "map-elites"): (
        "75af03a1db08049e53fd884635897471ab3adf00dd7f7754a901e6b1b5c44e34",
        "60b33bb5833c630bc6f4856b8e9310944f5f02fb29726cc7adfe29c843c60b58",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
    ("redundant_arm", "map-elites"): (
        "b6892efa30b5f843f507932fc1b2e79ea33526f6b2c267d87912bc490418f890",
        "c6959a185419ce0de103519b62acb5c9133db33ac8826b2ae7a6395ccf399894",
        "019f5ceea4557a8d6f8408262edc35de351799f81ef66dc51613a7097e204d93",
    ),
}

# `qdpool run` arguments of the sweep whose files SWEEP pins; four
# replications, so that every quartile of aggregate.csv interpolates
SWEEP_ARGS = [
    "run", "--task", "rastrigin_multi", "--dim", "6", "--resolution", "10", "--variant", "map-elites",
    "--replications", "4", "--generations", "40", "--slots", "4", "--batch", "8",
    "--init-samples", "20", "--metrics-every", "5", "--seed", "7",
]

SWEEP_FILES = ("summary.csv", "rastrigin_multi/map-elites/aggregate.csv")
SWEEP = {
    # path under --out: digest
    "summary.csv": "1057fc0b9b207d4f21cdaa11d8a511b90fa769ae2e17adbeda48bb2bbf440a8f",
    "rastrigin_multi/map-elites/aggregate.csv": "72bac431a80ab9d10b992fb72739cb12c8d344d473e8c6edf3178b1cc2b5be3f",
}

CMA_ES = {
    "AVX-512": {
        ("rastrigin_proj", "me-map-elites-ucb"): (
            "8c64006eac887c8c696c262a73d3e89ef7d65dbe8dc238e85f6976a88bd554c9",
            "f39c289b0378f613a0a9e32f60aacb75aa6f9669bb7159628857f4da549502b8",
            "60341491e336aef0c7b34ecb06a985e9b32ef8dfdca9a11b9bb96637b7ac3c32",
        ),
        ("rastrigin_multi", "me-map-elites-ucb"): (
            "8247f36595f5b4e3b164b5f84c03d731b373d8c7ea611713ca37b6aab99c8445",
            "6965da71e1c5b70c814674f8f8da27ef958992288734fbc2cbcad522f3ddd77c",
            "b182001b2f66c197a07b38ba992e97489d71732750f011f0aac4a0579587c7cd",
        ),
        ("sphere", "me-map-elites-ucb"): (
            "e4faff7ae0c9f4c502a651bad027a5390145db47f2649f670427d965bcbdcf14",
            "9506241f01c4b70042b5a30317d6b09ca2971e7c5d66248761d24f73798fff37",
            "efd2aa6f1ec9e69dc5282a95459b4d858f63c7d3da12c6cc61ec102619e5f0fa",
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
    },
    "AVX2": {
        ("rastrigin_proj", "me-map-elites-ucb"): (
            "7952704e9147ccaf928e8b23227cabc2bafd375434674856cdb7692ca32865d9",
            "f4fe9bd3403ce66f8da844afcee24425b2dcf42f62248202fbbe606e67b22d73",
            "60341491e336aef0c7b34ecb06a985e9b32ef8dfdca9a11b9bb96637b7ac3c32",
        ),
        ("rastrigin_multi", "me-map-elites-ucb"): (
            "25510cb0aa3c9712306a4b181797de28cbce467a20e935491903ebc2888c3cfc",
            "dfd30ac692e09bbd5f0738bb7273df2f8e46a4018af62f615378cb4bfb765344",
            "b182001b2f66c197a07b38ba992e97489d71732750f011f0aac4a0579587c7cd",
        ),
        ("sphere", "me-map-elites-ucb"): (
            "34db76a8d661b93eecb1bb6499184875f31b7190db543906d322886042594f63",
            "cb4fa59a0eac820512d78c31534a4319fefc5d0938d7ec108582157d6106eac5",
            "efd2aa6f1ec9e69dc5282a95459b4d858f63c7d3da12c6cc61ec102619e5f0fa",
        ),
        ("redundant_arm", "me-map-elites-ucb"): (
            "fc61ffe8648d34600bd96da62ca6622a18fa48bda3dae7a518fe45928fe9f8ee",
            "9e3415c9f21f76b487ab9a4f9e00e0ae58711e8d8225adebe7af0194dcb57f5d",
            "9f0a996a2fb5aea1fe75c666d63e1557ae9ff1ab0b09d9824845dddcfdeb9b95",
        ),
        ("rastrigin_proj", "me-map-elites-uniform"): (
            "c09a55f001fd462788df8c4be963acb9333f639f9657eea474b125d4f82f8f41",
            "30b9414b08c52dd82990cbebaabcd6e50a88870ed4996cc8be41e29a40ee0c5c",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("rastrigin_proj", "cma-me-opt"): (
            "cfd28ffa13d90c88c8448446b5a39d59979cc7ff1f48b16b393e551c450417ff",
            "532ee263370b38adbf89d093ce94a83b1607a5a032fb178e94096c29576697c8",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("rastrigin_proj", "cma-me-dir"): (
            "4949d3ab62702553459b85b59cb843d61b0b8186e9a7f9656dd979f31f1b1d47",
            "52863b05e823863661d6f0ea722119d2d621f125ad3bfbc4bc83c4c30e896d4f",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("rastrigin_proj", "cma-me-imp"): (
            "9e6e799eb61cdbf9f05696280258ecedcfb99a044496e704dc5a2040bfed9dbc",
            "7783684c67fb2ab561284f9b2b5443b35cfccdf0efab9d5a175c4016ec9ddc25",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("rastrigin_multi", "me-map-elites-uniform"): (
            "0c5bd8b49d86043e5959d97b824b144f356013a3be7e8fea46abae9b584b552b",
            "b2620b6909a2c9676cf9c230f16b01821a0b0ec17a953c0a915cf78076965e48",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("rastrigin_multi", "cma-me-opt"): (
            "a3292c172ba0eec7bcd10bc992491376fd793ed6f562c6ee834e5eb398e5cda8",
            "d05b9e5fd0188ba4897a8af2b795ba8e446c35f86629663cda8508e4d007f6b1",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("rastrigin_multi", "cma-me-dir"): (
            "9d37730fe339a708dca15ce3a433568adce2f5c686d1f5a2fec2b181479ba0cd",
            "2c6c3d89bc871d33f3277102bf3f9c775e36c061c773469dab1a2f09271335d5",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("rastrigin_multi", "cma-me-imp"): (
            "91cec2f9197b5e9b5417a00e861cac04e9ce37254aeca9fa9bee1fdf4632a34d",
            "9df88a25bd4fedb200c8f32a08f2e8070e7e2a53addbce0f80ddcfb7cd3b0466",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("sphere", "me-map-elites-uniform"): (
            "5064c70001be012f1a3ae640894b89d1fff13f4d305c3b1cff160159847fe5a6",
            "6ecb4a47286843ede6573f7a4c238fdf28de3dfc446d60f38ddaf3cdaab3a5e6",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("sphere", "cma-me-opt"): (
            "8bccfe712715f130706a6b7b175766d91c77623deda9059445be828305745656",
            "8a045bb0af8f1a7408ab39ebb4021a248152aef2a7f63800877be5d597ee099b",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("sphere", "cma-me-dir"): (
            "d63838012bf4b17edeac12ada9152769136b0fd7be65c15e48ca2df9b0bf4f8d",
            "ff18a165255ecad487b074d06e9168c0318527aec9c1b87ad8e119618006d693",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("sphere", "cma-me-imp"): (
            "aa27311367dae2a3d59ef7f691bb851d26e3652c22e29973a3207a0f4a63a1e3",
            "34e860108f780cdfb03ea37f607daf4ee4865f3ecf94fdb52e9a1da2f859a2aa",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("redundant_arm", "me-map-elites-uniform"): (
            "690c22f0eb5fffa150ad39d9eaea4a121c4ef11eef3dd50f9e090ae5c4ea29be",
            "cd80acc47bff53429a89ad17084a6f9a0ca52eb5e644d87d29fe2e9edc573fda",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("redundant_arm", "cma-me-opt"): (
            "7a95f97e3a33da08b723c8c7602ce85fcb59c35e2c3094cfbc8a90bb4b7d5a57",
            "6881c1e61586267c1f322c4e54d61e376d3ae584ae441700f935260a96cb98c7",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("redundant_arm", "cma-me-dir"): (
            "6adf4fe3f76e71285153078073f590385308bb12793476371fb06a0ac49cdac0",
            "5544a1bfd1e0d22832d3aa7b27774c5d6997829a32f2b266c05718750eccd732",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("redundant_arm", "cma-me-imp"): (
            "12a233473c78e9667cd98a75fa122ab4c11e4f332d4d746c4c9885659df3400b",
            "59a2af7c96ff9026043f54600ee2c35aad5764487aa9b359eb46e665946c34fc",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
    },
    "Sandybridge": {
        ("rastrigin_proj", "me-map-elites-ucb"): (
            "5a3b5c1141f93cf1d1df7018dacca8bb77ad324464fbd58c7910dd1fb3602891",
            "665583fc11d07efa790ea1dbcc9cd7422c89ad045aaf3cb5ec6ae03ec1a83233",
            "60341491e336aef0c7b34ecb06a985e9b32ef8dfdca9a11b9bb96637b7ac3c32",
        ),
        ("rastrigin_multi", "me-map-elites-ucb"): (
            "f36b11ad4ecb78c6fed6226e53243e3e0c65bd4f7bcedbd0471802a5ecfdfe93",
            "537d613abfbee220600b44961c70408db44e1547fc02190fdaa28c2eecd06cab",
            "b182001b2f66c197a07b38ba992e97489d71732750f011f0aac4a0579587c7cd",
        ),
        ("sphere", "me-map-elites-ucb"): (
            "8a14e40fd415075bcc75ba011709422e2ba565cfb9af2054712ef7a19e4cea0a",
            "81066c9de3720d63c7ab98ba228addc10ca66d4f2c59c4dc6548dc5f139df67e",
            "efd2aa6f1ec9e69dc5282a95459b4d858f63c7d3da12c6cc61ec102619e5f0fa",
        ),
        ("redundant_arm", "me-map-elites-ucb"): (
            "a60a4355be6813b35f304941bcb8a189d83f087cc05ed770698277e301860bc9",
            "0878be17923830d674a04a69e85cf8f6f2843964d7e582fa8012f950e9ad0fae",
            "9f0a996a2fb5aea1fe75c666d63e1557ae9ff1ab0b09d9824845dddcfdeb9b95",
        ),
        ("rastrigin_proj", "me-map-elites-uniform"): (
            "46cd3e005653efa19ba3a73fb3d374dd29322508c6e0f997471d80482a4e7967",
            "7d808a7dc2cb37ff1b15b2bf1a4578b9fb8b3a137ccf134cb27c4b98acd9b0f2",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("rastrigin_proj", "cma-me-opt"): (
            "cfd28ffa13d90c88c8448446b5a39d59979cc7ff1f48b16b393e551c450417ff",
            "319533f12abf20c002583bf692834704b8439679a899c65d684baa8746df2689",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("rastrigin_proj", "cma-me-dir"): (
            "4949d3ab62702553459b85b59cb843d61b0b8186e9a7f9656dd979f31f1b1d47",
            "9e8d4d98663d1eba5f25b7a0e25f3523b0e7cfd7a4ce4b073dc5cfbb87813512",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("rastrigin_proj", "cma-me-imp"): (
            "03861d413a4ebf6c151d34f805a1449f8c64069f396a72ddd03b6f44088940ba",
            "440c73973ecd6263df6d78ee7a671a63c2007c999fa277a75f6a3a7ba64bce59",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("rastrigin_multi", "me-map-elites-uniform"): (
            "f57b172d2670f1176b7f84f8e098667e93eb20c3ec159c9dc8b91683a1f21d6f",
            "8c643e6de5f0192b6365e32112415c41206ac0da6ed0da0951501528c29f8e1a",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("rastrigin_multi", "cma-me-opt"): (
            "78413d91169d6d8c96a7ad922591574608470cda550452e9ca1e11191f47efde",
            "d08e0444ee2b4ac4a85d22b6a27d96e5531997d114019cf6432db65a0f6daa13",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("rastrigin_multi", "cma-me-dir"): (
            "d64fe0393b1f7ac0e767dcc80097d8a60f6cc9946b872321174b1986422b317a",
            "82c72bcc08c2ba37190ecff385be2f2b38706dd7de4e469c49f6ea1f7a29dacf",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("rastrigin_multi", "cma-me-imp"): (
            "61c826f2c04968c06e3ad15227028122a096ca2fdabfe07ea63c723265bf2885",
            "f230d976123f883a7a46764a4d310e344c1fa60cb88775a0e804899850bad46f",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("sphere", "me-map-elites-uniform"): (
            "7b9b9dfe9d483d7ff812b89cb85ad11ae39ee78c633ebf79540a5d17440016d8",
            "bfdb6c5341d9e85f280e88b6ffff82ce2cb0be6ebb29ae22c06576e58c0493cf",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("sphere", "cma-me-opt"): (
            "8bccfe712715f130706a6b7b175766d91c77623deda9059445be828305745656",
            "2536e5d8f6ac8deac242c5020b3cbe80f6e11bf211f2c3748f71eef7506cf456",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("sphere", "cma-me-dir"): (
            "d63838012bf4b17edeac12ada9152769136b0fd7be65c15e48ca2df9b0bf4f8d",
            "e9dd1e7028438a8fa1aafd1013e5bd9c618ba30fd1be9f5158a1733126672196",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("sphere", "cma-me-imp"): (
            "de4586c850bb03f0a18a5611f24d3ddd5659ec12378cbd4912a569771c9fe4fe",
            "70f60f8616e160256e2450c45b3754913e9a01028309d6059fde91aa770a0b9c",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("redundant_arm", "me-map-elites-uniform"): (
            "690c22f0eb5fffa150ad39d9eaea4a121c4ef11eef3dd50f9e090ae5c4ea29be",
            "0acbf2979374d06adc9378655e9d5ca04b7617a8b6f7c1abf5c33fa376b41fb2",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("redundant_arm", "cma-me-opt"): (
            "93385e528376827751fd82f786b0907a57bcf6e782166447270d77e3ef4a9e9c",
            "f29bc119c70e5a14ab7b09875eec65b61731461ee81c283f50cd97b6ae651dd2",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("redundant_arm", "cma-me-dir"): (
            "6adf4fe3f76e71285153078073f590385308bb12793476371fb06a0ac49cdac0",
            "3e92a059590e124312a2b9cf658274e0ad01023974fec907990d79f8e02923a0",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("redundant_arm", "cma-me-imp"): (
            "344556b45a42ba0fcda0a1ff816ded9944af0a4d1c7f834fbbb0aa5d0e281730",
            "dab8e69ae193ee464f4aad6979a5d655ca8664f9668d8672162168a6d38cf65e",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
    },
    "Nehalem": {
        ("rastrigin_proj", "me-map-elites-ucb"): (
            "4ff1596d4000db63c8ae229ae523df51c4a32db16bf9bed1008cb6e190d94ad2",
            "4b96b13325257a3b76fe0a8282a53edee47669077ae6c77d982c88ca1e972301",
            "60341491e336aef0c7b34ecb06a985e9b32ef8dfdca9a11b9bb96637b7ac3c32",
        ),
        ("rastrigin_multi", "me-map-elites-ucb"): (
            "f36b11ad4ecb78c6fed6226e53243e3e0c65bd4f7bcedbd0471802a5ecfdfe93",
            "e7778e3e479e139d54a519e64238fd767ddbcc14439863677867e82defe9f9d1",
            "b182001b2f66c197a07b38ba992e97489d71732750f011f0aac4a0579587c7cd",
        ),
        ("sphere", "me-map-elites-ucb"): (
            "8a14e40fd415075bcc75ba011709422e2ba565cfb9af2054712ef7a19e4cea0a",
            "d1e296a942c9cac4ace59e1ce5bebeafb5267fe0696f5f06e10aeb507a135ae3",
            "efd2aa6f1ec9e69dc5282a95459b4d858f63c7d3da12c6cc61ec102619e5f0fa",
        ),
        ("redundant_arm", "me-map-elites-ucb"): (
            "a60a4355be6813b35f304941bcb8a189d83f087cc05ed770698277e301860bc9",
            "3ae48a1daf798d3a9cce53df94cb17463100010dead2f0af4457bc0cea9dc805",
            "9f0a996a2fb5aea1fe75c666d63e1557ae9ff1ab0b09d9824845dddcfdeb9b95",
        ),
        ("rastrigin_proj", "me-map-elites-uniform"): (
            "9903c405b6caa5948d64a353492a079fc5dad3960b8cbffa9bb18f47b489b76c",
            "073f7691b90a17dbecbedf6be15b24b393537bf997e1db0637ad490847597d8e",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("rastrigin_proj", "cma-me-opt"): (
            "cfd28ffa13d90c88c8448446b5a39d59979cc7ff1f48b16b393e551c450417ff",
            "9f21f9cf706a61cc27e0b6b8120a17dbace216487dba7e7424a09c1ec6f1f114",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("rastrigin_proj", "cma-me-dir"): (
            "4949d3ab62702553459b85b59cb843d61b0b8186e9a7f9656dd979f31f1b1d47",
            "6f9a81d4506f7a8ea3d28941ab77e561f5194eefc4ff6b9512a5947be4d5c1a5",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("rastrigin_proj", "cma-me-imp"): (
            "0d16829cb1c10609b956a01993ebf1f3f4c5c11136ee28ef4468753dada42562",
            "6e86653bce304dd0a70a8e2b67ae87d965e282b09c49ddb7dcb651701350ffea",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("rastrigin_multi", "me-map-elites-uniform"): (
            "f57b172d2670f1176b7f84f8e098667e93eb20c3ec159c9dc8b91683a1f21d6f",
            "5b85d9918e7b41d096050cdb67d11f2f319551c1af171824eb302a8738322d17",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("rastrigin_multi", "cma-me-opt"): (
            "20eea6a38244ad70db1d41e9db03f7964d8eec92eb801d4c8470e5d3bb3323bb",
            "81c2eccf46b6a6ba6f840529accd0dc855830a44ae4e05c45960cbe423da80c3",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("rastrigin_multi", "cma-me-dir"): (
            "5406de12ef3b5fa637f24efdee4b4dd95fa311f6c4120e2427d7dd8d7ca77955",
            "0558ef32b3b3676763cc612e104a8f73b41c61536fe1375893c9cc22c2bdcb05",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("rastrigin_multi", "cma-me-imp"): (
            "61c826f2c04968c06e3ad15227028122a096ca2fdabfe07ea63c723265bf2885",
            "1c2cf81486f40493aac7d0686b5e5b1114a7841a250fb62f061f906286c5bbb0",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("sphere", "me-map-elites-uniform"): (
            "7b9b9dfe9d483d7ff812b89cb85ad11ae39ee78c633ebf79540a5d17440016d8",
            "585dd11ccf6079d8135fce9d61d5748994571e543f4e8b1d7ee1272dd6256af7",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("sphere", "cma-me-opt"): (
            "8bccfe712715f130706a6b7b175766d91c77623deda9059445be828305745656",
            "2536e5d8f6ac8deac242c5020b3cbe80f6e11bf211f2c3748f71eef7506cf456",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("sphere", "cma-me-dir"): (
            "d63838012bf4b17edeac12ada9152769136b0fd7be65c15e48ca2df9b0bf4f8d",
            "67ce6a05be7c47338aead492ef1e95d9b7f0f16461359e0bfadb84680966e0e6",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("sphere", "cma-me-imp"): (
            "de96f00e1f0322c58c3e1fa444cd9ab3deb44a64454ff84341ec9c7bac556e8e",
            "8b4db43b31a07adecde96803c4b1c551e8a76d50b0b636ddc7053bbcf79ec375",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
        ("redundant_arm", "me-map-elites-uniform"): (
            "690c22f0eb5fffa150ad39d9eaea4a121c4ef11eef3dd50f9e090ae5c4ea29be",
            "8977221dbc34c0196ac05a21a4d7ef37e1752bdedf059ad44605a93e9fda5fc1",
            "0f57214b0fa0e90bb1c49397cf23d2ab62410d6c3c9711e695f34ccc2f7808d6",
        ),
        ("redundant_arm", "cma-me-opt"): (
            "93385e528376827751fd82f786b0907a57bcf6e782166447270d77e3ef4a9e9c",
            "9aa2ffd6ce1eb7b6f5f8a945465f797fb0b42020178b46a213e66ffed09e5ded",
            "03e5b5e1bb68f2fc969f7ae9711539c22bf5d0634a1c5dde49c325c50a22447c",
        ),
        ("redundant_arm", "cma-me-dir"): (
            "6adf4fe3f76e71285153078073f590385308bb12793476371fb06a0ac49cdac0",
            "4c0f00738b1239e7460b8fc1ac0fe349959ab4f75e505fb6d2d657d6375e062b",
            "7a9df8c3e4103871fd4078b3748fb6f7209d42e7e0ff0f2759584d751d0f62ad",
        ),
        ("redundant_arm", "cma-me-imp"): (
            "344556b45a42ba0fcda0a1ff816ded9944af0a4d1c7f834fbbb0aa5d0e281730",
            "5c9e479112e619a9cdf9400022eb46a16bccbec65ac2cbde7dd2faf8749de0ab",
            "edcb3897f3d51e452015dfc6e21f4d94494a20fc2ab047fc1e89df09a39ff4c4",
        ),
    },
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


def write_sweep(out_dir):
    with contextlib.redirect_stdout(io.StringIO()):  # the per-run lines, wall times included
        assert cli.main([*SWEEP_ARGS, "--out", str(out_dir)]) == 0


def sweep_digests(out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in SWEEP_FILES}


def digests(out_dir):
    return tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in FILES)


def platform_facts(core):
    """The running facts a digest set rests on, beside those it was recorded with."""
    libc = " ".join(filter(None, platform.libc_ver())) or "unknown"
    return (
        f"running OpenBLAS kernel {core}, numpy {np.__version__}, C library {libc}; "
        f"sets recorded for kernels {', '.join(KERNEL_FAMILIES)} with {RECORDED_WITH}"
    )


def kernel_family(core):
    """The family of OpenBLAS kernel ``core``; a kernel without a digest set
    fails the calling test, naming the facts the sets rest on."""
    if core not in KERNEL_FAMILIES:
        pytest.fail(f"no golden CMA-ES digests for OpenBLAS kernel {core!r}; record its family's set "
                    f"({platform_facts(core)})")
    return KERNEL_FAMILIES[core]


@pytest.mark.parametrize("variant", VARIANT_NAMES)
@pytest.mark.parametrize("task_name", TASK_NAMES)
def test_golden_digests(task_name, variant, tmp_path):
    case = (task_name, variant)
    core = openblas_corename()
    expected = MAP_ELITES[case] if case in MAP_ELITES else CMA_ES[kernel_family(core)][case]
    write_tree(task_name, variant, tmp_path)
    assert digests(tmp_path) == expected, platform_facts(core)


def test_a_kernel_without_a_set_fails_naming_what_the_sets_rest_on():
    """``Prescott`` runs the ``Katmai`` kernel, for which no set was recorded."""
    if openblas_corename() is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("no bundled x86-64 OpenBLAS whose kernel could be forced")
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--no-header",
         f"{__file__}::test_golden_digests[sphere-cma-me-opt]"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    libc = " ".join(filter(None, platform.libc_ver())) or "unknown"
    assert (
        f"no golden CMA-ES digests for OpenBLAS kernel 'Katmai'; record its family's set "
        f"(running OpenBLAS kernel Katmai, numpy {np.__version__}, C library {libc}; "
        f"sets recorded for kernels Nehalem, Sandybridge, Haswell, SkylakeX with {RECORDED_WITH})"
    ) in proc.stdout, proc.stdout


def test_sweep_digests(tmp_path):
    write_sweep(tmp_path)
    assert sweep_digests(tmp_path) == SWEEP


def test_digests_under_each_forced_older_kernel():
    """One CMA-ES case, run in a subprocess under each kernel of a family
    older than the running kernel's (forced by ``OPENBLAS_CORETYPE``),
    gives that family's digests.  Newer kernels are not forced: the CPU
    may lack their instructions."""
    running = openblas_corename()
    kernel_family(running)
    case = ("sphere", "me-map-elites-ucb")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")]))
    kernels = list(KERNEL_FAMILIES)
    for kernel in kernels[: kernels.index(running)]:
        proc = subprocess.run(
            [sys.executable, __file__, *case], env={**env, "OPENBLAS_CORETYPE": kernel},
            capture_output=True, text=True, timeout=120, check=True,
        )
        reported, *got = proc.stdout.split()
        assert reported == kernel
        assert tuple(got) == CMA_ES[KERNEL_FAMILIES[kernel]][case], kernel


if __name__ == "__main__":
    import itertools
    import tempfile

    core = openblas_corename()
    if len(sys.argv) == 3:
        # one case: the running kernel's name, then the case's digests, one
        # a line, as test_digests_under_each_forced_older_kernel reads them
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(sys.argv[1], sys.argv[2], Path(tmp))
            print(core, *digests(Path(tmp)), sep="\n")
        sys.exit()
    # Prints SWEEP, MAP_ELITES and the running kernel family's CMA_ES entry
    # for the current code, in the order above, so that re-recording is one command
    # whose diff can be reviewed:
    #   PYTHONPATH=src python tests/test_golden.py
    with tempfile.TemporaryDirectory() as tmp:
        write_sweep(Path(tmp))
        print("SWEEP = {")
        for name, digest in sweep_digests(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
        print("}")
    cases = [*MAP_ELITES, *next(iter(CMA_ES.values()))]
    cases += [c for c in itertools.product(TASK_NAMES, VARIANT_NAMES) if c not in cases]
    print(f"# OpenBLAS kernel {core}")
    for name, shared in (("MAP_ELITES", True), (f"CMA_ES[{KERNEL_FAMILIES.get(core, core)!r}]", False)):
        print(f"{name} = {{")
        for task_name, variant in cases:
            if (variant == "map-elites") != shared:
                continue
            with tempfile.TemporaryDirectory() as tmp:
                write_tree(task_name, variant, Path(tmp))
                print(f'    ("{task_name}", "{variant}"): (')
                for digest in digests(Path(tmp)):
                    print(f'        "{digest}",')
                print("    ),")
        print("}")
