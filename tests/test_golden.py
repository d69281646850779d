"""The bytes of the CLI's outputs, pinned by sha256 digest.

A change to the sampling loop, the term program or the oracle may make the
code faster or smaller, but the ``estimate`` JSON, the efficiency CSV and
the ``verify`` ledger must keep every byte at a fixed seed and batch size.
The digests below were taken with numpy 2.4.6; its Philox fills and
reductions fix the bytes, so another version skips them.
"""

import hashlib
import json

import numpy as np
import pytest

from sobolmc.cli import main

NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY, reason=f"digests taken with numpy {NUMPY}, this is {np.__version__}"
)

#: a 3^3 table of values in [-1, 1), one model file for the discrete family
TABLE = [round(((7 * k * k + 3 * k) % 23) / 11.5 - 1.0, 4) for k in range(27)]

#: the target set of each model; n spans two default batches, the second partial
ESTIMATE_N = 40001
TARGET = {"g": "1", "product6": "2,5", "discrete": "2"}

#: sha256 of ``estimate --format json`` stdout, by model, kind alias and
#: any further flags, ':'-separated
ESTIMATE_DIGESTS = {
    "g:corr1": "d01aeac373f1f04b1f827ad1eaa653f05def82b5dea8047417d2444068c3855f",
    "g:corr2": "e4de3d163c3816eccfbdd99047541af133c4467b34e091e99985029f9cc2f0a2",
    "g:gen": "1dcd1982bf01514d26a0005e9459fa560833c342d8c89b56d1f0de880714e88a",
    "g:orcl1": "08cd6b282e41051002fce43113578305263713a85dabe6bf137b4e8964e8cc36",
    "g:orcl2": "baae03c54454881a9932a7bd7ecc0284428b829ec0a4bbec52c1873a41e720ab",
    "g:original": "e2fdae89ee1c6e817965f6cd6dd84d897687a8b6273b267c6f1dc039ed12a4d8",
    "g:upper": "3d5ee0054cd042a8b30d0e55deaedf0b77d4a3a62fee8bdb5fd0276a1e6abb92",
    "product6:corr1": "c5ce6af9bcfb0a343fb21604a710d361ef7eb4a551a93107f2ae8bf84358cd2e",
    "product6:corr2": "cc6d46a5e8b7764cc7c957037509db240e1130f28486d0b83dfa39445eb46b74",
    "product6:gen": "2143a2c7a5878715d35234da1450da48c2faaa80d5fdf5f4435a43872e484531",
    "product6:orcl1": "d3bee9da7046a8ef05646b5c654b2addc13e4432d0f2ae288b5ca815205aab2a",
    "product6:orcl2": "95a519cb705e18701faa65c10993c7ca511c128cd1ef7b795ef9f33286740679",
    "product6:original": "839c8d0e78ba3554d9b6b6492de3a15c25cfe6160693a8a3c271c8da3e7d8105",
    "product6:upper": "4b022b08a27af180c113343472d21c17ebc1d597529a5f3cec3fc81c7c7fbe62",
    "discrete:corr1": "c41b11f5d9e5ffaf289d1584d8f6620e5ec97a9f673e3fe6e8a0e0f160bcf240",
    "discrete:corr2": "41b0f93267dfe96aa93cc668b5f574a22230bb8a08f599f7f3cf9dc0c1d46514",
    "discrete:gen": "daf8fd19fcd14bf38babc364d01f1006c2616718e208fdd1a9095d32424de5bf",
    "discrete:orcl1": "c474b255774dc0a2808771ad4f4788f75938f996fe451fe1beac2ee258e75a6c",
    "discrete:orcl2": "0d92995686be72457eabaca86b1941cc573b2fd4966f3f11788945d38978719d",
    "discrete:original": "860290875daebd7f3f907ff2038c75d1601e62407547ac981f1bcfb3f45a5f9f",
    "discrete:upper": "9a51f5120c6332a806658d322bdd6692d616abab2dfd032b17769de5bf094856",
    "g:gen:--v:2:--v2:2,3": "afc3f62cb64034f13774aab00064be0a06d3cb05c3b7f2dbebb0ef9189eda4cd",
}

#: sha256 of ``efficiency-table`` CSV stdout, by study; any thread count gives it
TABLE_DIGESTS = {
    "g": "b8402c82a34f71d33940e9c63dcefee228a1522c688d744f7cce374f5b9db99d",
    "product6": "2acf99507fd5a25a6e0c0e2ead2d9c624e95b38583dd1bc58174a5dbda873994",
}

#: sha256 of the ``verify --levels 3 --dims 2 --trials 2`` ledger
VERIFY_DIGEST = "62fde1e065fc07b102521f0307c1a0d814e30f9e0518734e762f651bc6b0098d"


def digest(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture
def model_files(tmp_path, monkeypatch):
    # the JSON names the model file as given, so it is read by a fixed relative name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "discrete.json").write_text(json.dumps({"kind": "discrete", "levels": 3, "table": TABLE}))
    return {"g": "g", "product6": "product6", "discrete": "discrete.json"}


@pytest.mark.parametrize("case", sorted(ESTIMATE_DIGESTS))
def test_estimate_json_keeps_its_bytes(capsys, model_files, case):
    name, alias, *extra = case.split(":")
    argv = ["estimate", "--model", model_files[name], "--u", TARGET[name], "--estimator", alias]
    argv += ["--n", str(ESTIMATE_N), "--seed", "7", *extra]
    assert digest(capsys, *argv) == ESTIMATE_DIGESTS[case]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("study", ["g", "product6"])
def test_efficiency_csv_keeps_its_bytes(capsys, study, threads):
    argv = ["efficiency-table", "--benchmark", study, "--n", "3001", "--replicates", "3"]
    assert digest(capsys, *argv, "--seed", "11", "--threads", threads) == TABLE_DIGESTS[study]


def test_verify_ledger_keeps_its_bytes(capsys):
    assert digest(capsys, "verify", "--levels", "3", "--dims", "2", "--trials", "2") == VERIFY_DIGEST
