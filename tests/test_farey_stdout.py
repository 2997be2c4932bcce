"""sha256 pins of the `farey` subcommand's stdout.

`test_cli_enumerate_matches_reference` renders its reference with the
module's own value class, so a drift in how values print would move both
sides; these digests were taken from the Fraction-based implementation.
"""

import hashlib

import pytest

from boostcycles.cli import main

ENUMERATE = {
    # k: (sha256 without --exact, sha256 with --exact)
    1: ("9a2cdf0051dd5899b146a6a058f914aa6766f3a06149672bb53b5964b1582a56",
        "13675657939062764bc6bea545f5ca689bc30156bdd83aeb0bf42e2ae0089bcc"),
    2: ("d65874e9e6111c9b20a4a151a565ac34e45f7bc952c00fb7bca49d056c9f6b3e",
        "561295197283b0fc322e080290edd505f9e8679e9d068147f1285f1846ef9807"),
    3: ("2dc802c3c26546d314de19e9619baacef0c0020c2e6cfc479e9bfe341e43f890",
        "0408330e88013a3cc552633d751d1e0ec2cb68bd525f61093b8ccb73ebd2df18"),
    4: ("c52e66e2e16cc8b6d7cb6bf7763a0383f29a82e0162ee2d7df996127b5cc30b4",
        "06345ede61a5bc1e36aa8e5d25e60b5b1a99c5abab2a6dfd5a38122584e037d4"),
    5: ("f394e236ccbfa089e1f68443356501fa1bf6298887a45c39be4a6e1df261b3ba",
        "32d858693dd32c29226f6e99913cecbfc073fb121115a08ba8891ddad397fe1b"),
    6: ("932418009a764b10eff300d51778995d9cb477763fed720be559be6a1ada129a",
        "bf5a4d55613468c2123516ae9bc12e15c336201e77ea115e4a80af9508400a5f"),
    7: ("1b220739629e1218082a80275bbc1f1d8c403e29311822b99b62f46c3ff66628",
        "e1fbf09dc7b4da8470a684401ded19b1b6a085ef7b4aa37918a3cc8d4544fe4b"),
    8: ("234677d846eb00a4cd9d56caf76b613b4cca1bfdae314b790a09db9507c56b9c",
        "0feb12f8d878d889c8ab1374ded84d4678b452bf01267496592fc23f79ef4fef"),
    9: ("3d22ef577e6635ab7e05b6c69ddc9aa6527257645f5750c078ca0db77645c6ac",
        "59226a2200da515e50acd5b07204c3546b8af060b96c26a4167411b7cdae6223"),
    10: ("9602344a9e8875bb3167fc0278bafd5a3150b885ee2ccea69a95cb7ac7fcca6b",
         "2daa4e1a0d8a0d754fc79dedfdcf6dfd333019ef039f213bb95ffc6d03ddb06a"),
    11: ("d2098a95173dc775e6678b3b0b5f9d619dd2f43e596b1b4b8f99910c647c99e2",
         "94bf0dde6ba6472a1fbd3caa1f79b1d96dcbaafae20b5529e259c37286a0bc8e"),
    12: ("3f10fcf08c11ec5866f567ce7afe48d4aa21173d64d5ab248cba68b7cec2efc4",
         "816e5fe244666280a77c19a06d83d39d5b45355e1f7105cfa10645ae793d8fcf"),
}

ORBIT = {
    "R": "1d3ea1b75dad2e4dc746bed6aed2456f8b3e436a7497d85a19ede117da04a9bd",
    "RL": "0e0a6f5c85435ae7f1a9f2274aa2505979747e648a3e015c9118ecea8d6a5bb2",
    "LLR": "2d196e03ea5265bb6017bee0ae1796f2cfa745dc1edabae20e63ef8f9205b867",
    "RRLRL": "df0b2ae94fe728e6ff538be0c76c5830297792b185110d39fc06758385af89e4",
}


def stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k", sorted(ENUMERATE))
def test_enumerate_stdout_pinned(capsys, k, exact):
    argv = ["farey", "enumerate", "--k", str(k)] + (["--exact"] if exact else [])
    assert stdout_sha256(capsys, argv) == ENUMERATE[k][exact]


@pytest.mark.parametrize("word", sorted(ORBIT))
def test_orbit_stdout_pinned(capsys, word):
    assert stdout_sha256(capsys, ["farey", "orbit", "--word", word, "--exact"]) == ORBIT[word]
