"""Golden output hashes: the bytes `simulate` writes and `analyze` prints
for the bundled scenarios at fixed seeds.

A change that alters any of these bytes on purpose (a new RNG stream
layout, a model change) updates the table in the same change and says so;
any other difference is a regression.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from screwbench import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# (scenario, seed) -> SHA-256 of (simulate log, simulate report,
# analyze stdout for that log)
GOLDEN = {
    ("screw_phillips_plastic", 0): (
        "cab18670566ecbf02405963503ff7fb7a383606752da02b62f5d4795d9dad8b2",
        "cb0ff3129896a72342e7a8064b27f484952196fcec75103fc96fe4eda8e8af32",
        "d4d9148c02be2d7dd2d71539b4f6289e23c7dffc2a7c454ca6a277315ea121b2"),
    ("screw_phillips_plastic", 5): (
        "68c24df79f1339cf10d402d1e12f40b388aec70c046d07bc9fe21ab0a7831c31",
        "52dba7af131e08b261b7cf75b4c95ce7098f8e032ecf633c8153fea5f9b19b25",
        "628f672b3b3d7e0b680df80aac02565f182d4b34172470a8082479d606a664e3"),
    ("screw_phillips_plastic", 42): (
        "0e45dfaa18113055da4d171b4a09b32b134f93099f73d2a5748d18a0ba36b5e6",
        "df3bc426e5a570694a1488f9c574b67834c7912a9a2d3b0631a00f8d3e7fbd48",
        "3ea4ebaaaf3b6908a5b17d42c99cefb078ef67e70dc6e28f8132331d39cff359"),
    ("unscrew_phillips_plastic", 0): (
        "7c035dfee3c5c75fbef5a8ebe85088eb4e5633ca4e0343ea7949fbe45218d66e",
        "3e6fd7dde583352c6562e92ad26cbe636ec959ef4399048d7be7722678ac1f47",
        "fe0c446958e1dc63e6b214f199957a68a80549f04bd473b459f736bd4fff5d3a"),
    ("unscrew_phillips_plastic", 5): (
        "3806b341244b5f6de4ff0382faa5a1b5ead9666b56ef065933cccd082805ff5b",
        "18b3b7918e6ec17e75850373b04b8d57664749cf9485b45c13ab9667b7ebc682",
        "246567ebd90551387a00ee74e26f82877c92963b4efe56cc91eb8df770d58930"),
    ("unscrew_phillips_plastic", 42): (
        "fa18726327799aca71e5e3b83cf26ec3a037b67d8b0afeab0f10ce51b1e0e219",
        "d2b6ff33fc4235f37036776d48132bc3c52188d704728b1230d650f80286043c",
        "1bb668091260a514027fd12029c6b5b6462c3a13a19c3b85690914c5c129fabd"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_outputs_match_golden_hashes(tmp_path, name, seed):
    log, report = tmp_path / "run.csv", tmp_path / "report.yaml"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", str(SCENARIOS / f"{name}.yaml"),
                         "--seed", str(seed), "--out", str(log),
                         "--report", str(report)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["analyze", str(log)]) == 0
    got = (sha256(log.read_bytes()), sha256(report.read_bytes()),
           sha256(stdout.getvalue().encode()))
    assert got == GOLDEN[(name, seed)]
