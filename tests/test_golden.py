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
        "5dfdfa34493ad9ead4c151a0195669b4732df7e808b71486dd7495917becd6a4",
        "f89e17d375b5e870408c03b3cb7b233677e0962f5798728b1f1c76f99833a8a6",
        "64b5eb0a5f4c3893da8c5a305e0975d625bf1380847688b344a4c35fba3c11c9"),
    ("screw_phillips_plastic", 5): (
        "1a75e45eb27b8c099df38247b540f51a1e2e40b6e4601c47921ae87ea2b9b64a",
        "a1c14b80844ad780a868fc7635119c02e2694a4b068be60452984a9c8d2a5883",
        "5d2f41b2c86ef112b691ead5dbe56aa97513490148165e54f9176ba4c4bdce12"),
    ("screw_phillips_plastic", 42): (
        "043d58ff1f81aba45b0f9c277611468f1fb473072f050ff6ee7de86b11d38194",
        "598524295b1c8b4ca51320f3ba88dce67e5cda6a9d8a5c0a1d7947d7aa67467e",
        "f84d1474dcf20cac0b6f6386ade03a6ae031220cd8a43641a6a00c2b8373f773"),
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
