"""Golden output hashes: the bytes `simulate` writes and `analyze` prints
for the bundled scenarios at fixed seeds.

A change that alters any of these bytes on purpose (a new RNG stream
layout, a model change) updates the table in the same change and says so;
any other difference is a regression. `python tests/test_golden.py` (with
the package importable, for example under `PYTHONPATH=src`) prints the
table as the current code gives it, ready to paste over `GOLDEN`.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from screwbench import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# (scenario, seed) -> SHA-256 of (simulate log, simulate report,
# analyze stdout for that log)
GOLDEN = {
    ("screw_phillips_plastic", 0): (
        "7bea45a856005d77c15310d97edc6d1200d534c6d42759e37faba127b12ff0e2",
        "0d5e0ac6706543a89c4f0450fa1002b0258edfb162bdb037e1eac7fcd7832c70",
        "cdd2fbe8095e2d78b36e1b4c10e3326c01ffe4aa325b0e89459c7fc3d45b0a38"),
    ("screw_phillips_plastic", 5): (
        "e489f6bf70a67d8c22bd4dc89b01f98fe6ea07378838247f8d1b24f89eb23e66",
        "5446799a87f983d1cd204201dd119f3d68813cff3aa712f686254b73a2f7d6de",
        "9d2b5482a93e3bc47a37a6238df89a9b426b0180914fa4e021c084bc3eb5fd10"),
    ("screw_phillips_plastic", 42): (
        "66093fb6f1bdf8392057d9ee818691103fd88f9a91d94f1180fa77e7a5fc2524",
        "eee3c7521b99407788352c912ecee8c76ae796000710c0250365b8060dba57a0",
        "d6269e59ea94bf03d09dcc95bd7de19a6ff9463007a4f8d397756fcec30230d2"),
    ("unscrew_phillips_plastic", 0): (
        "3f967d6b7291a205461b4998dc79100597685998d9f71a723d7b43485a027b60",
        "887c13ad5883bee4bfa0df9409136fb166e9d984f867e641da1720290d828b91",
        "5f9c8327eccccdbfc967eef653def1d1ef9778c403c67b665a9bed2b02105d96"),
    ("unscrew_phillips_plastic", 5): (
        "15942791c4bbd195bd6187eb426c2352de279e238049ddc950ce4a8570502d46",
        "3236004dea182c61d731d3d474943ef5636975def360c8789ee3287f91965547",
        "2fa9318e0608579311e174d33baa97868fada136ebf5e645e75440a88c136957"),
    ("unscrew_phillips_plastic", 42): (
        "7a1ebcbfc46e337be02ad182dc892ff14bb17581fe33e0d1b92db535db15d6fd",
        "30cfe1d217a8a314620f7db526ea872ddda0e5428a02e754fe8218dae1759bec",
        "ee1ba754089e73705df38fa37751b636ec29735b38131dc77dd2046b694cf299"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(name, seed, directory: Path) -> tuple:
    """The three hashes of one `GOLDEN` row, from files under `directory`."""
    log, report = directory / "run.csv", directory / "report.yaml"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", str(SCENARIOS / f"{name}.yaml"),
                         "--seed", str(seed), "--out", str(log),
                         "--report", str(report)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["analyze", str(log)]) == 0
    return (sha256(log.read_bytes()), sha256(report.read_bytes()),
            sha256(stdout.getvalue().encode()))


@pytest.mark.parametrize("name, seed", sorted(GOLDEN))
def test_outputs_match_golden_hashes(tmp_path, name, seed):
    assert output_hashes(name, seed, tmp_path) == GOLDEN[(name, seed)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name, seed in GOLDEN:
            hashes = output_hashes(name, seed, Path(tmp))
            print(f'    ("{name}", {seed}): (')
            print(",\n".join(f'        "{h}"' for h in hashes) + "),")
        print("}")
