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
        "99be36871ef54d4c1b8b134f6405b1e6b9d4eef8ce9e6296ce4af1b613790de8",
        "0569a513d815f5cb661a259c489bab09aee6ab9a8bd84be920283640a57f6785",
        "2cb821768f1b9c8afb8c53d1b721340a6e67455e15542de27560b915a3bb4c2d"),
    ("screw_phillips_plastic", 5): (
        "25b2c4296e87c53a1908f3877af9819a4116a1adf5fe809d860fe5fdddf8b245",
        "3f95d118957644b1c756c5d3219b5eb6797468bbdb4da5f327fadd241e4638af",
        "3387c53afae80f8955a92bd31c2cee92d8ef7c9d5eacf1ccc15ca346ff3d5ba5"),
    ("screw_phillips_plastic", 42): (
        "351c42e0bccef38151314bbdb20d77dbcd16ff0e7c443fc8c5eeb5df441edb49",
        "4596c8519e0449d926283497cf513db253719417cd457d16c6e677ba89f79510",
        "c97b79d8cc800e627cd093289e11d27423b5dc60f44c671544a1b29bf47d8a33"),
    ("unscrew_phillips_plastic", 0): (
        "e0940ddfbf71ee0a902c8a4e2f47e2b413ebc7edb75871f8ccab37d944986c96",
        "afa8be50944e5486659ca932fff8632d8a614c9a1af9c747d88c472eb31b552c",
        "c4c45c4215955a20355454af5f66453e43e31cf36d512a9db2ca746a03babe86"),
    ("unscrew_phillips_plastic", 5): (
        "ee110177ed55195a333452cb6bdcc3853481741e43581824546a3c20c347fcae",
        "7ab4885d1e8e5cff8f650a09b6261b7bd9a798ad58f794c0f6fbc2f7f0f5c2a1",
        "87be17b4c65fa5059fc989c86edfe851de154d7fd34ea2357247894e20652696"),
    ("unscrew_phillips_plastic", 42): (
        "71cdcea28ffd37e932b58c3d6aa63a8c27bba4c0a52d2b35f35655234bc8f8a2",
        "359973a8f9dfea3b96fc76b94b4d1f882ab0b48ba2c2e8180054d18f344b3da0",
        "365340463c10408146674bd6852edcbf36fb6e582a5158705fad2330bdac7028"),
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
