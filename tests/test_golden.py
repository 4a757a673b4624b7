"""Golden pin: the housing benchmark's results.csv must not change by a single byte.

``golden/housing.results.csv`` was written by ``drs bench`` with the config in
``GOLDEN_ARGS`` (default seed and tree parameters). A change that cannot keep
it byte-identical regenerates the file in its own commit and reports the
largest absolute change of any MSE.
"""

from pathlib import Path

from conftest import DATA_DIR
from drs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "housing.results.csv"
GOLDEN_ARGS = [
    "--algo", "all", "--measures", "all",
    "--members", "25", "--folds", "5", "--reps", "1",
]


def test_housing_results_match_golden_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["bench", "--data", str(DATA_DIR / "housing.csv"), "--out", str(out)]
        + GOLDEN_ARGS
    )
    assert code == 0
    got = (out / "results.csv").read_bytes()
    want = GOLDEN.read_bytes()
    changed = [
        (g, w)
        for g, w in zip(got.decode().splitlines(), want.decode().splitlines())
        if g != w
    ]
    assert got == want, f"results.csv differs from {GOLDEN.name}: {changed[:3]}"
