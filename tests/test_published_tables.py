"""The published tables no other test regenerates, rebuilt at full size.

Most of ``results/*.txt`` is rewritten in place by the tests that assert
on it, and CI fails when ``git diff -- results/`` is not empty after the
suite. Three tables come only from a full-size CLI run:
``table_churn_flash_crowd`` (``churn``), ``table_churn_in_band``
(``churn --in-band``) and ``table_gossip_membership`` (``gossip``). Each
command here writes its tables into a scratch directory through
``--out``, and every file it writes must equal the committed one byte
for byte (about 20 s for the three).
"""

import pathlib

import pytest

from repro.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize(
    "argv, tables",
    [
        (["churn"], {"table_churn_comparison", "table_churn_mass_failure", "table_churn_flash_crowd"}),
        (["churn", "--in-band"], {"table_churn_in_band"}),
        (["gossip"], {"table_gossip_membership"}),
    ],
    ids=["churn", "churn-in-band", "gossip"],
)
def test_cli_rewrites_the_committed_tables(argv, tables, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert {path.stem for path in tmp_path.glob("*.txt")} == tables
    for name in sorted(tables):
        got = (tmp_path / f"{name}.txt").read_bytes()
        assert got == (RESULTS / f"{name}.txt").read_bytes(), name
