"""CLI output against committed golden CSVs (README "Command line").

Every CSV column must repeat byte for byte across code changes, except
the two round-off columns the README names: jump columns of exactly-C1
fixtures compare as "both <= 1e-12", and ``sweep-eta`` rows at factor
>= 1e3 compare to 1e-5 relative.  A change that moves the numerics on
purpose regenerates the files in ``tests/data`` by running the command
lines below with ``--out tests/data/<name>``, and says so.
"""

from pathlib import Path

import pytest

from mpiga.cli import main

DATA = Path(__file__).parent / "data"

# file name -> (CLI arguments, jump columns are round-off)
GOLDEN = {
    "converge-square-6-bilinear-approx-c1.csv": (
        ["converge", "--geometry", "square-6-bilinear", "--method", "approx-c1", "--levels", "4,8"],
        True,
    ),
    "converge-square-2-bicubic-nitsche.csv": (
        ["converge", "--geometry", "square-2-bicubic", "--method", "nitsche", "--levels", "4,8",
         "--h0", "0.125"],
        False,
    ),
    "sweep-eta-square-2-bicubic.csv": (
        ["sweep-eta", "--geometry", "square-2-bicubic", "--p", "3", "--h0", "0.125"],
        False,
    ),
    "jump-square-2-bicubic.csv": (
        ["jump", "--geometry", "square-2-bicubic", "--levels", "4,8"],
        False,
    ),
    "jump-square-6-bilinear.csv": (
        ["jump", "--geometry", "square-6-bilinear", "--levels", "4,8"],
        True,
    ),
}

EXACT_C1_JUMP = 1e-12
ILL_CONDITIONED_FACTOR, ILL_CONDITIONED_RTOL = 1e3, 1e-5


def mismatches(got, want, jumps_are_roundoff):
    """The fields of ``got`` that break the README rule against ``want``."""
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
        return [("layout", got_rows[:1], want_rows[:1])]
    header = want_rows[0].split(",")
    bad = []
    for g, w in zip(got_rows[1:], want_rows[1:]):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf):
            bad.append(("row", g, w))
            continue
        row = dict(zip(header, wf))
        for col, a, b in zip(header, gf, wf):
            if a == b:
                continue
            if jumps_are_roundoff and col.startswith("jump_") and a and b:
                ok = float(a) <= EXACT_C1_JUMP and float(b) <= EXACT_C1_JUMP
            elif "factor" in row and float(row["factor"]) >= ILL_CONDITIONED_FACTOR and a and b:
                ok = abs(float(a) - float(b)) <= ILL_CONDITIONED_RTOL * abs(float(b))
            else:
                ok = False
            if not ok:
                bad.append((col, a, b))
    return bad


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_csv_matches_golden(name, tmp_path):
    argv, jumps_are_roundoff = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    got, want = out.read_text(), (DATA / name).read_text()
    assert got.endswith("\n")
    assert mismatches(got, want, jumps_are_roundoff) == []


def test_golden_rule_exceptions():
    """The rule forgives round-off columns and nothing else."""
    conv = "n,jump_0,l2\n4,1.2e-14,3.00000e-01\n"
    assert mismatches(conv.replace("1.2e-14", "9.0e-13"), conv, True) == []
    assert mismatches(conv.replace("1.2e-14", "2.0e-12"), conv, True) != []
    assert mismatches(conv.replace("1.2e-14", "9.0e-13"), conv, False) != []
    assert mismatches(conv.replace("3.00000e-01", "3.00001e-01"), conv, True) != []
    sweep = "eta,factor,l2,status\n1e+00,1.00000e+00,2.00000e-02,ok\n1e+03,1.00000e+03,4.00000e-02,ok\n"
    assert mismatches(sweep.replace("4.00000e-02", "4.00001e-02"), sweep, False) == []
    assert mismatches(sweep.replace("4.00000e-02", "4.00100e-02"), sweep, False) != []
    assert mismatches(sweep.replace("2.00000e-02", "2.00001e-02"), sweep, False) != []
    assert mismatches(sweep.replace(",ok\n1e+03", ",indefinite\n1e+03"), sweep, False) != []
