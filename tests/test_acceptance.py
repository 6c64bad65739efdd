"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line,
and the stacked checks of criterion 4."""

import numpy as np
import pytest

from satrank import acceptance
from satrank.acceptance import CRITERIA, run_criterion
from satrank.fields import Mat, field_make
from satrank.lie import special_linear
from satrank.slnorbits import Partition, jordan_matrix, subregular_witnesses


@pytest.mark.parametrize("cid,description", [(c, d) for c, d, _ in CRITERIA],
                         ids=[f"criterion_{c}" for c, _, _ in CRITERIA])
def test_criterion(cid, description, capsys):
    result = run_criterion(cid)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n{status}  criterion {cid}: {description} ({result.seconds:.1f}s)")
    assert result.passed, f"criterion {cid} failed: {result.error}"


def test_reproduce_paper_exit_code(capsys):
    from satrank.cli import main
    assert main(["reproduce-paper"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(CRITERIA)
    assert "FAIL" not in out


def test_reproduce_paper_survives_a_raising_criterion(capsys, monkeypatch):
    from satrank.cli import main

    def broken():
        raise ValueError("boom")

    # every criterion trivially passes except the third, which raises
    patched = [(c, d, broken if c == 3 else dict) for c, d, _ in CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", patched)
    assert main(["reproduce-paper"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CRITERIA) == 9
    assert lines[2].startswith("FAIL  criterion 3") and "ValueError: boom" in lines[2]
    assert sum(line.startswith("PASS") for line in lines) == 8
    assert "boom" in acceptance.run_criterion(3).details["traceback"]


def test_criterion_4_details_are_pinned():
    four = run_criterion(4)
    assert four.passed, four.error
    assert four.details == {"n3_p2": 2, "n3_p3": 4, "n4_p3": 4, "n4_p5": 6,
                            "n5_p5": 6, "n6_p5": 6, "n6_p7": 8}


def _subregular_case(n, p):
    """sl_n over F_p, the stacked bases of its subregular witnesses, the
    coordinates of x_tau, and a map from a matrix to its coordinates."""
    f = field_make(p, 1)
    alg = special_linear(n, f)
    coords = alg.coords_of_matrix
    bases = np.array([s.basis for s in subregular_witnesses(n, f)], dtype=np.int64)
    return alg, bases, coords(jordan_matrix(Partition((n - 1, 1)), f)), coords


def _unit(f, n, i, j):
    a = np.zeros((n, n), dtype=np.int64)
    a[i, j] = f.one
    return Mat(f, a)


def test_subregular_check_passes_the_witnesses():
    for n, p in [(3, 3), (4, 5), (5, 5)]:
        alg, bases, xj, _ = _subregular_case(n, p)
        acceptance._check_subregular(alg, bases, xj)


@pytest.mark.parametrize("fault", ["dependent rows", "non-commuting rows", "nonzero p-map",
                                   "x_tau not centralized", "x_tau outside the span"])
def test_subregular_check_names_each_fault(fault):
    n, p, w = 5, 5, 3
    alg, bases, xj, coords = _subregular_case(n, p)
    f = alg.field
    if fault == "dependent rows":
        bases[w, -1] = bases[w, 0]
    elif fault == "non-commuting rows":  # E_21 is p-nilpotent, outside the span
        bases[w, 0] = coords(_unit(f, n, 1, 0))
    elif fault == "nonzero p-map":  # the identity is traceless at p = n and central
        bases[w, 0] = coords(Mat.identity(f, n))
    elif fault == "x_tau not centralized":
        # the square-zero span of E_13, E_14, E_15, E_24 is elementary, and
        # [x_tau, E_24] = E_14
        bases[w] = [coords(_unit(f, n, i, j)) for i, j in [(0, 2), (0, 3), (0, 4), (1, 3)]]
    else:  # the identity commutes with every witness, and lies in none
        xj = coords(Mat.identity(f, n))
        w = 0
    with pytest.raises(AssertionError, match=rf"^subregular witness {w} of sl_{n} over F_{p}: "
                                             rf"{fault}$"):
        acceptance._check_subregular(alg, bases, xj)
