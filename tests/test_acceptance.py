"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line,
and the shared witness check of criteria 4 and 5."""

import ast
import pathlib

import numpy as np
import pytest

from satrank import acceptance
from satrank.acceptance import CRITERIA, run_criterion
from satrank.fields import Mat, field_make
from satrank.lie import sl_coords, special_linear
from satrank.slnorbits import (
    Partition,
    dominance_leq,
    jordan_matrix,
    lower_orbit_witness,
    partitions,
    subregular_witnesses,
)


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
    assert list(four.details.items()) == [("n3_p2", 2), ("n3_p3", 4), ("n4_p3", 4), ("n4_p5", 6),
                                          ("n5_p5", 6), ("n6_p5", 6), ("n6_p7", 8)]


def test_criterion_5_details_are_pinned():
    # --format json prints the keys in this order
    five = run_criterion(5)
    assert five.passed, five.error
    assert list(five.details.items()) == [("n4_p2_orbits", 3), ("n5_p3_orbits", 5),
                                          ("n6_p5_orbits", 9), ("n7_p5_orbits", 13),
                                          ("max_witness_n4", 4), ("max_witness_n5", 6)]


def test_one_witness_check_in_acceptance():
    # criteria 4 and 5 check their witnesses through _check_witnesses alone
    tree = ast.parse(pathlib.Path(acceptance.__file__).read_text())
    calls = [(f.name, getattr(node.func, "id", getattr(node.func, "attr", None)))
             for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f) if isinstance(node, ast.Call)]
    assert [f for f, name in calls if name == "_elementary_conditions"] == ["_check_witnesses"]
    assert not {name for _, name in calls} & {"is_elementary", "mat_solve"}


def _subregular_case(n, p):
    """sl_n over F_p, the stacked bases of its subregular witnesses, the
    coordinates of x_tau, and a map from a matrix to its coordinates."""
    f = field_make(p, 1)
    alg = special_linear(n, f)
    coords = alg.coords_of_matrix
    bases = np.array([s.basis for s in subregular_witnesses(n, f)], dtype=np.int64)
    return alg, bases, coords(jordan_matrix(Partition((n - 1, 1)), f)), coords


def _check_as_criterion_4(alg, bases, xj, n):
    """The witness check as criterion 4 runs it: x_tau for every member."""
    names = [f"subregular witness {w} of sl_{n} over F_{alg.field.q}" for w in range(len(bases))]
    acceptance._check_witnesses(alg, bases, np.broadcast_to(xj, (len(bases), alg.dim)),
                                names, "x_tau")


def _unit(f, n, i, j):
    a = np.zeros((n, n), dtype=np.int64)
    a[i, j] = f.one
    return Mat(f, a)


def test_subregular_check_passes_the_witnesses():
    for n, p in [(3, 3), (4, 5), (5, 5)]:
        alg, bases, xj, _ = _subregular_case(n, p)
        _check_as_criterion_4(alg, bases, xj, n)


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
        # [x_tau, E_24] = E_14; the rows commute, so a point they do not
        # centralize lies outside their span, and is named so
        bases[w] = [coords(_unit(f, n, i, j)) for i, j in [(0, 2), (0, 3), (0, 4), (1, 3)]]
        fault = "x_tau outside the span"
    else:  # the identity commutes with every witness, and lies in none
        xj = coords(Mat.identity(f, n))
        w = 0
    with pytest.raises(AssertionError, match=rf"^subregular witness {w} of sl_{n} over F_{p}: "
                                             rf"{fault}$"):
        _check_as_criterion_4(alg, bases, xj, n)


@pytest.mark.parametrize("block", [None, 2 * 4 * 4 * 5 * 5])
def test_witness_check_names_the_first_failing_witness_across_blocks(monkeypatch, block):
    # sl_5 has 6 subregular witnesses of 4 rows of 5 x 5 matrices: one block
    # at the default size, three blocks of two at 2 * 4^2 * 5^2 product
    # entries.
    # Witness 3 (second block) fails on its p-map, witness 5 (third) on the
    # earlier condition of dependent rows: witness 3 is the one named.
    if block:
        monkeypatch.setattr(acceptance, "_CHECK_BLOCK", block)
    n = p = 5
    alg, bases, xj, coords = _subregular_case(n, p)
    bases[3, 0] = coords(Mat.identity(alg.field, n))
    bases[5, -1] = bases[5, 0]
    with pytest.raises(AssertionError, match=r"^subregular witness 3 of sl_5 over F_5: "
                                             r"nonzero p-map$"):
        _check_as_criterion_4(alg, bases, xj, n)


def test_witness_check_names_a_lower_orbit_outside_the_span():
    # criterion 5's check on the rank-5 lower-orbit witnesses of sl_5 over
    # F_5; the identity, central and traceless at p = n, replaces one x_lambda
    n, p = 5, 5
    f = field_make(p, 1)
    alg = special_linear(n, f)
    lams = [lam for lam in partitions(n)
            if dominance_leq(lam, Partition((3, 2))) and lower_orbit_witness(lam, f).rank == n]
    subs = np.array([lower_orbit_witness(lam, f).basis for lam in lams], dtype=np.int64)
    points = sl_coords(f, np.array([jordan_matrix(lam, f).a for lam in lams]))
    names = [f"lower-orbit witness {lam.parts} of sl_{n} over F_{p}" for lam in lams]
    acceptance._check_witnesses(alg, subs, points, names, "x_lambda")
    w = len(lams) - 1
    points[w] = alg.coords_of_matrix(Mat.identity(f, n))
    with pytest.raises(AssertionError) as err:
        acceptance._check_witnesses(alg, subs, points, names, "x_lambda")
    assert str(err.value) == ("lower-orbit witness (2, 1, 1, 1) of sl_5 over F_5: "
                              "x_lambda outside the span")
