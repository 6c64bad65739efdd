"""Acceptance gate: one test per criterion, each printing its PASS/FAIL line."""

import pytest

from satrank.acceptance import CRITERIA, run_criterion


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
    from satrank import acceptance
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
