import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def d8_file(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(json.dumps(
        {"degree": 4, "generators": [[1, 2, 3, 0], [0, 3, 2, 1]], "p": 2}))
    return str(path)


@pytest.fixture()
def h3_file(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({
        "p": 3, "k": 1, "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "out": [{"k": 2, "c": [1]}]}],
        "pmap": [{"i": 0, "out": []}, {"i": 1, "out": []}, {"i": 2, "out": []}],
    }))
    return str(path)


def test_group_srk(capsys, d8_file):
    code, out, _ = run_cli(capsys, "group-srk", "--file", d8_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["srk"] == 2 and rep["quillen_dim"] == 2
    assert len(rep["classes"]) == 2
    assert rep["equidimensional"] is True


def test_lie_srk(capsys, h3_file):
    code, out, _ = run_cli(capsys, "lie-srk", "--file", h3_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["srk"] == 2 and rep["o_rmin_count"] == 26


def test_lie_nullcone(capsys, h3_file):
    code, out, _ = run_cli(capsys, "lie-nullcone", "--file", h3_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 27 and len(rep["points"]) == 27


def test_sln_srk(capsys):
    code, out, _ = run_cli(capsys, "sln-srk", "--n", "4", "--p", "5")
    assert code == 0
    assert json.loads(out)["srk"] == 3


def test_sln_orbits(capsys):
    code, out, _ = run_cli(capsys, "sln-orbits", "--n", "3", "--p", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["srk"] == 2
    assert rep["o_rmin"] == [[3], [2, 1]]


def test_sln_centralizer(capsys):
    code, out, _ = run_cli(capsys, "sln-centralizer", "--n", "4", "--p", "5",
                           "--partition", "3,1")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 5 and rep["degenerate"] is False


def test_sln_witness(capsys):
    code, out, _ = run_cli(capsys, "sln-witness", "--n", "4", "--p", "5",
                           "--partition", "3,1")
    assert code == 0
    rep = json.loads(out)
    assert [w["dim"] for w in rep["witnesses"]] == [3] * 6


def test_frob2_srk(capsys):
    code, out, _ = run_cli(capsys, "frob2-srk", "--n", "3", "--p", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["srk_sln2"] == 4 and rep["bound_attained"] is True


def test_frob2_verify_exp(capsys):
    code, out, _ = run_cli(capsys, "frob2-verify-exp", "--n", "3", "--p", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["holds"] is True and rep["pairs_checked"] == 25


def test_oracle_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "oracle-crosscheck")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_exit_codes(capsys, h3_file, tmp_path):
    code, _, err = run_cli(capsys, "sln-srk", "--n", "4", "--p", "4")
    assert code == 2 and "precondition" in err
    code, _, err = run_cli(capsys, "lie-srk", "--file", h3_file, "--budget", "5")
    assert code == 3 and "budget" in err
    code, _, err = run_cli(capsys, "group-srk", "--file", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "group-srk", "--file", str(bad))
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64


@pytest.mark.parametrize("n", ["-1", "0", "1"])
def test_frob2_verify_exp_rejects_n_below_2(capsys, n):
    # no vacuous "holds" over 0 x 0 or 1 x 1 matrices
    code, out, err = run_cli(capsys, "frob2-verify-exp", "--n", n, "--p", "5")
    assert code == 2 and out == "" and "n must be >= 2" in err


@pytest.mark.parametrize("command", ["lie-srk", "lie-nullcone"])
def test_negative_budget_is_invalid_input(capsys, monkeypatch, h3_file, command):
    code, out, err = run_cli(capsys, command, "--file", h3_file, "--budget", "-1")
    assert code == 2 and out == "" and "--budget must be >= 0" in err
    monkeypatch.setenv("SATRANK_BUDGET", "-5")
    code, out, err = run_cli(capsys, command, "--file", h3_file)
    assert code == 2 and out == "" and "SATRANK_BUDGET must be >= 0" in err
    # a budget of 0 is valid and exceeded
    code, _, err = run_cli(capsys, command, "--file", h3_file, "--budget", "0")
    assert code == 3 and "budget" in err


def test_byte_identical_output(capsys, d8_file):
    _, out1, _ = run_cli(capsys, "group-srk", "--file", d8_file)
    _, out2, _ = run_cli(capsys, "group-srk", "--file", d8_file)
    assert out1 == out2


def test_out_flag(capsys, d8_file, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "group-srk", "--file", d8_file, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["srk"] == 2


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "sln-srk", "--n", "4", "--p", "5", "--format", "table")
    assert code == 0
    assert "srk\t3" in out


@pytest.mark.parametrize("data", [
    # pmap term index beyond dim
    {"p": 3, "dim": 2, "pmap": [{"i": 0, "out": [{"k": 5, "c": 1}]}]},
    # bracket index beyond dim
    {"p": 3, "dim": 2, "brackets": [{"i": 0, "j": 5, "out": []}]},
    # negative dimension
    {"p": 3, "dim": -1},
], ids=["pmap_k", "bracket_j", "dim_negative"])
def test_lie_srk_rejects_out_of_range_input(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lie-srk", "--file", str(path))
    assert code == 2 and out == ""
    assert "precondition" in err


@pytest.mark.parametrize("data", [
    {"degree": 4, "generators": [[1, 2, 3, 0]], "p": 4},
    {"degree": 4, "generators": [[1, 2, 3, 0]], "p": 1},
    {"degree": 4, "generators": [[1, 2, 3, 0]], "p": "abc"},
    {"degree": "four", "generators": [[1, 2, 3, 0]], "p": 2},
    {"degree": 4, "generators": [[1, 2, 3, "x"]], "p": 2},
    {"degree": 2, "generators": [[1, 0.5]], "p": 2},
], ids=["p_composite", "p_one", "p_text", "degree_text", "entry_text", "entry_fraction"])
def test_group_srk_rejects_bad_input(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "group-srk", "--file", str(path))
    assert code == 2 and out == ""
    assert "precondition" in err


@pytest.mark.parametrize("data", [
    {"degree": 10 ** 6, "generators": [], "p": 2},
    {"degree": 6, "generators": [[1, 0, 2, 3, 4, 5]], "p": 2, "element_bound": 5},
], ids=["default_bound", "explicit_bound"])
def test_group_srk_refuses_degree_above_element_bound(capsys, tmp_path, data):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "group-srk", "--file", str(path))
    assert code == 3 and out == "" and f"degree {data['degree']}" in err


def _h3_input():
    return {
        "p": 3, "k": 1, "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "out": [{"k": 2, "c": [1]}]}],
        "pmap": [{"i": 0, "out": []}, {"i": 1, "out": []}, {"i": 2, "out": []}],
    }


def _with(path, value):
    """_h3_input() with the entry at path (a key sequence) set to value."""
    data = _h3_input()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("data", [
    _with(["labels"], 5),
    _with(["labels"], ["x", 1, "z"]),
    # three matrices for dim 3, but 2 x 2, 2 x 2 and 3 x 3
    _with(["matrix_model"], [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0, 0, 0, 0, 0, 0]]),
    _with(["p"], 3.7),
    _with(["p"], True),
    _with(["k"], "1"),
    _with(["dim"], 3.5),
    _with(["brackets", 0, "i"], 0.5),
    _with(["brackets", 0, "out", 0, "c"], [1.5]),
    _with(["brackets", 0, "out", 0, "c"], 1.5),
    _with(["brackets", 0], [0, 1]),
    [_h3_input()],
], ids=["labels_int", "label_int", "model_sizes", "p_float", "p_bool", "k_text", "dim_float",
        "index_float", "coeff_digit_float", "coeff_float", "entry_list", "top_level_list"])
def test_lie_srk_rejects_malformed_input(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lie-srk", "--file", str(path))
    assert code == 2 and out == ""
    assert "precondition" in err


def test_lie_srk_checks_budget_before_building_tables(capsys, tmp_path):
    # 3**2000 elements: refused before the 2000**3 bracket tensor is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": 3, "dim": 2000}))
    for command in ("lie-srk", "lie-nullcone"):
        code, out, err = run_cli(capsys, command, "--file", str(path))
        assert code == 3 and out == "" and "3**2000 elements" in err


_D8_INPUT = {"degree": 4, "generators": [[1, 2, 3, 0], [0, 3, 2, 1]], "p": 2}
_WRONG_TYPES = [None, True, 1.5, "x", [], {}]
_OUT_OF_RANGE = [-1, 3, 4, 7, 10 ** 6]


def _locations(node, path=()):
    """The key paths of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


@st.composite
def _mutated(draw, base):
    """base after one to three edits: drop a key or item, give a value the
    wrong type, or replace it with an out-of-range integer."""
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_locations(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        node = data
        for key in path[:-1]:
            node = node[key]
        edit = draw(st.sampled_from(["drop", "type", "range"]))
        if edit == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = draw(st.sampled_from(_WRONG_TYPES if edit == "type" else _OUT_OF_RANGE))
    return data


def _exit_code(tmp_dir, argv, data):
    path = tmp_dir / "input.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv + ["--file", str(path)])


# deadline=None: the host this runs on may slow single examples down by 2x
@settings(max_examples=150, deadline=None)
@given(data=_mutated(_h3_input()))
def test_lie_srk_fuzzed_input_exits_cleanly(tmp_path_factory, data):
    code = _exit_code(tmp_path_factory.mktemp("lie"), ["lie-srk", "--budget", "200"], data)
    assert code in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(data=_mutated(_D8_INPUT))
def test_group_srk_fuzzed_input_exits_cleanly(tmp_path_factory, data):
    code = _exit_code(tmp_path_factory.mktemp("group"), ["group-srk"], data)
    assert code in (0, 2, 3)


def test_frob2_verify_exp_over_f49(capsys):
    code, out, _ = run_cli(capsys, "frob2-verify-exp", "--n", "5", "--p", "7", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"n": 5, "p": 7, "k": 2, "pairs_checked": 2401, "holds": True}


def _criteria_stub(monkeypatch, failing=()):
    """Criteria that return their cid as details, and raise for the cids in failing."""
    from satrank import acceptance

    def make(cid):
        def run():
            if cid in failing:
                raise AssertionError(f"broken {cid}")
            return {"cid": cid, "pairs": [cid, cid * cid]}
        return run

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [(c, d, make(c)) for c, d, _ in acceptance.CRITERIA])
    return acceptance.CRITERIA


@pytest.mark.parametrize("args", [(), ("--format", "table")])
def test_reproduce_paper_table_is_the_default(capsys, monkeypatch, args):
    criteria = _criteria_stub(monkeypatch, failing=(4,))
    code, out, _ = run_cli(capsys, "reproduce-paper", *args)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == len(criteria)
    for line, (cid, desc, _) in zip(lines, criteria):
        status = "FAIL" if cid == 4 else "PASS"
        assert line.startswith(f"{status}  criterion {cid}: {desc} (0.0s)")
    assert lines[3].endswith("  [AssertionError: broken 4]")


def test_reproduce_paper_json(capsys, monkeypatch, tmp_path):
    criteria = _criteria_stub(monkeypatch, failing=(4,))
    target = tmp_path / "paper.json"
    code, out, _ = run_cli(capsys, "reproduce-paper", "--format", "json", "--out", str(target))
    assert code == 1 and out == ""
    rep = json.loads(target.read_text())
    assert rep["all_pass"] is False
    assert [c["cid"] for c in rep["criteria"]] == [cid for cid, _, _ in criteria]
    for entry, (cid, desc, _) in zip(rep["criteria"], criteria):
        assert set(entry) == {"cid", "description", "passed", "seconds", "error", "details"}
        assert entry["description"] == desc and entry["seconds"] >= 0
        if cid == 4:
            assert not entry["passed"] and entry["error"] == "AssertionError: broken 4"
            assert "broken 4" in entry["details"]["traceback"]
        else:
            assert entry["passed"] and entry["error"] == ""
            assert entry["details"] == {"cid": cid, "pairs": [cid, cid * cid]}
    _criteria_stub(monkeypatch)
    code, out, _ = run_cli(capsys, "reproduce-paper", "--format", "json")
    assert code == 0 and json.loads(out)["all_pass"] is True


# 10**25 + 1 is composite (11 divides it); 2**89 - 1 is a Mersenne prime and
# 3317044064679887385961981 a strong pseudoprime to the bases 2..41, both
# above the bound below which passing those bases proves a prime
@pytest.mark.parametrize("p,exit_code", [
    (10 ** 25 + 1, 2), (2 ** 89 - 1, 3), (3317044064679887385961981, 3),
], ids=["composite", "mersenne_89", "pseudoprime_2_41"])
def test_huge_p_exits_at_once(capsys, tmp_path, p, exit_code):
    import time
    lie = tmp_path / "lie.json"
    lie.write_text(json.dumps({"p": p, "dim": 1}))
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"degree": 2, "generators": [[1, 0]], "p": p}))
    for argv in (["lie-srk", "--file", str(lie)], ["group-srk", "--file", str(group)]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == exit_code and out == "" and f"p={p}" in err
