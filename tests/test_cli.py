import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrank.cli import build_parser as _build_parser
from satrank.cli import main
from satrank.slnorbits import partitions


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


_LOADED_LAYERS = """
import json, sys
from satrank import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("satrank."))]))
"""


@pytest.mark.parametrize("command,absent", [
    ("group-srk", {"satrank.lie", "satrank.slnorbits", "satrank.frobkernel", "satrank.oracle",
                   "satrank.acceptance"}),
    ("lie-srk", {"satrank.groups", "satrank.slnorbits", "satrank.frobkernel", "satrank.oracle",
                 "satrank.acceptance"}),
])
def test_subcommand_loads_only_its_layers(tmp_path, d8_file, h3_file, command, absent):
    # a fresh interpreter, so that no other test's imports are counted
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "report.json"
    argv = [command, "--file", d8_file if command == "group-srk" else h3_file, "--out", str(out)]
    run = subprocess.run([sys.executable, "-c", _LOADED_LAYERS, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, loaded = json.loads(run.stdout)
    assert code == 0 and json.loads(out.read_text())["srk"] == 2
    assert not absent & set(loaded)
    assert ("satrank.groups" if command == "group-srk" else "satrank.lie") in loaded


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


@pytest.mark.parametrize("p", ["2", "3", "5"])
def test_sln_orbits_at_n_2(capsys, p):
    code, out, err = run_cli(capsys, "sln-orbits", "--n", "2", "--p", p)
    assert code == 0 and err == ""
    orbits = json.loads(out)["orbits"]
    assert [(o["partition"], o["kind"], o["local_rank"], o["witness_dims"]) for o in orbits] \
        == [([2], "regular", 1, [1]), ([1, 1], "lower", None, [])]


def test_sln_witness_below_n_3_exits_2(capsys):
    code, out, err = run_cli(capsys, "sln-witness", "--n", "1", "--p", "3", "--partition", "1")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == "satrank: precondition error: n must be >= 2\n"
    # (1, 1) is sl_2's zero orbit, a lower orbit, not the subregular one
    code, out, err = run_cli(capsys, "sln-witness", "--n", "2", "--p", "3", "--partition", "1,1")
    assert code == 2 and out == ""
    assert err == "satrank: precondition error: lower orbits need n >= 4\n"


# sha256 of the stdout of the sl_n commands, recorded before their coordinates
# stopped going through special_linear; the sln-orbits pins were moved once
# since, when the zero orbit (1^n) stopped reporting a local rank, and differ
# from the earlier output in that one "local_rank" line.  At p = 4294967311
# the products of codes pass 2**63 and take Python ints.
_SLN_ORBITS_PINS = {
    (4, 5): "43cff82f68fdf4916d790f6c09d49e659952c0bca748cf0725603e7ad0131d91",
    (5, 5): "7ac5f92df62a8d2d24c1cbf21f227d10f03c1dd825da4bfe135cc58621faf380",
    (6, 7): "3fc7c4279c0ed06603e74fee962cf6d5674e64893bf792b730a33446c99ef483",
    (5, 2): "0dce1c041a13e6d757a9010be245e637c26ee53e161508c77cfab897eadea491",
    (7, 3): "697e1d8402dee18deff15a750b2b091d541754d33051d2ee60868a5a4fcc94b1",
    (5, 4294967311): "6184b5ebba3a2565b6f55b7367ca543b6cb1a13b80a29e435231f3752833cf76",
}
_SLN_SRK_PINS = {
    (5, 2): "3acd258baa9930e7198d791336f3634835f24adaec1d008c33b2248ffefca8e0",
    (6, 3): "403a1fff38c6d1424896893b836d62c18eaeeedef6cf67cda39768d04c027ff4",
    (8, 3): "66ed3ad3f47f349f2e434130fe1da034620cfed82bcb4d2c8626424c6cc84f28",
    (9, 3): "6e68170405a14a2ddd291c7807ecf6c12bc61c560ed06309b1f47791d8e4e6b1",
    # the p < n - 2 witness check with d = 20 basis matrices of 400 entries
    (20, 3): "52435f031f131fe9d6c41f12be2ac5f1cb7c90bc777ec7dfbd154d50249b0c77",
}
# (n, p, partition): the stdout is the repr of each basis combination, recorded
# before shift maps became one-term combinations; (3, 1, 1) at p = 5 has a
# negative coefficient and (3, 3) at p = 3 and (2, 2, 2) at p = 2 are degenerate
_SLN_CENTRALIZER_PINS = {
    (5, 5, "3,1,1"): "27f87f393e3ce9a854da1d6dabd2c1521c97da0d95f68e313e6ac73df1cfa482",
    (6, 3, "3,3"): "884307a050b7b73a0baf80b21904c6f4b63a0a87cac735030401eb9dacafa875",
    (5, 5, "4,1"): "a87a98fb0a6ae604d57576a41a39c002272538124c8a493d9689604c735bf6c7",
    (6, 5, "3,2,1"): "b23bcfd0d5b69441820610fd374b9fa18ded9dba6a50ff2016e6024d351f0109",
    (6, 2, "2,2,2"): "6ca3119960951cd891893db2dc6594557caa759271a4ec866120715666c7a179",
}
# (n, partition, k) at p = 5: the digests without and with --maximal, None
# where --maximal exits 2
_SLN_WITNESS_PINS = {
    (4, "4", 1): ("9167d4467c666fa3e9d65451f65557c308d8fa792d7008ece4e0910a4fac481e",
                  "9167d4467c666fa3e9d65451f65557c308d8fa792d7008ece4e0910a4fac481e"),
    (4, "4", 2): ("9167d4467c666fa3e9d65451f65557c308d8fa792d7008ece4e0910a4fac481e",
                  "9167d4467c666fa3e9d65451f65557c308d8fa792d7008ece4e0910a4fac481e"),
    (4, "3,1", 1): ("7a56634990d953d74ee9ad267947bae3208ce3e96f4d48d0f925b40e50b4e1eb",
                    "7a56634990d953d74ee9ad267947bae3208ce3e96f4d48d0f925b40e50b4e1eb"),
    (4, "3,1", 2): ("e03bf82c6e2661253e29a5ed904b9c9faa94d589f03f2c61c39d15ed43128458",
                    "e03bf82c6e2661253e29a5ed904b9c9faa94d589f03f2c61c39d15ed43128458"),
    (4, "2,2", 1): ("6c2816443d5bc6d9f6bf07263b034cc814740920498021c64549b73fdf605d25",
                    None),
    (4, "2,2", 2): ("6c2816443d5bc6d9f6bf07263b034cc814740920498021c64549b73fdf605d25",
                    None),
    (4, "2,1,1", 1): ("d7bdba8e7b11bcb308653dfb43bf402b3f0af6d90f7ee1a1dea2142573cc658b",
                      "7cde766e58fd3538e258228251050102af98ae10a955278b31529351ad8a2fff"),
    (4, "2,1,1", 2): ("d7bdba8e7b11bcb308653dfb43bf402b3f0af6d90f7ee1a1dea2142573cc658b",
                      "7cde766e58fd3538e258228251050102af98ae10a955278b31529351ad8a2fff"),
    (4, "1,1,1,1", 1): ("e9c0325d3b24a1ea61093b089bc2761c1c6566d8663e19bd9e785f2e7c951a55",
                        "e9c0325d3b24a1ea61093b089bc2761c1c6566d8663e19bd9e785f2e7c951a55"),
    (4, "1,1,1,1", 2): ("e9c0325d3b24a1ea61093b089bc2761c1c6566d8663e19bd9e785f2e7c951a55",
                        "e9c0325d3b24a1ea61093b089bc2761c1c6566d8663e19bd9e785f2e7c951a55"),
    (5, "5", 1): ("7b7b8fdc75ffce866b049b74da8ef6a30be482ca9bbe29077c28940be9585e45",
                  "7b7b8fdc75ffce866b049b74da8ef6a30be482ca9bbe29077c28940be9585e45"),
    (5, "5", 2): ("7b7b8fdc75ffce866b049b74da8ef6a30be482ca9bbe29077c28940be9585e45",
                  "7b7b8fdc75ffce866b049b74da8ef6a30be482ca9bbe29077c28940be9585e45"),
    (5, "4,1", 1): ("b2e73214e425c8878eca4629f1ad57376c47bdac2de2d6f46ce4d81dcae6c732",
                    "b2e73214e425c8878eca4629f1ad57376c47bdac2de2d6f46ce4d81dcae6c732"),
    (5, "4,1", 2): ("394cc76cf7c2600d6faecf6745c82e4b16a886ae3a9853bdd0c97865fd4ad921",
                    "394cc76cf7c2600d6faecf6745c82e4b16a886ae3a9853bdd0c97865fd4ad921"),
    (5, "3,2", 1): ("f0989886e2e0829bc9c6276ab84da5bf9f928659d1d0ab0b69d008a6f4da1fd8",
                    None),
    (5, "3,2", 2): ("f0989886e2e0829bc9c6276ab84da5bf9f928659d1d0ab0b69d008a6f4da1fd8",
                    None),
    (5, "3,1,1", 1): ("9b616f40c4a132b5cb5763f71c2fe5186363c3e2f071f6c08a7caa2a3f99c946",
                      None),
    (5, "3,1,1", 2): ("9b616f40c4a132b5cb5763f71c2fe5186363c3e2f071f6c08a7caa2a3f99c946",
                      None),
    (5, "2,2,1", 1): ("16be6c1dfa9a36668700499fd81144dab77b9b04334d838d834fe195262cdd16",
                      None),
    (5, "2,2,1", 2): ("16be6c1dfa9a36668700499fd81144dab77b9b04334d838d834fe195262cdd16",
                      None),
    (5, "2,1,1,1", 1): ("781ed8d8fb1d219692a0c84639e7744768edf8a782c01fc5ac87e23d03f0c73f",
                        "eaf24a1dd8b9aa257ff43036a436c65dd83d66ec52365b383c6eee1c1ca5c99c"),
    (5, "2,1,1,1", 2): ("781ed8d8fb1d219692a0c84639e7744768edf8a782c01fc5ac87e23d03f0c73f",
                        "eaf24a1dd8b9aa257ff43036a436c65dd83d66ec52365b383c6eee1c1ca5c99c"),
    (5, "1,1,1,1,1", 1): ("2eee51a0d570f0f5be987c7a3ce4e481e6a3ef473efe281283fff51373689182",
                          "2eee51a0d570f0f5be987c7a3ce4e481e6a3ef473efe281283fff51373689182"),
    (5, "1,1,1,1,1", 2): ("2eee51a0d570f0f5be987c7a3ce4e481e6a3ef473efe281283fff51373689182",
                          "2eee51a0d570f0f5be987c7a3ce4e481e6a3ef473efe281283fff51373689182"),
}

# sha256 of the stdout of the height-2 commands, recorded before the sweep
# became one stacked exponential: frob2-srk at (n, p), frob2-verify-exp at
# (n, p, k)
_FROB2_SRK_PINS = {
    (2, 3): "2fa0b62cf5c1a75eb73c5e5f07fc76dd1310db24cc049f3cb2aa6ac78e109607",
    (3, 5): "ab3a0f7ec358fb6c889d200fa9217c9804284b1d7673f57613eba154b3921538",
    (5, 7): "a4d2480e7192b14e718e6d5baf4acfe2e57a12a201680ac41f2eeea226a4d866",
}
_FROB2_VERIFY_PINS = {
    (2, 3, 1): "9a4d91e5d77bdf2325c53aaa507c779449ed7cb7a6997afa966aae659f0dafff",
    (3, 5, 1): "8bc7763c4c4409c5d7266ce66e5788112a7dbbe945fb16dbefa2e1043f76de9c",
    (4, 5, 2): "9874476ad268e7a4988136d4cb12fdcdfc66136c84604964782d4d1783db4cea",
    (5, 7, 2): "0c6ab966cedcee1f053f78ef2b906aab908470596eb0c46540587713710b43ed",
}


def _digest(capsys, *argv):
    code, out, err = run_cli(capsys, *map(str, argv))
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("n,p", sorted(_SLN_ORBITS_PINS))
def test_sln_orbits_pinned(capsys, n, p):
    assert _digest(capsys, "sln-orbits", "--n", n, "--p", p) == (0, _SLN_ORBITS_PINS[n, p])


@pytest.mark.parametrize("n,p", sorted(_SLN_SRK_PINS))
def test_sln_srk_pinned(capsys, n, p):
    assert _digest(capsys, "sln-srk", "--n", n, "--p", p) == (0, _SLN_SRK_PINS[n, p])


@pytest.mark.parametrize("n,p,partition", sorted(_SLN_CENTRALIZER_PINS))
def test_sln_centralizer_pinned(capsys, n, p, partition):
    argv = ["sln-centralizer", "--n", n, "--p", p, "--partition", partition]
    assert _digest(capsys, *argv) == (0, _SLN_CENTRALIZER_PINS[n, p, partition])


@pytest.mark.parametrize("n,partition,k", sorted(_SLN_WITNESS_PINS))
def test_sln_witness_pinned(capsys, n, partition, k):
    argv = ["sln-witness", "--n", n, "--p", 5, "--partition", partition, "--k", k]
    plain, maximal = _SLN_WITNESS_PINS[n, partition, k]
    assert _digest(capsys, *argv) == (0, plain)
    code, digest = _digest(capsys, *argv, "--maximal")
    if maximal is None:
        assert code == 2 and digest == hashlib.sha256(b"").hexdigest()
    else:
        assert (code, digest) == (0, maximal)


@pytest.mark.parametrize("n,p", sorted(_FROB2_SRK_PINS))
def test_frob2_srk_pinned(capsys, n, p):
    assert _digest(capsys, "frob2-srk", "--n", n, "--p", p) == (0, _FROB2_SRK_PINS[n, p])


@pytest.mark.parametrize("n,p,k", sorted(_FROB2_VERIFY_PINS))
def test_frob2_verify_exp_pinned(capsys, n, p, k):
    argv = ["frob2-verify-exp", "--n", n, "--p", p, "--k", k]
    assert _digest(capsys, *argv) == (0, _FROB2_VERIFY_PINS[n, p, k])


def test_frob2_verify_exp_at_a_large_prime(capsys):
    code, out, _ = run_cli(capsys, "frob2-verify-exp", "--n", "2", "--p", "1009")
    assert code == 0 and json.loads(out)["pairs_checked"] == 1009 ** 2 == 1018081


@pytest.mark.parametrize("argv", [["sln-orbits", "--n", "3"], ["frob2-srk", "--n", "3"],
                                  ["sln-witness", "--n", "3", "--partition", "3"]],
                         ids=lambda argv: argv[0])
def test_codes_past_int64_exit_2(capsys, argv):
    # p > 2**63: the codes do not fit in int64, and the array arithmetic
    # refuses them instead of raising OverflowError
    code, out, err = run_cli(capsys, *argv, "--p", "9223372036854775837")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("satrank: precondition error: the codes of F_9223372036854775837 ")


def test_zero_orbit_has_no_local_rank(capsys):
    code, out, _ = run_cli(capsys, "sln-orbits", "--n", "3", "--p", "5")
    assert code == 0
    zero = json.loads(out)["orbits"][-1]
    assert zero["partition"] == [1, 1, 1] and zero["in_nullcone"] is True
    assert zero["local_rank"] is None


def test_sln_orbits_reads_one_subregular_member(capsys):
    # the subregular family has q + 1 members, 4294967312 here; the
    # dimension is read off the first alone
    code, out, _ = run_cli(capsys, "sln-orbits", "--n", "5", "--p", "4294967311")
    assert code == 0
    orbits = {tuple(o["partition"]): o for o in json.loads(out)["orbits"]}
    assert orbits[4, 1]["kind"] == "subregular" and orbits[4, 1]["witness_dims"] == [4]


def test_sln_commands_do_not_build_sl_n(capsys, monkeypatch):
    # the sl_n commands read witness coordinates off lie.sl_coords/sl_matrices
    def refuse(n, field):
        raise AssertionError(f"special_linear({n}, {field}) was built")

    monkeypatch.setattr("satrank.lie.special_linear", refuse)
    runs = [["sln-orbits", "--n", 6, "--p", 7], ["sln-orbits", "--n", 6, "--p", 3],
            ["sln-srk", "--n", 6, "--p", 3]]  # p < n - 2 builds and checks a witness
    for lam in partitions(6):
        part = ",".join(map(str, lam.parts))
        runs.append(["sln-witness", "--n", 6, "--p", 7, "--partition", part])
        runs.append(["sln-witness", "--n", 6, "--p", 7, "--partition", part, "--k", 2])
    runs.append(["sln-witness", "--n", 6, "--p", 7, "--partition", "2,1,1,1,1", "--maximal"])
    for argv in runs:
        code, _ = _digest(capsys, *argv)
        assert code == 0, argv


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
    with pytest.raises(SystemExit) as exc:  # sln-centralizer works over F_p only
        main(["sln-centralizer", "--n", "3", "--p", "3", "--partition", "2,1", "--k", "2"])
    assert exc.value.code == 64


def test_one_parser_serves_every_call(capsys, monkeypatch, d8_file, h3_file):
    # main builds its parser once per process: alternating subcommands and
    # formats print what a freshly built parser gives, and usage errors in
    # between still exit 64
    from satrank import cli
    calls = [["group-srk", "--file", d8_file], ["sln-srk", "--n", "3", "--p", "5", "--format", "table"],
             ["lie-srk", "--file", h3_file, "--format", "table"], ["group-srk", "--file", d8_file,
             "--format", "table"], ["sln-srk", "--n", "3", "--p", "5"], ["lie-srk", "--file", h3_file]]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or _build_parser())
    cli._parser.cache_clear()
    shared = []
    for argv in calls + calls[::-1]:
        shared.append(run_cli(capsys, *argv))
        for bad in (["no-such-command"], ["group-srk"], [argv[0], "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 64 and "error:" in capsys.readouterr().err
    assert built == [1]
    fresh = []
    for argv in calls + calls[::-1]:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert len(built) == 1 + len(fresh)
    assert shared == fresh and all(code == 0 for code, _, _ in shared)
    assert len({out for _, out, _ in shared}) == len(calls)


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


def test_group_srk_rejects_negative_element_bound(capsys, tmp_path):
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"degree": 3, "generators": [[1, 2, 0]], "p": 3,
                                "element_bound": -1}))
    code, out, err = run_cli(capsys, "group-srk", "--file", str(path))
    assert code == 2 and out == "" and "element_bound must be >= 0" in err


def test_group_srk_rejects_negative_degree(capsys, tmp_path):
    path = tmp_path / "degree.json"
    path.write_text(json.dumps({"degree": -1, "generators": [], "p": 2}))
    code, out, err = run_cli(capsys, "group-srk", "--file", str(path))
    assert code == 2 and out == "" and "degree must be >= 0, got -1" in err


def test_lie_nullcone_rejects_negative_list_limit(capsys, h3_file):
    code, out, err = run_cli(capsys, "lie-nullcone", "--file", h3_file, "--list-limit", "-1")
    assert code == 2 and out == "" and "--list-limit must be >= 0" in err
    code, out, _ = run_cli(capsys, "lie-nullcone", "--file", h3_file, "--list-limit", "0")
    assert code == 0 and json.loads(out)["points_omitted"] is True


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


@pytest.mark.parametrize("argv", [
    ["lie-srk", "--file", "{lie}"],
    ["lie-srk", "--file", "{lie61}"],
    ["frob2-verify-exp", "--n", "2", "--p", "1000003", "--k", "2"],
    ["sln-witness", "--n", "3", "--p", "1000003", "--partition", "2,1", "--k", "2"],
], ids=["lie_srk", "lie_srk_p61", "frob2_verify_exp", "sln_witness"])
def test_extension_field_over_budget_exits_at_once(capsys, tmp_path, argv):
    # field_make's irreducibility test costs O(k^3 log p), not the p^(k/2)
    # candidate factors of a scan, so the budget checks after it come at once
    import time
    paths = {"lie": tmp_path / "lie.json", "lie61": tmp_path / "lie61.json"}
    paths["lie"].write_text(json.dumps({"p": 1000003, "k": 2, "dim": 1}))
    paths["lie61"].write_text(json.dumps({"p": 2 ** 61 - 1, "k": 2, "dim": 1}))
    argv = [a.format(**paths) for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "budget" in err


def _heisenberg_file(tmp_path, n, p):
    # h_{2n+1}/F_p by structure constants, [x_i, y_i] = z
    path = tmp_path / f"h{2 * n + 1}.json"
    path.write_text(json.dumps({
        "p": p, "dim": 2 * n + 1,
        "brackets": [{"i": i, "j": n + i, "out": [{"k": 2 * n, "c": 1}]} for i in range(n)],
        "pmap": [{"i": i, "out": []} for i in range(2 * n + 1)],
    }))
    return str(path)


def test_lie_srk_clique_nodes_count_against_the_budget(capsys, tmp_path):
    # h_5/F_3: its 3**5 = 243 points and the 40**2 mask bits of its quotient
    # by the centre fit a budget of 243; the clique search over the 40
    # quotient classes visits more than 243 nodes
    code, out, err = run_cli(capsys, "lie-srk", "--file", _heisenberg_file(tmp_path, 2, 3),
                             "--budget", "243")
    assert code == 3 and out == ""
    assert err.rstrip().endswith("budget exceeded: maximal cliques: 244 nodes visited "
                                 "> budget 243, 37 cliques found so far")


def test_lie_srk_commuting_masks_count_against_the_budget(capsys, tmp_path):
    # h_7/F_5 with a budget of 80000: its 5**7 = 78125 points pass, and the
    # derivations leave one orbit on the 3906 quotient classes; the root's
    # mask is built, but with its 780 neighbours' the masks would hold
    # 781 * 3906 bits, which are refused before any of those is built
    import time
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lie-srk", "--file", _heisenberg_file(tmp_path, 3, 5),
                             "--budget", "80000")
    assert time.perf_counter() - start < 30
    assert code == 3 and out == ""
    assert ("budget exceeded: commuting masks: 781 masks of 3906 classes are 3050586 bits "
            "> budget 2560000 bits (32 per budget unit); 1 masks built so far") in err


def test_lie_srk_h7_f3_fits_the_old_clique_budget(capsys, tmp_path):
    # a budget of 50000 stopped the whole-graph clique search of h_7/F_3;
    # modulo the centre, with one orbit of quotient classes, it suffices
    code, out, _ = run_cli(capsys, "lie-srk", "--file", _heisenberg_file(tmp_path, 3, 3),
                           "--budget", "50000")
    rep = json.loads(out)
    assert code == 0 and (rep["srk"], rep["r_min"], rep["o_rmin_count"]) == (4, 4, 2186)


def test_lie_srk_abelian_10_runs_modulo_its_centre(capsys, tmp_path):
    # abelian_p_trivial(10, F_3) is its own central elementary ideal: no
    # masks and no cliques, every nonzero point has rank 10
    import time
    path = tmp_path / "abelian10.json"
    path.write_text(json.dumps({"p": 3, "dim": 10}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "lie-srk", "--file", str(path))
    assert time.perf_counter() - start < 2
    rep = json.loads(out)
    assert code == 0 and (rep["srk"], rep["r_min"], rep["o_rmin_count"]) == (10, 10, 59048)
    assert rep["witnesses"] == [[[int(i == j)] for i in range(10)] for j in range(9, -1, -1)]


def _unreadable(tmp_path, kind):
    if kind == "directory":
        path = tmp_path / "a_directory"
        path.mkdir()
    else:
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"p": 3, "labels": ["\xe9"]}')
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
@pytest.mark.parametrize("command", ["group-srk", "lie-srk", "lie-nullcone"])
def test_unreadable_file_exits_2(capsys, tmp_path, command, kind):
    code, out, err = run_cli(capsys, command, "--file", _unreadable(tmp_path, kind))
    assert code == 2 and out == ""
    assert err.startswith("satrank: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["group-srk", "--file", None],
    ["lie-srk", "--file", None],
    ["lie-nullcone", "--file", None],
    ["sln-srk", "--n", "3", "--p", "3"],
    ["sln-orbits", "--n", "3", "--p", "3"],
    ["sln-centralizer", "--n", "3", "--p", "3", "--partition", "2,1"],
    ["sln-witness", "--n", "3", "--p", "3", "--partition", "2,1"],
    ["frob2-srk", "--n", "2", "--p", "3"],
    ["frob2-verify-exp", "--n", "2", "--p", "3"],
    ["oracle-crosscheck"],
    ["reproduce-paper"],
], ids=lambda argv: argv[0])
def test_out_naming_a_directory_exits_2(capsys, monkeypatch, tmp_path, d8_file, h3_file, argv):
    # for reproduce-paper, exit 1 would mean that a criterion failed
    _criteria_stub(monkeypatch)
    argv = [{"group-srk": d8_file}.get(argv[0], h3_file) if a is None else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("satrank: cannot access file: ") and str(tmp_path) in err


@pytest.mark.parametrize("data", [
    {"degree": 0, "generators": [[]], "p": 2},
    {"degree": 1, "generators": [[0]], "p": 2},
    {"degree": 0, "generators": [], "p": 3},
], ids=["degree_0", "degree_1", "degree_0_no_generators"])
def test_group_srk_on_the_trivial_group_of_degree_0_and_1(capsys, tmp_path, data):
    # the closure composes with itemgetter(*g), which returns a scalar for one
    # index and raises for none; these groups have only the identity
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "group-srk", "--file", str(path))
    assert code == 0
    assert json.loads(out) == {"srk": None, "quillen_dim": None, "classes": [],
                               "equidimensional": None, "note": f"no {data['p']}-torsion"}


def test_sln_witness_budget_bounds_the_subregular_family(capsys, monkeypatch):
    import time
    # q + 1 = 10000020 members of 4 matrices of 5 x 5: refused before any is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sln-witness", "--n", "5", "--p", "10000019",
                             "--partition", "4,1")
    assert code == 3 and out == "" and "budget" in err
    assert time.perf_counter() - start < 1
    argv = ["sln-witness", "--n", "5", "--p", "7", "--partition", "4,1"]  # 8 * 4 * 25 entries
    code, out, _ = run_cli(capsys, *argv, "--budget", "800")
    assert code == 0 and len(json.loads(out)["witnesses"]) == 8
    assert run_cli(capsys, *argv, "--budget", "799")[0] == 3
    monkeypatch.setenv("SATRANK_BUDGET", "799")
    assert run_cli(capsys, *argv)[0] == 3
    assert run_cli(capsys, *argv, "--budget", "-1")[0] == 2
    # invalid input is refused as such, whatever the budget
    bad = ["sln-witness", "--n", "5", "--p", "3", "--partition", "4,1", "--budget", "0"]
    code, _, err = run_cli(capsys, *bad)
    assert code == 2 and "p >= n-1" in err


@pytest.mark.parametrize("command", ["sln-srk", "sln-orbits"])
def test_sln_top_orbit_witness_counts_against_the_budget(capsys, monkeypatch, command):
    import time
    # at p < n - 2 the top-orbit witness has n basis matrices of n x n, and
    # validating it forms n^4 commutator entries: refused before any is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--n", "200", "--p", "3")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == ("satrank: budget exceeded: top-orbit witness: 200^2 commutators of 200^2 "
                   "entries are 1600000000 > budget 10000000\n")
    assert run_cli(capsys, command, "--n", "57", "--p", "3")[0] == 3  # 57^4 > 10^7
    monkeypatch.setenv("SATRANK_BUDGET", str(6 ** 4))
    assert run_cli(capsys, command, "--n", "6", "--p", "3")[0] == 0
    monkeypatch.setenv("SATRANK_BUDGET", str(6 ** 4 - 1))
    assert run_cli(capsys, command, "--n", "6", "--p", "3")[0] == 3
    assert run_cli(capsys, command, "--n", "6", "--p", "5")[0] == 0  # closed form: no witness
    monkeypatch.setenv("SATRANK_BUDGET", "-1")
    assert run_cli(capsys, command, "--n", "6", "--p", "3")[0] == 2


def test_frob2_verify_exp_budget_bounds_the_sweep(capsys, monkeypatch):
    import time
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "frob2-verify-exp", "--n", "2", "--p", "10007")
    assert code == 3 and out == "" and "budget" in err
    assert time.perf_counter() - start < 1
    # within the budget the sweep runs; it takes about 10 s at q = 10007, so
    # it is stubbed here and only the gate is tested
    monkeypatch.setattr("satrank.frobkernel.homomorphism_sweep",
                        lambda pair: pair.alpha0.field.q ** 2)
    argv = ["frob2-verify-exp", "--n", "2", "--p", "10007", "--budget"]
    code, out, _ = run_cli(capsys, *argv, str(10007 ** 2))
    assert code == 0 and json.loads(out)["pairs_checked"] == 10007 ** 2
    assert run_cli(capsys, *argv, str(10007 ** 2 - 1))[0] == 3
    monkeypatch.setenv("SATRANK_BUDGET", str(10007 ** 2 - 1))
    assert run_cli(capsys, *argv[:-1])[0] == 3
    assert run_cli(capsys, *argv, "-1")[0] == 2
    code, _, err = run_cli(capsys, "frob2-verify-exp", "--n", "1", "--p", "10007")
    assert code == 2 and "n must be >= 2" in err
