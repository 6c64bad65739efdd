"""Tests of the benchmark itself (not of satrank).

    PYTHONPATH=src python -m pytest -q bench/tests

The seed-invariance test solves every instance of every workload for seeds
0, 1 and 2 and takes a few minutes; the rest take seconds.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
PER_LAYER = {m for m, _, _ in layers.PER_LAYER}


def _read_result(path):
    with open(path) as fp:
        lines = [json.loads(line) for line in fp if line.strip()]
    return run.ChildResult(lines, timed_out=False, returncode=0, seconds=0.0)


def _bench(*args):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    lines = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for name, m in result["metrics"].items():
        assert f"{name} " in "\n".join(lines)
        assert isinstance(m["value"], (int, float)) and m["unit"]
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    assert record["fail_ratio"] == 0.0 and record["seed"] == 0
    assert {"python", "numpy", "nproc", "cpu_model", "git_commit"} <= set(record)
    if trace:
        assert record["counts_repeat"] is True
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)


def test_bare_directory_fails_without_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in ("run.py", "child.py", "workloads.py", "tracer.py", "layers.py"):
        (bench_copy / name).write_text(open(os.path.join(BENCH, name)).read())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "groups", "--seed", "0",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_times_sum_to_root(tmp_path):
    result = tmp_path / "result.jsonl"
    child.run_pass("lie-prime", 0, str(tmp_path), str(result), trace=True,
                   instances=WORKLOADS["lie-prime"][:1])
    res = _read_result(result)
    assert res.complete and all(r["ok"] for r in res.instances)
    spans = tracer.load_spans(res.summary["spans"])
    own = tracer.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    assert [spans[i][0] for i in roots] == ["setup", "pass"]
    for r in roots:
        subtree = [i for i in range(len(spans)) if _root_of(spans, i) == r]
        duration = spans[r][2] - spans[r][1]
        assert sum(own[i] for i in subtree) == pytest.approx(duration, abs=1e-9)
    assert all(t >= -1e-9 for t in own)
    metrics = layers.summarize(spans)
    assert metrics["lie.search_calls"] > 0 and metrics["lie.nullcone_points"] == 125


def _root_of(spans, i):
    while spans[i][3] >= 0:
        i = spans[i][3]
    return i


def test_wrong_expected_answer_counts_as_failure(tmp_path):
    inst = WORKLOADS["groups"][0]
    wrong = dataclasses.replace(inst, expect=dict(inst.expect, srk=inst.expect["srk"] + 1))
    result = tmp_path / "result.jsonl"
    child.run_pass("groups", 0, str(tmp_path), str(result), instances=[inst, wrong])
    res = _read_result(result)
    failed, errors = run.tally([inst.name, wrong.name], res)
    assert failed == 1 and "wrong answer" in errors[0]


def test_crashed_pass_fails_its_remaining_instances():
    lines = [{"instance": "a", "ok": True, "error": None, "wall_s": 1.0}]
    res = run.ChildResult(lines, timed_out=True, returncode=-9, seconds=1.0)
    failed, errors = run.tally(["a", "b", "c"], res)
    assert failed == 2 and "ended early" in errors[-1]


def test_tracer_patches_every_module_binding():
    from satrank import acceptance, cli, lie
    t = tracer.Tracer()
    original = lie.srk_brute
    t.patch(lie, "srk_brute", "lie.srk_brute")
    try:
        assert lie.srk_brute is acceptance.srk_brute is not original
        assert "srk_brute" not in vars(cli) or cli.srk_brute is lie.srk_brute
    finally:
        t.uninstall()
    assert lie.srk_brute is original is acceptance.srk_brute


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_expected_answers_hold_for_seed(workload, seed, tmp_path):
    result = tmp_path / "result.jsonl"
    child.run_pass(workload, seed, str(tmp_path), str(result))
    res = _read_result(result)
    assert res.complete
    assert [r["instance"] for r in res.instances] == [i.name for i in WORKLOADS[workload]]
    assert [r["error"] for r in res.instances if not r["ok"]] == []
