"""satrank benchmark: one seeded workload, end-to-end or traced per layer.

    python3 bench/run.py --workload lie-prime --seed 1 --seconds 25 --trace 0

Each pass runs in a fresh child process (bench/child.py), one child at a
time: a closed loop with a single client solving one instance after another.
Passes repeat until the next one would overrun --seconds (at least one; with
--trace 1 at least one untraced and one traced pass, alternating).  Set-up is
sampled in extra set-up-only children so that its median rests on several
samples.

Output: one `name value unit` line per metric, the raw (not speed-normalized)
times, a `record` JSON line (versions, machine, seed, failure accounting, raw
samples), and as the last line one JSON object {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  Times are normalized to a reference
speed; see child.SpeedProbe.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # every run must end within 180 s


class ChildResult:
    """What one child reported: finished instances, and its summary if it got that far."""

    def __init__(self, lines, timed_out, returncode, seconds):
        self.instances = [r for r in lines if "instance" in r]
        self.summary = next((r for r in lines if r.get("done")), None)
        self.timed_out = timed_out
        self.returncode = returncode
        self.seconds = seconds  # child lifetime, start-up included

    @property
    def complete(self):
        return self.summary is not None and self.returncode == 0 and not self.timed_out


def run_child(workload, seed, workdir, timeout, trace=False, setup_only=False, smoke=False):
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.jsonl")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, "--result", result]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * smoke
    env = dict(os.environ)
    env.pop("SATRANK_BUDGET", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, timeout))
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        timed_out = True
    except BaseException:  # interrupted: never leave the child running
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - start
    lines = []
    if os.path.exists(result):
        with open(result) as fp:
            lines = [json.loads(line) for line in fp if line.strip()]
    res = ChildResult(lines, timed_out, proc.returncode, seconds)
    if not res.complete:
        tail = (err or "").strip().splitlines()[-3:]
        print(f"child failed (exit {proc.returncode}, timed out: {timed_out}): {tail}",
              file=sys.stderr)
    return res


def tally(names, res):
    """(failed, errors) of one pass over the instances called names.

    An instance fails on a wrong answer, an exception or a non-zero exit; when
    the child crashed or timed out, every instance it did not finish fails too.
    """
    bad = [r for r in res.instances if not r["ok"]]
    errors = [f"{r['instance']}: {r['error']}" for r in bad]
    if not res.complete:
        errors.append(f"pass ended early after {len(res.instances)} of {len(names)} instances")
        return len(bad) + len(names) - len(res.instances), errors
    return len(bad), errors


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    k = n - 11  # index of the sample with ten samples above it
    return {"percentile": round(pct, 1), "value": sorted(samples)[k]}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass over the smallest instance, no extra set-up samples")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "satrank", "__init__.py")):
        print(f"bench: no satrank sources under {ROOT}/src", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    work_root = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work_root)
    counter = itertools.count()
    names = [i.name for i in WORKLOADS[args.workload][:1 if args.smoke else None]]

    def child(**kw):
        wd = os.path.join(work_root, f"child-{next(counter)}")
        return run_child(args.workload, args.seed, wd, deadline - time.perf_counter(),
                         smoke=args.smoke, **kw)

    try:
        plain, traced, setups = [], [], []
        attempted = failed = 0
        errors = []
        while True:
            trace = bool(args.trace) and len(traced) < len(plain)
            res = child(trace=trace)
            attempted += len(names)
            pass_failed, pass_errors = tally(names, res)
            failed += pass_failed
            errors += pass_errors
            if not res.complete:
                break
            (traced if trace else plain).append(res)
            if not trace:
                setups.append(res.summary["setup_s"])
            elapsed = time.perf_counter() - t_start
            longest = max(r.seconds for r in plain + traced)
            enough = plain and (traced or not args.trace)
            if args.smoke and enough:
                break
            if enough and elapsed + longest > args.seconds:
                break
            if time.perf_counter() + longest > deadline:
                break
        want_setups = 1 if args.smoke or args.trace else SETUP_SAMPLES
        while plain and len(setups) < want_setups and time.perf_counter() < deadline - 10:
            res = child(setup_only=True)
            if not res.complete:
                break
            setups.append(res.summary["setup_s"])

        if not plain or (args.trace and not traced):
            print("bench: no complete pass; errors: " + "; ".join(errors[:5]), file=sys.stderr)
            return 1
        walls = [r.summary["wall_s"] for r in plain]
        if args.trace:
            per_pass = [layers.summarize(tracer.load_spans(r.summary["spans"]),
                                         r.summary["wall_s"] / r.summary["wall_raw_s"])
                        for r in traced]
            values = {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
            values["trace_overhead_ratio"] = (
                statistics.median(r.summary["wall_s"] for r in traced) / statistics.median(walls))
            counts_repeat = all(p[m] == per_pass[0][m] for p in per_pass
                                for m in layers.COUNT_METRICS)
            values.update({m: per_pass[0][m] for m in layers.COUNT_METRICS})
            metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in layers.PER_LAYER}
        else:
            counts_repeat = None
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(r.summary["cpu_s"] for r in plain),
                "peak_rss_mb": statistics.median(r.summary["peak_rss_mb"] for r in plain),
            }
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "instances": names,
            "python": platform.python_version(), "numpy": plain[0].summary["numpy"],
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit(),
            "passes": len(plain), "traced_passes": len(traced),
            "wall_s_samples": walls, "wall_s_tail": tail_percentile(walls),
            "raw": {k: statistics.median(r.summary[k] for r in plain)
                    for k in ("setup_raw_s", "wall_raw_s", "cpu_raw_s")},
            "instance_wall_s": {n: statistics.median(r.instances[i]["wall_s"] for r in plain)
                                for i, n in enumerate(names)},
            "probe_samples": sum(r.summary["probe_samples"] for r in plain),
            "setup_s_samples": setups,
            "fail_ratio": failed / attempted, "fail_base": f"{failed} of {attempted} instances",
            "errors": errors, "counts_repeat": counts_repeat,
        }
        for m, v in metrics.items():
            print(f"{m} {v['value']:.6g} {v['unit']}")
        for k, v in record["raw"].items():
            print(f"{k} {v:.6g} s (not normalized)")
        print(f"fail_ratio {record['fail_ratio']:.6g} ({record['fail_base']})")
        print("record " + json.dumps(record))
        correct = failed == 0 and counts_repeat is not False
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
