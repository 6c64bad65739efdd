"""One benchmark pass in a fresh process: set up, run every instance, report.

Run by bench/run.py, one child at a time, with src/ on PYTHONPATH.  Set-up
(import satrank, build fields, generate and write the seeded inputs) is timed
from the start of this script to the end of input generation.  Each instance
is then solved through satrank's public entry points and checked against its
fixed expected answer.  One JSON line per finished instance is appended to
the result file as it completes, so a crash or timeout leaves the parent a
record of how far the pass got.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


def run_instance(call, out_path):
    """Solve one instance; returns (exit code, program output or None)."""
    from satrank import cli, lie
    inst = call["inst"]
    if inst.kind == "local-rank":
        g = lie.load_lie(call["file"])
        return 0, {"rank": lie.local_rank(g, tuple(call["point"])).rank}
    argv = [inst.kind, "--out", out_path]
    if "file" in call:
        argv += ["--file", call["file"]]
    if "seed" in call:
        argv += ["--seed", str(call["seed"])]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code
    if code != 0:
        return code, None
    with open(out_path) as fp:
        return 0, fp.read() if inst.kind == "reproduce-paper" else json.load(fp)


class SpeedProbe:
    """Tracks the machine's current speed while a pass runs.

    On a shared host, a VM's speed drifts by up to 2x over seconds to
    minutes, inside a single instance as well.  A SIGALRM handler therefore
    times a fixed pure-Python reference loop every INTERVAL_S, in wall and in
    CPU seconds.  The handler's own time is subtracted from the measured
    windows, and each window is also reported normalized to the speed at
    which the loop takes NOMINAL_S (its time on an unloaded 2.1 GHz Xeon
    vCPU): wall time by the loop's wall rate, CPU time by its CPU rate, so
    that time spent descheduled does not skew the CPU figure.
    """

    INTERVAL_S = 0.1
    NOMINAL_S = 0.002

    def __init__(self):
        self.samples = []  # (start, wall seconds, CPU seconds) per reference loop
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def sample(self, signum=None, frame=None):
        t, c = time.perf_counter(), time.process_time()
        seen = {}
        for i in range(2000):
            key = tuple((i * k) % 7 for k in range(5))
            seen[key] = seen.get(key, 0) + 1
        self.samples.append((t, time.perf_counter() - t, time.process_time() - c))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0, t1):
        """Probe wall and CPU seconds spent in [t0, t1), and mean wall and CPU
        speed factors of the samples from t0 on.

        Called right after sample(), so the window ends with a fresh sample.
        """
        inside = [s for s in self.samples if s[0] >= t0]
        own = [s for s in inside if s[0] < t1]
        n = len(inside)
        return (sum(s[1] for s in own), sum(s[2] for s in own),
                sum(self.NOMINAL_S / s[1] for s in inside) / n,
                sum(self.NOMINAL_S / max(s[2], 1e-9) for s in inside) / n)


def run_pass(workload, seed, workdir, result_path, trace=False, setup_only=False,
             instances=None):
    """Set up and (unless setup_only) run one pass, appending JSON lines to result_path."""
    probe = SpeedProbe()
    try:
        _run_pass(probe, workload, seed, workdir, result_path, trace, setup_only, instances)
    finally:
        probe.stop()


def _run_pass(probe, workload, seed, workdir, result_path, trace, setup_only, instances):
    import numpy
    import satrank  # noqa: F401  (set-up pays the import)
    import workloads
    from tracer import Tracer

    tracer = None
    if trace:
        import layers
        tracer = Tracer()
        layers.install(tracer)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("setup"):
        calls = workloads.build_inputs(workload, seed, workdir, instances)
    t_setup = time.perf_counter()
    probe.sample()
    own, _, speed, _ = probe.measure(T0, t_setup)
    setup_raw = t_setup - T0 - own
    setup_s = setup_raw * speed

    wall = cpu = wall_norm = cpu_norm = 0.0
    with open(result_path, "a") as out:
        with span("pass"):
            for i, call in enumerate(calls if not setup_only else []):
                inst = call["inst"]
                out_path = os.path.join(workdir, f"out-{i}")
                error = None
                with span(f"instance:{inst.name}"):
                    w0, c0 = time.perf_counter(), time.process_time()
                    try:
                        code, output = run_instance(call, out_path)
                    except Exception as exc:  # a crash fails the instance, not the pass
                        code, output, error = None, None, f"{type(exc).__name__}: {exc}"
                    w1, c1 = time.perf_counter(), time.process_time()
                probe.sample()
                own, own_cpu, speed, cpu_speed = probe.measure(w0, w1)
                dw, dc = w1 - w0 - own, c1 - c0 - own_cpu
                wall += dw
                cpu += dc
                wall_norm += dw * speed
                cpu_norm += dc * cpu_speed
                if error is None and code != 0:
                    error = f"exit code {code}"
                if error is None:
                    got = workloads.answer_of(inst, output)
                    if got != inst.expect:
                        error = f"wrong answer {got}, expected {inst.expect}"
                out.write(json.dumps({"instance": inst.name, "ok": error is None,
                                      "error": error, "wall_raw_s": dw, "cpu_raw_s": dc,
                                      "wall_s": dw * speed}) + "\n")
                out.flush()
        spans_path = None
        if tracer:
            tracer.uninstall()
            spans_path = result_path + ".spans"
            tracer.dump(spans_path)
        out.write(json.dumps({
            "done": True, "setup_raw_s": setup_raw, "wall_raw_s": wall, "cpu_raw_s": cpu,
            "setup_s": setup_s, "wall_s": wall_norm, "cpu_s": cpu_norm,
            "probe_samples": len(probe.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "numpy": numpy.__version__, "spans": spans_path}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="only the smallest instance")
    args = ap.parse_args(argv)
    import workloads
    instances = workloads.WORKLOADS[args.workload][:1] if args.smoke else None
    run_pass(args.workload, args.seed, args.workdir, args.result, trace=args.trace,
             setup_only=args.setup_only, instances=instances)
    return 0


if __name__ == "__main__":
    sys.exit(main())
