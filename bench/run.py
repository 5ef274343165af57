"""spaceform-lab benchmark: time to a verified result, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N     # every workload, one after another

Each run sets up its workload, then runs passes in a closed loop (a pass
starts only after the previous one has finished) for about ``--seconds``,
checking every pass.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  Results and spans are also written under
``bench/out/``.  The package is imported from ``src/`` next to ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from time import perf_counter

import hostspeed
from tracing import SETUP, NullTracer, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

WORKLOAD_NAMES = ("sweep_closed", "sampled_retransform", "dense_verify_export", "cli_warm")
SETUP_PROBES = 5        # cold set-ups per run; setup_s is their median
MIN_PASSES = 2          # measured passes per run, whatever --seconds says
PROBE_SHARE = 0.05      # host-speed probing after a pass, as a share of the pass

# pass_s is the median of pass times scaled to the reference host speed
# (hostspeed.py), because on a shared host the same pass runs up to twice as
# slow for stretches of seconds to minutes.  The unscaled times and their
# scale factors are stored with every result.  setup_s is not scaled: a cold
# set-up runs in its own process, which the probe in this one does not track.

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("result_err", "1", "lower"),
]

# Per-layer metrics of a traced run.  ".s" is busy time and ".self_s" busy time
# minus child spans, both per pass; layers a workload does not reach read 0.
PER_LAYER = [
    ("frames.integrate_frame.s", "s", "lower"),
    ("frames.integrate_frame.self_s", "s", "lower"),
    ("frames.frame_gram_residual.s", "s", "lower"),
    ("frames.rk_substeps", "count.computed", "lower"),
    ("ribaucour.integrate_ribaucour.s", "s", "lower"),
    ("ribaucour.integrate_ribaucour.self_s", "s", "lower"),
    ("ribaucour.seed_state.s", "s", "lower"),
    ("ribaucour.transform_immersion.s", "s", "lower"),
    ("ribaucour.transformed_triple.s", "s", "lower"),
    ("ribaucour.invariant_drift.s", "s", "lower"),
    ("ribaucour.rk_substeps", "count.computed", "lower"),
    ("ribaucour.unmasked_ratio", "ratio", "higher"),
    ("triples.eval_at.s", "s", "lower"),
    ("triples.eval_at.calls", "count", "lower"),
    ("triples.eval_at.points", "count", "lower"),
    ("triples.triple_residuals.s", "s", "lower"),
    ("triples.classify.s", "s", "lower"),
    ("verify.fundamental_forms.s", "s", "lower"),
    ("verify.holonomic_data.s", "s", "lower"),
    ("verify.gauss_codazzi_residual.s", "s", "lower"),
    ("verify.isometry_check.s", "s", "lower"),
    ("verify.pair_gauss_relation.s", "s", "lower"),
    ("io.export_csv.s", "s", "lower"),
    ("io.export_csv.bytes", "bytes", "lower"),
    ("io.export_obj.s", "s", "lower"),
    ("io.export_obj.bytes", "bytes", "lower"),
    ("io.load_config.s", "s", "lower"),
    ("gallery.closed_form_transform.s", "s", "lower"),
    ("cli.import.s", "s", "lower"),
    ("cli.verify-triple.s", "s", "lower"),
    ("cli.integrate-frame.s", "s", "lower"),
    ("cli.ribaucour.s", "s", "lower"),
    ("cli.pair-check.s", "s", "lower"),
    ("cli.cflat-check.s", "s", "lower"),
    ("cli.export.s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def environment(seed, theta) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
        "seed": seed,
        "theta": theta,
    }


class Pass:
    def __init__(self, index, traced, warm, wall, attempted, verdict, error=None):
        self.index, self.traced, self.warm, self.wall = index, traced, warm, wall
        self.scale = 1.0
        self.attempted = attempted
        self.verdict = verdict
        self.failed = attempted if verdict is None else verdict.failed_ops
        self.messages = [error] if verdict is None else verdict.messages


def one_pass(wl, state, tracer, index, traced, warm):
    """Run and check one pass.  A raised SpaceformLabError fails every
    operation of the pass; a failed check fails the operations it names."""
    from workloads import SpaceformLabError

    start = perf_counter()
    try:
        out = wl.run(state, tracer)
    except SpaceformLabError as exc:
        return Pass(index, traced, warm, perf_counter() - start, wl.ops_per_pass, None,
                    f"{type(exc).__name__}: {exc}")
    wall = perf_counter() - start
    return Pass(index, traced, warm, wall, wl.ops_per_pass, wl.check(state, out))


def run_loop(wl, state, seconds, tracer=None):
    """Closed loop of passes for about ``seconds``.

    The first ``wl.warmup`` passes are checked but not timed.  A traced run
    alternates traced and untraced passes, so both see the same conditions.
    The host-speed probe runs between passes, for a twentieth of the pass
    before, and each pass is scaled by the probes on either side of it.  Once the minimum number of measured passes
    is reached, a pass starts only if, judged by the previous one, it ends
    less than half a pass after the deadline.
    """
    null = NullTracer()
    deadline = perf_counter() + seconds
    passes = []
    before = hostspeed.probe()
    while True:
        index = len(passes)
        warm = index >= wl.warmup
        traced = tracer is not None and warm and (index - wl.warmup) % 2 == 0
        if traced:
            tracer.pass_id = index
        p = one_pass(wl, state, tracer if traced else null, index, traced, warm)
        after = hostspeed.probe(PROBE_SHARE * p.wall)
        p.scale, before = hostspeed.scale(before, after), after
        passes.append(p)
        n_traced = sum(q.warm and q.traced for q in passes)
        n_plain = sum(q.warm and not q.traced for q in passes)
        enough = n_plain >= 1 and n_traced >= MIN_PASSES if tracer else n_plain >= MIN_PASSES
        if enough and perf_counter() + p.wall / 2 > deadline:
            return passes


def setup_probe_s(workload, seed) -> float:
    """Wall time of a fresh interpreter that imports the CLI, loads the
    workload's configs and builds its inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return wall


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples above
    it, or None below twenty samples, where that would not reach the median."""
    n = len(samples)
    if n < 20:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(samples)[k - 1]


def layer_metrics(tracer, passes):
    """Per-layer metrics of a traced run, and the counters of each traced pass."""
    traced = [p.index for p in passes if p.traced]
    times = {pid: tracer.layer_times(pid) for pid in traced}
    setup_times = tracer.layer_times(SETUP)
    counts = {}
    for p in passes:
        if p.traced:
            counts[p.index] = tracer.pass_counts(p.index)
            if p.verdict is not None:
                counts[p.index].update(p.verdict.stats)
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        layer, _, kind = name.rpartition(".")
        if kind in ("s", "self_s"):
            col = 0 if kind == "s" else 1
            per_pass = [times[pid][layer][col] for pid in traced if layer in times[pid]]
            if per_pass:
                out[name] = statistics.median(per_pass)
            else:
                out[name] = setup_times.get(layer, [0.0, 0.0])[col]
        elif name == "ribaucour.unmasked_ratio":
            ratios = [c["ribaucour.useful_nodes"] / c["ribaucour.nodes"]
                      for c in counts.values() if c.get("ribaucour.nodes")]
            out[name] = statistics.median(ratios) if ratios else 0.0
        else:
            out[name] = statistics.median(c.get(name, 0) for c in counts.values())
    traced_wall = [p.wall for p in passes if p.traced]
    plain_wall = [p.wall for p in passes if p.warm and not p.traced]
    out["trace.pass_s"] = statistics.median(traced_wall)
    out["trace.untraced_pass_s"] = statistics.median(plain_wall)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    out["trace.unspanned_s"] = statistics.median(
        p.wall - tracer.top_level_s(p.index) for p in passes if p.traced)
    return out, counts


def run_workload(name, seed, seconds, trace) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    tracer = Tracer() if trace else NullTracer()
    try:
        state = workloads.prepare(wl, seed, workdir, tracer)
        wl.references(state)
        setup = [] if trace else [setup_probe_s(name, seed) for _ in range(SETUP_PROBES)]
        passes = run_loop(wl, state, seconds, tracer if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    verified = [p for p in passes if p.warm and not p.traced and p.failed == 0]
    timed = verified or [p for p in passes if p.warm and not p.traced]
    pass_s = [p.wall * p.scale for p in timed]
    errs = [p.verdict.result_err for p in verified or passes if p.verdict is not None]
    report = {
        "workload": name, "seconds": seconds, "trace": trace,
        "env": environment(seed, workloads.theta_for(seed)),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f"pass {p.index}: {m}" for p in passes for m in p.messages],
        "setup_samples_s": setup,
        "pass_samples_s": [p.wall for p in timed],
        "pass_scales": [p.scale for p in timed],
        "pass_median_s": statistics.median(pass_s),
        "pass_tail": tail_percentile(pass_s),
    }
    if trace:
        metrics, counts = layer_metrics(tracer, passes)
        report["counts"] = {str(k): v for k, v in counts.items()}
        tracer.dump(os.path.join(OUT, f"{name}-seed{seed}-spans.json"))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_err": errs[-1] if errs else math.inf,
        }
    report["metrics"] = metrics
    report["correct"] = failed == 0 and bool(verified) and all(
        math.isfinite(v) for v in metrics.values())
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def print_report(report):
    env = report["env"]
    print(f"workload {report['workload']}  seed {env['seed']}  theta {env['theta']:.6f}  "
          f"seconds {report['seconds']:g}  trace {report['trace']}")
    print("env " + json.dumps(env))
    for name, value in report["metrics"].items():
        print(f"  {name:<40} {value:.6g} {UNITS[name]}")
    n = len(report["pass_samples_s"])
    tail = report["pass_tail"]
    tail_txt = f"p{tail[0]} {tail[1]:.6g} s" if tail else "no tail percentile below 20 passes"
    print(f"  {'passes measured':<40} {n}, median {report['pass_median_s']:.6g} s scaled "
          f"({tail_txt}), {statistics.median(report['pass_samples_s']):.6g} s unscaled, "
          f"host-speed scale median {statistics.median(report['pass_scales']):.4g}")
    print(f"  {'fail_ratio':<40} {report['fail_ratio']:.6g} "
          f"({report['failed']}/{report['attempted']} operations)")
    for line in report["failures"][:20]:
        print(f"  FAILED {line}")


def result_line(report) -> str:
    metrics = {name: {"value": value if math.isfinite(value) else None, "unit": UNITS[name]}
               for name, value in report["metrics"].items()}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spaceform_lab", "cli.py")):
        print(f"error: no spaceform_lab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        import workloads

        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, workdir,
                              NullTracer())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
