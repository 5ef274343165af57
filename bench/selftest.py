"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that BENCHMARK.json names the metrics the harness prints, that two
traced passes on one seed give identical work counters, and that injected
bad inputs show up as failed operations rather than being skipped.  Exits
non-zero on the first broken expectation.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import run


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(listed == table, f"BENCHMARK.json {key} matches the harness")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match the harness")


def fail_counts(passes):
    return sum(p.failed for p in passes), sum(p.attempted for p in passes)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "spaceform_lab", "cli.py")):
        print(f"error: no spaceform_lab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    import workloads
    from tracing import NullTracer, Tracer

    check_benchmark_json()
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name in run.WORKLOAD_NAMES:
            wl = workloads.WORKLOADS[name]
            tracer = Tracer()
            state = workloads.prepare(wl, 0, tempfile.mkdtemp(dir=workdir), tracer)
            wl.references(state)
            counts = []
            for index in (1, 2):
                tracer.pass_id = index
                p = run.one_pass(wl, state, tracer, index, True, True)
                expect(p.failed == 0, f"{name}: traced pass {index} verified {p.messages}")
                counts.append({**tracer.pass_counts(index), **p.verdict.stats})
            expect(counts[0] == counts[1] and counts[0],
                   f"{name}: counters repeat exactly {counts[0]}")
            if "frames.rk_substeps" in counts[0]:
                substeps = counts[0]["frames.rk_substeps"] + counts[0]["ribaucour.rk_substeps"]
                expect(counts[0]["triples.eval_at.calls"] == 4 * substeps,
                       f"{name}: RHS evaluations = 4 x computed RK substeps")

        wl = workloads.WORKLOADS["sweep_closed"]
        state = workloads.prepare(wl, 0, tempfile.mkdtemp(dir=workdir), NullTracer())
        wl.references(state)
        good_cfg = state.cfg
        state.cfg = copy.deepcopy(good_cfg)
        state.cfg.ribaucour["family"] = {"kind": "cflat", "K": 1.0, "rho": 1.0}
        failed, attempted = fail_counts(run.run_loop(wl, state, 0.0))
        expect(attempted > 0 and failed == attempted,
               f"sweep_closed: cflat family with K > 0 fails every pass ({failed}/{attempted})")
        state.cfg = good_cfg
        state.ref = state.ref * (1 + 1e-5)
        failed, attempted = fail_counts(run.run_loop(wl, state, 0.0))
        expect(attempted > 0 and failed == attempted,
               f"sweep_closed: a wrong reference fails every check ({failed}/{attempted})")

        wl = workloads.WORKLOADS["cli_warm"]
        cli_dir = tempfile.mkdtemp(dir=workdir)
        state = workloads.prepare(wl, 0, cli_dir, NullTracer())
        wl.references(state)
        with open(os.path.join(cli_dir, "cflat-check.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["ribaucour"]["family"]["K"] = 1.0
        with open(os.path.join(cli_dir, "cflat-check.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        passes = run.run_loop(wl, state, 0.0)
        failed, attempted = fail_counts(passes)
        expect(failed == len(passes) and attempted == len(passes) * wl.ops_per_pass,
               f"cli_warm: a cflat config with K > 0 fails one command per pass "
               f"({failed}/{attempted})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
