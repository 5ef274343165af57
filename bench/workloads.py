"""The benchmark's four workloads: seeded configs, set-up, one pass, checks.

A workload makes its inputs from the seed alone.  The seed draws the family
parameter theta; grids, boxes, families and gates are fixed here.  The three
library workloads call the public functions of the package in the order the
CLI uses them, each call wrapped in a span; ``cli_warm`` runs the CLI's
subcommands through ``cli.run``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import spaceform_lab
from spaceform_lab import cli  # set-up pays the CLI import, as users do
from spaceform_lab import gallery as gal
from spaceform_lab.errors import SpaceformLabError
from spaceform_lab.frames import frame_gram_residual, integrate_frame
from spaceform_lab.io import export_csv, export_obj, load_config
from spaceform_lab.ribaucour import (
    RibaucourState,
    integrate_ribaucour,
    invariant_drift,
    seed_state,
    transform_immersion,
    transformed_triple,
)
from spaceform_lab.triples import classify, triple_residuals
from spaceform_lab.verify import (
    ImmersionSample,
    fundamental_forms,
    gauss_codazzi_residual,
    holonomic_data,
    isometry_check,
    pair_gauss_relation,
)

from tracing import traced_eval_at

# theta is drawn from [pi/8, pi/8 + pi/32].  Over the wider [pi/8, 3pi/8] the
# pair-Gauss residual crosses the pair-check gate (1e-5) for theta in about
# [0.80, 0.95], and the headline errors vary 2-4x with theta, so ten seeds
# would spread wider than any regression bound the benchmark may fix.
THETA_LO = math.pi / 8
THETA_SPAN = math.pi / 32

UNIT_BOX = ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
PAIR62_BOX = ([0.096, 0.396, 0.196], [0.104, 0.404, 0.204])
PROBLEMSTAR_SEED = {"gallery": "problemstar_e1_Cneg", "C": -1.0}
FLAT = {"c": 0.0, "s": 0}

REPORT_TOL = 1e-6             # the CLI's default report gate
PAIR_TOL = 10 * REPORT_TOL    # pair-check's gate on the pair-Gauss residual
GRAM_TOL = 1e-8
FPRIME_REL_TOL = 1e-7         # RK4 at max_step 1e-2 gives 1.1e-9

# Request for the second transformation in sampled_retransform.  Small gamma
# and beta keep phi and psi away from zero on the whole box; the family's own
# state at the base node overflows or masks nodes for some theta.
RETRANSFORM_REQUEST = RibaucourState(gamma=(0.1, 0.1, 0.1), vprime=(0.5, 0.5, 0.5),
                                     phi=2.0, psi=0.0, beta=0.1)

CLI_COMMANDS = ("verify-triple", "integrate-frame", "ribaucour", "pair-check",
                "cflat-check", "export")


def theta_for(seed) -> float:
    return THETA_LO + THETA_SPAN * random.Random(seed).random()


def grid_doc(box, n):
    lo, hi = box
    return {"lo": lo, "hi": hi, "n": [n] * 3, "base": [n // 2] * 3}


def problemstar_doc(box, n, theta, **extra):
    """A pipeline62-style config: the problemstar family with K = a = 1 in R^4."""
    family = {"kind": "problemstar", "K": 1.0, "a": 1.0, "rho": 1.0, "theta": theta}
    return {"seed": PROBLEMSTAR_SEED, "ambient": FLAT, "grid": grid_doc(box, n),
            "ribaucour": {"family": family}, **extra}


def family(cfg) -> gal.PhiFamily:
    spec = cfg.ribaucour["family"]
    kw = {k: spec[k] for k in ("K", "a", "rho", "theta") if k in spec}
    return gal.PhiFamily(spec["kind"], c=cfg.ambient.get("c", 0.0),
                         eps=1 - 2 * cfg.ambient.get("s", 0), **kw)


def rk_substeps(grid, max_step) -> int:
    """RK4 substeps of one sweep, computed the way ``_sweep.rk4_march`` splits
    each node interval.  Each substep evaluates the RHS four times."""
    total = 0
    for axis in range(3):
        nodes = grid.axis(axis)
        for a, b in zip(nodes[:-1], nodes[1:]):
            total += max(1, math.ceil(abs(b - a) / max_step))
    return total


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Verdict:
    """Outcome of the checks on one pass."""

    failed_ops: int
    messages: list
    result_err: float
    stats: dict = field(default_factory=dict)   # exact per-pass numbers


def prepare(workload, seed, workdir, tracer):
    """Write the seeded configs, load them through ``io.load_config`` and
    build the workload's inputs."""
    cfgs = {}
    for label, doc in workload.configs(theta_for(seed)).items():
        if "outputs" in doc:
            doc["outputs"] = {k: os.path.join(workdir, v) for k, v in doc["outputs"].items()}
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        cfgs[label] = tracer.call("io.load_config", load_config, path)
    return workload.setup(cfgs, tracer, workdir)


def _verdict(state, messages, err, fingerprint, stats=None):
    """One operation per pass: it fails on a failed gate, or when its results
    differ from those of the first verified pass (reruns are byte-identical)."""
    if not messages:
        if state.first is None:
            state.first = fingerprint
        elif fingerprint != state.first:
            messages.append(f"results {fingerprint} differ from the first pass {state.first}")
    return Verdict(int(bool(messages)), messages, err, stats or {})


def _node_stats(rfs):
    return {"ribaucour.nodes": sum(rf.states[..., 0].size for rf in rfs),
            "ribaucour.useful_nodes": sum(int(rf.valid_mask().sum()) for rf in rfs)}


def _gate(messages, label, value, limit):
    if not value <= limit:
        messages.append(f"{label} {value:.3e} exceeds {limit:.1e}")


def _sweep_state(cfg):
    return SimpleNamespace(cfg=cfg, substeps=rk_substeps(cfg.grid, cfg.max_step), first=None)


def _seed_and_sweep(state, t, cfg):
    """The CLI's family branch: seed triple, closed-form state, Ribaucour sweep."""
    grid = cfg.grid
    fam = t.call("gallery.PhiFamily", family, cfg)
    triple = traced_eval_at(t, t.call("gallery.seed_triple", fam.seed_triple, grid))
    init = t.call("gallery.phi_state", gal.phi_state, fam, grid.base_point)
    t.count("ribaucour.rk_substeps", state.substeps)
    rf = t.call("ribaucour.integrate_ribaucour", integrate_ribaucour, triple, init, grid,
                max_step=cfg.max_step, mask_tol=cfg.tolerances["mask"],
                K2target=fam.K2target)
    return fam, triple, rf


class SweepClosed:
    """The ribaucour pipeline on the closed-form problemstar family at 41^3."""

    name = "sweep_closed"
    ops_per_pass = 1
    warmup = 1

    def configs(self, theta):
        return {"sweep": problemstar_doc(UNIT_BOX, 41, theta)}

    def setup(self, cfgs, tracer, workdir):
        return _sweep_state(cfgs["sweep"])

    def references(self, state):
        cfg = state.cfg
        state.ref = gal.closed_form_transform(family(cfg))(cfg.grid.points())
        state.ref_scale = float(np.abs(state.ref).max())

    def run(self, state, t):
        cfg = state.cfg
        fam, triple, rf = _seed_and_sweep(state, t, cfg)
        t.count("frames.rk_substeps", state.substeps)
        ff = t.call("frames.integrate_frame", integrate_frame, triple, fam.frame_init(),
                    cfg.grid, max_step=cfg.max_step,
                    integrability_tol=cfg.tolerances["integrability"])
        fprime = t.call("ribaucour.transform_immersion", transform_immersion, ff, rf)
        drift = t.call("ribaucour.invariant_drift", invariant_drift, rf)
        tt = t.call("ribaucour.transformed_triple", transformed_triple, triple, rf)
        cls = t.call("triples.classify", classify, tt, cfg.tolerances["report"])
        return SimpleNamespace(rf=rf, fprime=fprime, drift=drift, cls=cls)

    def check(self, state, out):
        messages = []
        ok = out.fprime.valid_mask()
        if ok.any():
            diff = np.abs(out.fprime.positions[ok] - state.ref[ok])
            err = float(diff.max()) / state.ref_scale
        else:
            messages.append("every node of F' is masked")
            err = math.inf
        _gate(messages, "relative F' error", err, FPRIME_REL_TOL)
        _gate(messages, "invariant drift", out.drift.overall, REPORT_TOL)
        if out.cls.kind != "ProblemStar":
            messages.append(f"transformed triple classifies as {out.cls.kind}")
        stats = _node_stats([out.rf])
        return _verdict(state, messages, err, (err, stats), stats)


class SampledRetransform:
    """Transform a transformed hypersurface: sweeps fed by sampled data at 11^3."""

    name = "sampled_retransform"
    ops_per_pass = 1
    warmup = 1

    def configs(self, theta):
        return {"sampled": problemstar_doc(UNIT_BOX, 11, theta)}

    def setup(self, cfgs, tracer, workdir):
        return _sweep_state(cfgs["sampled"])

    def references(self, state):
        pass

    def run(self, state, t):
        cfg = state.cfg
        grid = cfg.grid
        fam, triple, rf = _seed_and_sweep(state, t, cfg)
        tt = traced_eval_at(t, t.call("ribaucour.transformed_triple", transformed_triple,
                                      triple, rf))
        t.call("triples.triple_residuals", triple_residuals, tt)
        cls = t.call("triples.classify", classify, tt, cfg.tolerances["report"])
        # Sampled data misses the 1e-8 integrability precondition (its
        # finite-difference residual is 0.72 at 11^3), so the frame sweep
        # takes the documented diagnostic path.
        t.count("frames.rk_substeps", state.substeps)
        ff = t.call("frames.integrate_frame", integrate_frame, tt, fam.frame_init(), grid,
                    max_step=cfg.max_step, integrability_tol=None)
        gram = t.call("frames.frame_gram_residual", frame_gram_residual, ff)
        if not cls.is_problem_star:
            raise SpaceformLabError(f"transformed triple classifies as {cls.kind}")
        k2 = float(cls.eps_hat)
        init = t.call("ribaucour.seed_state", seed_state, tt, grid.base,
                      RETRANSFORM_REQUEST, k2)
        t.count("ribaucour.rk_substeps", state.substeps)
        rf2 = t.call("ribaucour.integrate_ribaucour", integrate_ribaucour, tt, init, grid,
                     max_step=cfg.max_step, mask_tol=cfg.tolerances["mask"], K2target=k2)
        t.call("ribaucour.transform_immersion", transform_immersion, ff, rf2)
        drift = t.call("ribaucour.invariant_drift", invariant_drift, rf2)
        return SimpleNamespace(rfs=[rf, rf2], gram=gram, drift=drift)

    def check(self, state, out):
        messages = []
        _gate(messages, "frame Gram residual", out.gram.overall_max, GRAM_TOL)
        _gate(messages, "K1 drift", out.drift.K1, REPORT_TOL)
        _gate(messages, "K2 drift", out.drift.K2, REPORT_TOL)
        err = out.drift.Omega
        if not math.isfinite(err):
            messages.append("Omega drift is not finite")
        stats = _node_stats(out.rfs)
        return _verdict(state, messages, err, (err, stats), stats)


def csv_digest(grid, values) -> str:
    """sha256 of the CSV ``io.export_csv`` must write for an unmasked field,
    formatted here independently of the package."""
    m = values.shape[-1]
    h = hashlib.sha256()
    h.update(("u1,u2,u3," + ",".join(f"x{i + 1}" for i in range(m)) + "\n").encode())
    pts = grid.points()
    for i in range(grid.n[0]):
        rows = np.concatenate([pts[i], values[i]], axis=-1).reshape(-1, 3 + m).tolist()
        h.update("".join(",".join(map(repr, row)) + "\n" for row in rows).encode())
    return h.hexdigest()


def obj_digest(grid, positions, k) -> str:
    """sha256 of the OBJ mesh of the unmasked slice u3 = node k, projection (0, 1, 2)."""
    sheet = positions[:, :, k, :3]
    n1, n2 = sheet.shape[:2]
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in sheet.reshape(-1, 3).tolist()]
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            a = i * n2 + j + 1
            lines += [f"f {a} {a + n2} {a + n2 + 1}", f"f {a} {a + n2 + 1} {a + 1}"]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def _closed_form_sample(fam, grid):
    return ImmersionSample(grid, gal.closed_form_transform(fam)(grid.points()), fam.spec)


class DenseVerifyExport:
    """The pair-check verification chain plus CSV/OBJ export at 41^3 on the pair62 box."""

    name = "dense_verify_export"
    ops_per_pass = 1
    warmup = 1

    def configs(self, theta):
        return {"pair": problemstar_doc(PAIR62_BOX, 41, theta,
                                        tolerances={"report": REPORT_TOL})}

    def setup(self, cfgs, tracer, workdir):
        cfg = cfgs["pair"]
        fam = family(cfg)
        fam_s = gal.PhiFamily("problemstar_sphere", K=-2.0, c=1.0, eps=1, rho=fam.rho,
                              theta=fam.theta, phases=fam.phases)
        fr = tracer.call("gallery.closed_form_transform", _closed_form_sample, fam, cfg.grid)
        fs = tracer.call("gallery.closed_form_transform", _closed_form_sample, fam_s,
                         cfg.grid)
        return SimpleNamespace(cfg=cfg, fam=fam, fam_s=fam_s, fr=fr, fs=fs, first=None,
                               csv=os.path.join(workdir, "fprime.csv"),
                               obj=os.path.join(workdir, "fprime_slice.obj"))

    def _slice(self, grid):
        return int(np.argmin(np.abs(grid.axis(2) - grid.base_point[2])))

    def references(self, state):
        grid = state.cfg.grid
        state.csv_sha = csv_digest(grid, state.fr.positions)
        state.obj_sha = obj_digest(grid, state.fr.positions, self._slice(grid))

    def run(self, state, t):
        fr, fs, fam, fam_s = state.fr, state.fs, state.fam, state.fam_s
        grid = state.cfg.grid
        forms_r = t.call("verify.fundamental_forms", fundamental_forms, fr)
        forms_s = t.call("verify.fundamental_forms", fundamental_forms, fs)
        lam_r = t.call("verify.holonomic_data", holonomic_data, fr, forms_r)[3]
        lam_s = t.call("verify.holonomic_data", holonomic_data, fs, forms_s)[3]
        pair = t.call("verify.pair_gauss_relation", pair_gauss_relation, lam_r, lam_s,
                      fam.c, fam_s.c, fam.eps, fam_s.eps)
        iso = t.call("verify.isometry_check", isometry_check, fr, fs)
        gc = t.call("verify.gauss_codazzi_residual", gauss_codazzi_residual, fr)
        t.call("io.export_csv", export_csv, fr.positions, grid, state.csv)
        t.call("io.export_obj", export_obj, fr.positions, grid, 2, grid.base_point[2],
               (0, 1, 2), state.obj)
        if t.enabled:
            t.count("io.export_csv.bytes", os.path.getsize(state.csv))
            t.count("io.export_obj.bytes", os.path.getsize(state.obj))
        return SimpleNamespace(pair=pair, iso=iso, gc=gc)

    def check(self, state, out):
        messages = []
        err = out.pair.report.overall_max
        _gate(messages, "isometry residual", out.iso.overall_max, REPORT_TOL)
        _gate(messages, "pair-Gauss residual", err, PAIR_TOL)
        if sha256_file(state.csv) != state.csv_sha:
            messages.append("CSV export differs from the reference formatting")
        if sha256_file(state.obj) != state.obj_sha:
            messages.append("OBJ export differs from the reference mesh")
        return _verdict(state, messages, err,
                        (err, out.iso.overall_max, out.gc.overall_max))


class CliWarm:
    """The six config-driven subcommands through ``spaceform_lab.cli.run`` in one
    process.  Import cost is not part of a pass: ``setup_s`` pays it cold."""

    name = "cli_warm"
    ops_per_pass = len(CLI_COMMANDS)
    warmup = 1

    def configs(self, theta):
        seed62 = {"seed": PROBLEMSTAR_SEED, "ambient": FLAT, "grid": grid_doc(UNIT_BOX, 21)}
        cflat = {"seed": {"gallery": "cflat"}, "ambient": FLAT,
                 "grid": grid_doc(UNIT_BOX, 21),
                 "ribaucour": {"family": {"kind": "cflat", "K": -1.0, "rho": 1.0,
                                          "theta": theta}}}
        return {
            "verify-triple": {**seed62, "outputs": {"report": "verify-triple.report.json"}},
            "integrate-frame": {**seed62,
                                "outputs": {"report": "integrate-frame.report.json"}},
            "ribaucour": problemstar_doc(UNIT_BOX, 21, theta, outputs={
                "report": "ribaucour.report.json", "csv": "ribaucour.csv",
                "obj": "ribaucour.obj"}),
            "pair-check": problemstar_doc(PAIR62_BOX, 21, theta,
                                          tolerances={"report": REPORT_TOL},
                                          outputs={"report": "pair-check.report.json"}),
            "cflat-check": {**cflat, "outputs": {"report": "cflat-check.report.json"}},
            "export": problemstar_doc(UNIT_BOX, 21, theta,
                                      outputs={"csv": "export.csv", "obj": "export.obj"}),
        }

    def setup(self, cfgs, tracer, workdir):
        outputs = {cmd: sorted(cfg.outputs.values()) for cmd, cfg in cfgs.items()}
        if tracer.enabled:
            src = os.path.dirname(os.path.dirname(os.path.abspath(spaceform_lab.__file__)))
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            tracer.call("cli.import", subprocess.run,
                        [sys.executable, "-c", "import spaceform_lab.cli"], env=env,
                        check=True)
        return SimpleNamespace(cfgs=cfgs, workdir=workdir, outputs=outputs, first=None)

    def references(self, state):
        cfg = state.cfgs["ribaucour"]
        ref = gal.closed_form_transform(family(cfg))(cfg.grid.points())
        state.ref = ref.reshape(-1, ref.shape[-1])
        state.ref_scale = float(np.abs(ref).max())

    def run(self, state, t):
        results = {}
        for cmd in CLI_COMMANDS:
            argv = [cmd, "--config", os.path.join(state.workdir, f"{cmd}.json")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = t.call(f"cli.{cmd}", cli.run, argv)
            results[cmd] = code, out.getvalue(), err.getvalue()
        if t.enabled:
            for cmd in CLI_COMMANDS:
                for path in state.outputs[cmd]:
                    kind = os.path.splitext(path)[1][1:]
                    if kind in ("csv", "obj"):
                        t.count(f"io.export_{kind}.bytes", os.path.getsize(path))
        return results

    def _fprime_error(self, state):
        path = os.path.join(state.workdir, "ribaucour.csv")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (len(state.ref), 3 + state.ref.shape[1]):
            raise ValueError(f"ribaucour.csv has shape {table.shape}")
        return float(np.abs(table[:, 3:] - state.ref).max()) / state.ref_scale

    def check(self, state, results):
        problems = {cmd: [] for cmd in CLI_COMMANDS}
        digests = {}
        for cmd, (code, stdout, stderr) in results.items():
            if code != 0:
                problems[cmd].append(f"exit code {code}: {stderr[-300:].strip()}")
            files = state.outputs[cmd]
            digests[cmd] = [hashlib.sha256(stdout.encode()).hexdigest()] + [
                sha256_file(p) if os.path.exists(p) else None for p in files]
            if None in digests[cmd]:
                problems[cmd].append("an output file is missing")
        try:
            err = self._fprime_error(state)
        except (OSError, ValueError) as exc:
            problems["ribaucour"].append(f"cannot read F' from ribaucour.csv: {exc}")
            err = math.inf
        _gate(problems["ribaucour"], "relative F' error", err, FPRIME_REL_TOL)
        if not any(problems.values()):
            if state.first is None:
                state.first = digests
            for cmd in CLI_COMMANDS:
                if digests[cmd] != state.first[cmd]:
                    problems[cmd].append("outputs differ from the first pass")
        messages = [f"{cmd}: {m}" for cmd, ms in problems.items() for m in ms]
        return Verdict(sum(1 for ms in problems.values() if ms), messages, err)


WORKLOADS = {w.name: w for w in (SweepClosed(), SampledRetransform(), DenseVerifyExport(),
                                 CliWarm())}
