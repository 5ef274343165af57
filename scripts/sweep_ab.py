"""Time two checkouts' sweeps in one process, alternating, and compare their bytes.

Loads ``src/spaceform_lab`` of this checkout (``--root``) and of another
(``--against``) under two package names, ``ab_root`` and ``ab_against``, and
runs the inputs of the benchmark's ``sweep_closed`` workload on both: the
problemstar family (K = a = 1, seed problemstar_e1_Cneg with C = -1) in R^4
on the unit box with n^3 nodes, base at the centre, max_step 1e-2.  Each
round runs, on one side and then the other (the side that goes first
alternates):

    frame      integrate_frame of the seed triple
    ribaucour  integrate_ribaucour of the seed triple and its phi-state
    pass       the Ribaucour sweep, the frame sweep, transform_immersion,
               invariant_drift, transformed_triple and classify
    sampled    the steps of the benchmark's ``sampled_retransform`` workload,
               always on the 11^3 unit box: the seed's Ribaucour sweep,
               transformed_triple, triple_residuals and classify, then on
               that sampled triple the frame sweep (no integrability gate),
               frame_gram_residual, seed_state of the second request, the
               second Ribaucour sweep, transform_immersion and invariant_drift

and times each with ``time.perf_counter``.  While the two sweeps run,
``_sweep.rk4_march`` is wrapped to add up the time spent inside the march of
each axis phase (the node writes between arrivals are left out); a phase is
named by its lines per direction, B = 1, n and n^2 (1, 11 and 121 for
``sampled``, whose three sweeps add up per phase).  Within the pass, the
four steps after the sweeps are also timed each on its own line, as
``pass transform_immersion``, ``pass invariant_drift``, ``pass
transformed_triple`` and ``pass classify``.

Prints a sha256 per run kind and side (the frame states; the Ribaucour states
and mask; everything the pass returns; every sweep state, the transformed
triple, F' and the drift of ``sampled``), the Omega drift of the second
transform in ``sampled`` per side (the benchmark's ``result_err`` there), per
run kind and side the ``TripleField.eval_at`` calls and the spline
evaluations actually made (``triples._CubicSpline`` calls; a constant triple
makes none), counted in the untimed warm-up round: the march makes one call
per direction per batch of RK4 substeps, each reaching the spline; per run
kind, phase and
side the state rows marched with RK4 against the state rows of its sweeps
(e.g. ``frame B=1681  root 0/20`` and ``pass B=1681  root 0/29``: a
constant triple's frame and Ribaucour system are propagated exactly and
march none of their rows; ``sampled B=121  root 29/38``: the sampled
triple's frame and Ribaucour sweeps march, the seed's does not; a run's
sweeps add up per phase), and per timing the
median of each side, the median, least and largest of the per-round ratios
root/against, and the rounds in which root was faster.  A phase that marches
nothing has no march time.  Exits 1 if the digests differ.

    python scripts/sweep_ab.py --against OTHER_DIR
    python scripts/sweep_ab.py --against OTHER_DIR --n 21 --rounds 30 --json out.json

Both checkouts must have the one-system sweep,
``sweep_integrate(triple, grid, order, make_body, y0, ...)``, and the batched
lane generator ``rk4_march(triple, body, lanes, axis)``.  Separate benchmark
processes cannot attribute a change of a few percent: one process and
interleaved rounds share the host's state.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

SIDES = ("root", "against")
RUNS = {"frame": "frame", "ribaucour": "ribaucour", "pass": "run_pass",
        "sampled": "sampled"}                                   # run -> Side method
SAMPLED_N = 11              # nodes per axis of the sampled_retransform workload


def load_package(checkout, name):
    """``checkout``'s src/spaceform_lab imported as the package ``name``."""
    src = Path(checkout).resolve() / "src" / "spaceform_lab"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def theta_for(seed):
    """The family parameter the benchmark draws from ``seed`` (bench/workloads.py)."""
    return math.pi / 8 + math.pi / 32 * random.Random(seed).random()


class Side:
    """One checkout's package, its inputs and its per-phase march times."""

    def __init__(self, checkout, name, n, theta):
        load_package(checkout, name)
        self.mod = {m: importlib.import_module(f"{name}.{m}")
                    for m in ("_sweep", "frames", "gallery", "grid", "ribaucour", "triples")}
        gal = self.mod["gallery"]
        self.fam = gal.PhiFamily("problemstar", K=1.0, a=1.0, rho=1.0, theta=theta,
                                 c=0.0, eps=1)
        self.grid, self.triple, self.init = self._inputs(n)
        self.sampled_inputs = self._inputs(SAMPLED_N)
        # bench/workloads.RETRANSFORM_REQUEST, the second transform's request
        self.request = self.mod["ribaucour"].RibaucourState(
            gamma=(0.1, 0.1, 0.1), vprime=(0.5, 0.5, 0.5), phi=2.0, psi=0.0, beta=0.1)
        self.omega = None
        self.phases = {}
        self.steps = {}
        self.evals = None           # {"eval_at": calls, "spline": calls} while counting
        self.rows = {}              # phase -> {sweep: (rows marched, state rows)}
        self.sweep = (0, None)      # (sweeps begun, state rows of the last)
        sweep = self.mod["_sweep"]
        sweep.rk4_march = self._timed(sweep.rk4_march)
        for name in ("frames", "ribaucour"):
            self.mod[name].sweep_integrate = self._sized(self.mod[name].sweep_integrate)

    def _inputs(self, n):
        """The unit box with n^3 nodes and its base at the centre, the seed
        triple on it and the family's phi-state at the base."""
        grid = self.mod["grid"].ParameterGrid((-1.0,) * 3, (1.0,) * 3, (n,) * 3, (n // 2,) * 3)
        return (grid, self.fam.seed_triple(grid),
                self.mod["gallery"].phi_state(self.fam, grid.base_point))

    @contextlib.contextmanager
    def counting(self):
        """Count ``TripleField.eval_at`` calls and spline evaluations into
        ``evals`` while inside (class attributes, wrapped and then restored)."""
        tri = self.mod["triples"]
        patched = [(cls, attr, getattr(cls, attr), key) for cls, attr, key in (
            (tri.TripleField, "eval_at", "eval_at"), (tri._CubicSpline, "__call__", "spline"))]
        self.evals = dict.fromkeys(("eval_at", "spline"), 0)

        def counted(inner, key):
            def call(obj, *args, **kwargs):
                self.evals[key] += 1
                return inner(obj, *args, **kwargs)
            return call

        for cls, attr, inner, key in patched:
            setattr(cls, attr, counted(inner, key))
        try:
            yield
        finally:
            for cls, attr, inner, _ in patched:
                setattr(cls, attr, inner)
            self.evals = None

    def _sized(self, sweep_integrate):
        """``sweep_integrate``, noting the sweep's state rows in each of its
        phases, none of them marched until ``rk4_march`` says otherwise."""
        def sized(triple, grid, order, make_body, y0, *args, **kwargs):
            index = self.sweep[0] + 1
            self.sweep = (index, y0.size)
            for k in range(3):
                key = math.prod(grid.n[a] for a in list(order)[:k])
                self.rows.setdefault(key, {})[index] = (0, y0.size)
            return sweep_integrate(triple, grid, order, make_body, y0, *args, **kwargs)
        return sized

    def _marched(self, key, y):
        """Note the rows of ``y`` as the rows the current sweep marches in phase ``key``."""
        sweep, rows = self.sweep
        if rows is not None:
            self.rows.setdefault(key, {})[sweep] = (len(y), rows)

    def marched_rows(self):
        """Per phase, the rows marched and the state rows, added over the sweeps."""
        return {key: [sum(r[i] for r in sweeps.values()) for i in (0, 1)]
                for key, sweeps in self.rows.items()}

    def _timed(self, march):
        phases = self.phases

        def rk4_march(triple, body, lanes, axis):
            key = len(lanes[0][0])
            self._marched(key, lanes[0][1])
            inner = march(triple, body, lanes, axis)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    phases[key] = phases.get(key, 0.0) + time.perf_counter() - t0
                    return
                phases[key] = phases.get(key, 0.0) + time.perf_counter() - t0
                yield item

        return rk4_march

    def frame(self):
        ff = self.mod["frames"].integrate_frame(self.triple, self.fam.frame_init(), self.grid)
        return ff, [ff.states]

    def ribaucour(self):
        rf = self.mod["ribaucour"].integrate_ribaucour(self.triple, self.init, self.grid,
                                                       K2target=self.fam.K2target)
        return rf, [rf.states, rf.valid_mask()]

    def _step(self, fn, *args):
        """``fn(*args)``, its time kept in ``steps`` under its name."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.steps[fn.__name__] = time.perf_counter() - t0
        return out

    def run_pass(self):
        rib = self.mod["ribaucour"]
        rf, _ = self.ribaucour()
        ff, _ = self.frame()
        fprime = self._step(rib.transform_immersion, ff, rf)
        drift = self._step(rib.invariant_drift, rf)
        tt = self._step(rib.transformed_triple, self.triple, rf)
        cls = self._step(self.mod["triples"].classify, tt, 1e-6)
        return None, [rf.states, ff.states, fprime.positions, tt.v, tt.h, tt.V,
                      repr((drift.K1, drift.K2, drift.Omega)).encode(),
                      repr(cls).encode()]

    def sampled(self):
        """The ``sampled_retransform`` steps (module docstring)."""
        frames, rib, tri = self.mod["frames"], self.mod["ribaucour"], self.mod["triples"]
        grid, seed, init = self.sampled_inputs
        rf = rib.integrate_ribaucour(seed, init, grid, K2target=self.fam.K2target)
        tt = rib.transformed_triple(seed, rf)
        tri.triple_residuals(tt)
        cls = tri.classify(tt, 1e-6)
        ff = frames.integrate_frame(tt, self.fam.frame_init(), grid, integrability_tol=None)
        frames.frame_gram_residual(ff)
        k2 = float(cls.eps_hat)
        rf2 = rib.integrate_ribaucour(tt, rib.seed_state(tt, grid.base, self.request, k2), grid,
                                      K2target=k2)
        fprime = rib.transform_immersion(ff, rf2)
        drift = rib.invariant_drift(rf2)
        self.omega = drift.Omega
        return None, [rf.states, tt.v, tt.h, tt.V, ff.states, rf2.states, rf2.valid_mask(),
                      fprime.positions, repr((drift.K1, drift.K2, drift.Omega)).encode()]


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def one_round(sides, order):
    """Each run kind on both sides, ``order`` first; returns the times, the
    digests, the evaluation counts and the marched rows of this round."""
    times = {side: {} for side in sides}
    digests = {side: {} for side in sides}
    evals = {side: {} for side in sides}
    rows = {side: {} for side in sides}
    for run in RUNS:
        for name in order:
            side = sides[name]
            side.phases.clear()
            side.rows.clear()
            if side.evals is not None:
                side.evals.update(eval_at=0, spline=0)
            times[name][run], (_, parts) = timed(getattr(side, RUNS[run]))
            digests[name][run] = digest(parts)
            if side.evals is not None:
                evals[name][run] = dict(side.evals)
            for key, marched in sorted(side.marched_rows().items()):
                rows[name][f"{run} B={key}"] = marched
            if run != "pass":
                for key, s in side.phases.items():
                    times[name][f"{run} B={key}"] = s
            else:
                for step, s in side.steps.items():
                    times[name][f"pass {step}"] = s
    return times, digests, evals, rows


def summary(rounds, label):
    root = [r["root"][label] for r in rounds]
    against = [r["against"][label] for r in rounds]
    ratios = [a / b for a, b in zip(root, against)]
    return {"root_median_s": statistics.median(root),
            "against_median_s": statistics.median(against),
            "ratio_median": statistics.median(ratios), "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "root_faster": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
            "ratios": ratios}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout timed as 'root' (default: this one)")
    parser.add_argument("--against", required=True, metavar="OTHER_DIR",
                        help="checkout timed as 'against'")
    parser.add_argument("--n", type=int, default=41, help="nodes per axis (default 41)")
    parser.add_argument("--rounds", type=int, default=12, help="timed rounds (default 12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed that draws theta (default 0)")
    parser.add_argument("--json", metavar="PATH", help="also write every time to PATH")
    args = parser.parse_args(argv)
    if args.n < 3 or args.rounds < 1:
        parser.error("--n must be at least 3 and --rounds at least 1")

    theta = theta_for(args.seed)
    sides = {"root": Side(args.root, "ab_root", args.n, theta),
             "against": Side(args.against, "ab_against", args.n, theta)}
    with sides["root"].counting(), sides["against"].counting():
        _, _, evals, rows = one_round(sides, SIDES)     # warm-up, not timed
    rounds, digests = [], None
    for k in range(args.rounds):
        times, digests, _, _ = one_round(sides, SIDES if k % 2 == 0 else SIDES[::-1])
        rounds.append(times)

    print(f"root     {Path(args.root).resolve()}")
    print(f"against  {Path(args.against).resolve()}")
    print(f"inputs   sweep_closed family, theta {theta!r}, {args.n}^3 unit box, "
          f"{args.rounds} rounds")
    same = True
    for run in RUNS:
        a, b = digests["root"][run], digests["against"][run]
        same &= a == b
        print(f"sha256 {run:<10} root {a[:16]}  against {b[:16]}  "
              f"{'same' if a == b else 'DIFFER'}")
    for run in RUNS:
        root, against = evals["root"][run], evals["against"][run]
        print(f"evals  {run:<10} eval_at root {root['eval_at']:>6} against "
              f"{against['eval_at']:>6}  spline root {root['spline']:>6} against "
              f"{against['spline']:>6}")
    for label in dict.fromkeys([*rows["root"], *rows["against"]]):
        root, against = ("/".join(map(str, rows[side].get(label, ("-", "-")))) for side in SIDES)
        print(f"rows   {label:<22} root {root:>7}  against {against:>7}")
    omega = {name: side.omega for name, side in sides.items()}
    print(f"sampled Omega drift  root {omega['root']!r}  against {omega['against']!r}")
    labels = [label for label in rounds[0]["root"] if label in rounds[0]["against"]]
    print(f"{'timing':<26}{'root s':>10}{'against s':>11}{'ratio':>8}"
          f"{'min':>8}{'max':>8}  root faster")
    results = {}
    for label in labels:
        s = results[label] = summary(rounds, label)
        print(f"{label:<26}{s['root_median_s']:>10.4f}{s['against_median_s']:>11.4f}"
              f"{s['ratio_median']:>8.3f}{s['ratio_min']:>8.3f}{s['ratio_max']:>8.3f}"
              f"  {s['root_faster']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"n": args.n, "rounds": args.rounds, "seed": args.seed, "theta": theta,
                       "digests_same": same, "digests": digests, "evals": evals,
                       "rows": rows,
                       "omega_drift": omega,
                       "summary": results,
                       "times": rounds}, fh, indent=1)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
