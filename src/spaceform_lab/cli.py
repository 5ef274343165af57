"""Command-line front end.

Subcommands: verify-triple, integrate-frame, ribaucour, pair-check,
cflat-check, gallery (list | eval), export.  Exit codes: 0 success with all
residuals under the configured thresholds, 2 threshold violation (reports are
still written), 1 usage or configuration error.  A non-holonomic sample in
pair-check is a verdict too: exit 2, with the error in the report.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import gallery as gal
from .ambient import SpaceFormSpec
from .errors import NonHolonomicSample, SchemaError, SpaceformLabError
from .frames import (
    frame_gram_residual,
    induced_metric,
    integrate_frame,
    path_independence_residual,
    standard_frame_state,
)
from .grid import ParameterGrid
from .io import (
    export_csv,
    export_obj,
    load_config,
    write_report,
)
from .ribaucour import (
    RibaucourState,
    integrate_ribaucour,
    invariant_drift,
    seed_state,
    transform_immersion,
    transformed_triple,
)
from .triples import TripleField, classify, first_integrals, triple_residuals
from .verify import (
    fundamental_forms,
    holonomic_data,
    hj_relation_residual,
    isometry_check,
    pair_gauss_relation,
    schouten_codazzi_residual,
)


def _fail(msg) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _seed_triple(cfg):
    _family(cfg)                    # a family beside the seed must be the seed's own
    amb = cfg.ambient
    if "gallery" in cfg.seed:
        name = cfg.seed["gallery"]
        return gal.trivial_seed(name, cfg.grid, c=amb.get("c", 0.0),
                                s=amb.get("s", 0), C=cfg.seed.get("C")), name
    spec = SpaceFormSpec(amb.get("c", 0.0), amb.get("s", 0))
    t = cfg.seed["triple"]
    return TripleField.constant(cfg.grid, tuple(t["delta"]), spec,
                                v=t["v"], V=t["V"]), None


def _family(cfg):
    """The config's Ribaucour family, or None.  The family builds its own seed,
    so ``seed`` must name that seed and its C (else SchemaError at /seed)."""
    fam_cfg = (cfg.ribaucour or {}).get("family")
    if fam_cfg is None:
        return None
    kw = dict(fam_cfg)              # the schema's family keys are PhiFamily's fields
    if "phases" in kw:
        kw["phases"] = tuple(kw["phases"])
    amb = cfg.ambient
    fam = gal.PhiFamily(c=amb.get("c", 0.0), eps=1 - 2 * amb.get("s", 0), **kw)
    own = {"gallery": fam.seed_kind}
    if fam.C is not None:
        own["C"] = fam.C
    if cfg.seed != own:
        raise SchemaError(f"seed {cfg.seed} is not the {fam.kind} family's own seed {own}",
                          "/seed")
    return fam


def _frame_init(cfg, seed_name, spec):
    if seed_name is not None:
        return gal.seed_frame_state(seed_name, spec)
    return standard_frame_state(spec)


def _finish(report_dict, cfg, ok) -> int:
    path = cfg.outputs.get("report")
    if path:
        write_report(report_dict, path)
    for line in _render(report_dict):
        print(line)
    return 0 if ok else 2


def _render(d, indent=0):
    for k, v in d.items():
        if isinstance(v, dict):
            yield "  " * indent + f"{k}:"
            yield from _render(v, indent + 1)
        else:
            yield "  " * indent + f"{k}: {v}"


def _cmd_verify_triple(cfg) -> int:
    triple, _ = _seed_triple(cfg)
    rep = triple_residuals(triple)
    K = first_integrals(triple, cfg.grid.base)
    out = {"residuals": rep.as_dict(), "first_integrals": list(K.as_tuple())}
    try:
        cls = classify(triple, cfg.tolerances["report"])
        out["classification"] = {"kind": cls.kind, "eps_hat": cls.eps_hat, "C": cls.C}
    except SpaceformLabError as exc:
        out["classification"] = {"error": str(exc)}
    return _finish(out, cfg, rep.ok(cfg.tolerances["report"]))


def _cmd_integrate_frame(cfg) -> int:
    triple, name = _seed_triple(cfg)
    init = _frame_init(cfg, name, triple.spec)
    ff = integrate_frame(triple, init, cfg.grid, max_step=cfg.max_step,
                         integrability_tol=cfg.tolerances["integrability"])
    gram = frame_gram_residual(ff)
    path = path_independence_residual(ff)
    _, metric_rep = induced_metric(ff)
    if cfg.outputs.get("csv"):
        export_csv(ff.f, cfg.grid, cfg.outputs["csv"])
    out = {"gram": gram.as_dict(), "path_independence": path.as_dict(),
           "induced_metric": metric_rep.as_dict()}
    ok = gram.ok(cfg.tolerances["report"]) and path.ok(cfg.tolerances["report"])
    return _finish(out, cfg, ok)


def _run_ribaucour_pipeline(cfg, fam=None, fprime=False):
    """Seed triple, Ribaucour field and, with ``fprime``, the transformed
    immersion F' (else None); the seed must be integrable.  F' needs the
    seed's frame, swept after the Ribaucour field with no second check of
    the seed."""
    fam = fam or _family(cfg)
    if fam is not None:
        triple = fam.seed_triple(cfg.grid)
        init = gal.phi_state(fam, cfg.grid.base_point)
        frame_init = fam.frame_init()
    else:
        triple, name = _seed_triple(cfg)
        raw = cfg.ribaucour["state"]
        # seed_state forces psi from K1 = 0 and takes K2 from the seed
        request = RibaucourState(tuple(raw["gamma"]), tuple(raw["vprime"]),
                                 raw["phi"], 0.0, raw["beta"])
        init = seed_state(triple, cfg.grid.base, request)
        frame_init = _frame_init(cfg, name, triple.spec)
    rf = integrate_ribaucour(triple, init, cfg.grid, cfg.max_step,
                             mask_tol=cfg.tolerances["mask"],
                             integrability_tol=cfg.tolerances["integrability"])
    if not fprime:
        return triple, rf, None
    ff = integrate_frame(triple, frame_init, cfg.grid, max_step=cfg.max_step,
                         integrability_tol=None)
    return triple, rf, transform_immersion(ff, rf)


def _cmd_ribaucour(cfg) -> int:
    if not cfg.ribaucour:
        return _fail("ribaucour section missing from config")
    write_fprime = bool(cfg.outputs.get("csv") or cfg.outputs.get("obj"))
    triple, rf, fprime = _run_ribaucour_pipeline(cfg, fprime=write_fprime)
    drift = invariant_drift(rf)
    tt = transformed_triple(triple, rf)
    out = {
        "invariant_drift": {"K1": drift.K1, "K2": drift.K2, "Omega": drift.Omega},
        "masked_nodes": int(0 if rf.masked is None else rf.masked.sum()),
        "scheme": rf.scheme,
    }
    try:
        cls = classify(tt, cfg.tolerances["report"])
        out["transformed_classification"] = {"kind": cls.kind, "eps_hat": cls.eps_hat,
                                             "C": cls.C}
    except SpaceformLabError as exc:
        out["transformed_classification"] = {"error": str(exc)}
    if cfg.outputs.get("csv"):
        export_csv(fprime.positions, cfg.grid, cfg.outputs["csv"], rf.masked)
    if cfg.outputs.get("obj"):
        export_obj(fprime.positions, cfg.grid, 2, cfg.grid.base_point[2], (0, 1, 2),
                   cfg.outputs["obj"], rf.masked)
    ok = drift.overall <= cfg.tolerances["report"]
    return _finish(out, cfg, ok)


def _cmd_pair_check(cfg) -> int:
    fam = _family(cfg)
    if fam is None or fam.kind != "problemstar":
        return _fail("pair-check needs a 'problemstar' family in the config")
    if not (fam.K == 1.0 and fam.a == 1.0 and fam.c == 0.0 and fam.eps == 1):
        return _fail("the matched sphere partner is built for K=a=1, c=0, eps=1")
    fam_s = gal.PhiFamily("problemstar_sphere", K=-2.0, c=1.0, eps=1,
                          rho=fam.rho, theta=fam.theta, phases=fam.phases)
    fr = _run_ribaucour_pipeline(cfg, fam, fprime=True)[2]
    fs = _run_ribaucour_pipeline(cfg, fam_s, fprime=True)[2]
    forms_r, forms_s = fundamental_forms(fr), fundamental_forms(fs)
    iso = isometry_check(fr, fs, forms_r, forms_s)
    try:
        _, _, _, lam_r = holonomic_data(fr, forms_r)
        _, _, _, lam_s = holonomic_data(fs, forms_s)
    except NonHolonomicSample as exc:
        # a numerical verdict on the samples, reported like the others
        pair_gauss, pair_max = {"error": str(exc)}, math.inf
    else:
        pair = pair_gauss_relation(lam_r, lam_s, fam.c, fam_s.c, fam.eps, fam_s.eps,
                                   forms_r.valid & forms_s.valid)
        pair_gauss, pair_max = pair.report.as_dict(), pair.report.overall_max
    match = gal.signed_component_match(
        fs.positions, gal.explicit_fprime("s4_pair", fam.theta, cfg.grid.points()))
    out = {
        "isometry": iso.as_dict(),
        "pair_gauss": pair_gauss,
        "printed_s4_component_match": match,
        "sphere_constraint_max": fs.on_form_residual(),
    }
    ok = (iso.overall_max <= cfg.tolerances["report"]
          and pair_max <= 10 * cfg.tolerances["report"])
    return _finish(out, cfg, ok)


def _cmd_cflat_check(cfg) -> int:
    fam = _family(cfg)
    if fam is None or fam.kind != "cflat":
        return _fail("cflat-check needs a 'cflat' family in the config")
    triple, rf, fprime = _run_ribaucour_pipeline(cfg, fam,
                                                 fprime=bool(cfg.outputs.get("csv")))
    tt = transformed_triple(triple, rf)
    hj = hj_relation_residual(tt)
    sc = schouten_codazzi_residual(tt)
    out = {"hj_relation": hj, "schouten_codazzi": sc.as_dict()}
    try:
        cls = classify(tt, cfg.tolerances["report"])
        out["classification"] = {"kind": cls.kind}
    except SpaceformLabError as exc:
        out["classification"] = {"error": str(exc)}
    if cfg.outputs.get("csv"):
        export_csv(fprime.positions, cfg.grid, cfg.outputs["csv"], rf.masked)
    ok = hj <= cfg.tolerances["report"]
    return _finish(out, cfg, ok)


def _cmd_export(cfg) -> int:
    if cfg.ribaucour:
        _, rf, fprime = _run_ribaucour_pipeline(cfg, fprime=True)
        values, masked = fprime.positions, rf.masked
    else:
        triple, name = _seed_triple(cfg)
        init = _frame_init(cfg, name, triple.spec)
        ff = integrate_frame(triple, init, cfg.grid, max_step=cfg.max_step,
                             integrability_tol=cfg.tolerances["integrability"])
        values, masked = ff.f, None
    wrote = []
    if cfg.outputs.get("csv"):
        export_csv(values, cfg.grid, cfg.outputs["csv"], masked)
        wrote.append(cfg.outputs["csv"])
    if cfg.outputs.get("obj"):
        export_obj(values, cfg.grid, 2, cfg.grid.base_point[2], (0, 1, 2),
                   cfg.outputs["obj"], masked)
        wrote.append(cfg.outputs["obj"])
    if not wrote:
        return _fail("export needs outputs.csv or outputs.obj in the config")
    for p in wrote:
        print(f"wrote {p}")
    return 0


def _cmd_gallery(args) -> int:
    if args.action == "list":
        names = gal.SEED_KINDS + gal.EXPLICIT_NAMES
        width = max(len(k) for k in names)
        for name in names:
            print(f"{name:<{width}}  {gal.DESCRIPTIONS[name]}")
        return 0
    name = args.name
    if name is None:
        return _fail("gallery eval needs --name")
    if name in gal.EXPLICIT_NAMES:
        try:
            at = [float(x) for x in args.at.split(",")]
        except ValueError:
            at = []
        if len(at) != 3 or not all(math.isfinite(x) for x in at):
            return _fail(f"--at needs three finite comma-separated coordinates, got {args.at!r}")
        if not math.isfinite(args.theta):
            return _fail(f"--theta must be finite, got {args.theta}")
        vec = gal.explicit_fprime(name, args.theta, np.array(at))
        print("(" + ", ".join(repr(float(x) + 0.0) for x in vec) + ")")
        return 0
    if name in gal.SEED_KINDS:
        grid = ParameterGrid.centered(1.0, (5, 5, 5))
        C = args.C
        sign = gal._SEED_TABLE[name][3]          # the default C is the unit of its sign
        if C is None and sign is not None:
            C = float(sign)
        t = gal.trivial_seed(name, grid, c=args.c, s=args.s, C=C)
        v, h, V = t.at(grid.base)
        print(f"v = {tuple(v)}  V = {tuple(V)}  delta = {t.delta}")
        return 0
    return _fail(f"unknown gallery item {name!r}; try 'gallery list'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spaceform-lab",
        description="Numerical laboratory for holonomic hypersurfaces of space forms",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("verify-triple", "integrate-frame", "ribaucour", "pair-check",
                 "cflat-check", "export"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
    pg = sub.add_parser("gallery")
    pg.add_argument("action", choices=["list", "eval"])
    pg.add_argument("--name")
    pg.add_argument("--at", default="0,0,0")
    pg.add_argument("--theta", type=float, default=math.pi / 4)
    pg.add_argument("--c", type=float, default=0.0)
    pg.add_argument("--s", type=int, default=0)
    pg.add_argument("--C", type=float, default=None)
    return parser


_COMMANDS = {
    "verify-triple": _cmd_verify_triple,
    "integrate-frame": _cmd_integrate_frame,
    "ribaucour": _cmd_ribaucour,
    "pair-check": _cmd_pair_check,
    "cflat-check": _cmd_cflat_check,
    "export": _cmd_export,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: ``run`` reuses it."""
    return build_parser()


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        if args.command == "gallery":
            return _cmd_gallery(args)
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg)
    except SpaceformLabError as exc:
        return _fail(str(exc))


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
