"""Configuration ingestion and grid/mesh/report export.

Config documents are strict JSON validated against a schema (unknown keys
rejected, exclusive seed forms enforced); doubles are serialized with
shortest round-trip formatting so identical runs give byte-identical files.
That formatting is most of the cost of a large CSV, so ``export_csv`` of at
least ``_SPLIT_ROWS`` kept rows, where ``os.fork`` exists, more than one CPU
is usable and no other Python thread runs, formats the upper half of the
rows in a forked child; the bytes written do not depend on it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import BadProjection, IoError, SchemaError
from .grid import ParameterGrid

_NUM = {"type": "number"}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}
_IVEC3 = {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["seed", "grid"],
    "properties": {
        "seed": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gallery": {"type": "string"},
                "C": _NUM,
                "triple": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["v", "V", "delta"],
                    "properties": {
                        "v": _VEC3,
                        "V": _VEC3,
                        "delta": _IVEC3,
                    },
                },
            },
            "oneOf": [
                {"required": ["gallery"], "not": {"required": ["triple"]}},
                {"required": ["triple"], "not": {"required": ["gallery"]}},
            ],
            "dependentRequired": {"C": ["gallery"]},
        },
        "ambient": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"c": _NUM, "s": {"type": "integer", "enum": [0, 1]}},
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lo", "hi", "n"],
            "properties": {
                "lo": _VEC3,
                "hi": _VEC3,
                "n": _IVEC3,
                "base": _IVEC3,
            },
        },
        "ribaucour": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind", "K"],
                    "properties": {
                        "kind": {"type": "string"},
                        "K": _NUM,
                        "a": _NUM,
                        "rho": _NUM,
                        "theta": _NUM,
                        "phases": _VEC3,
                    },
                },
                "state": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["gamma", "vprime", "phi", "beta"],
                    "properties": {
                        "gamma": _VEC3,
                        "vprime": _VEC3,
                        "phi": _NUM,
                        "beta": _NUM,
                    },
                },
                "k2_target": _NUM,
            },
            "oneOf": [
                {"required": ["family"], "not": {"required": ["state"]}},
                {"required": ["state"], "not": {"required": ["family"]}},
            ],
            "dependentRequired": {"k2_target": ["state"]},
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "integrability": _NUM,
                "mask": _NUM,
                "report": _NUM,
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string"},
                "obj": {"type": "string"},
                "report": {"type": "string"},
            },
        },
        "max_step": {"type": "number", "exclusiveMinimum": 0},
    },
}

DEFAULT_TOLERANCES = {"integrability": 1e-8, "mask": None, "report": 1e-6}


@dataclass
class ExperimentConfig:
    seed: dict
    grid: ParameterGrid
    ambient: dict = field(default_factory=lambda: {"c": 0.0, "s": 0})
    ribaucour: dict = None
    tolerances: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    max_step: float = 1e-2

    def __post_init__(self):
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(self.tolerances)
        self.tolerances = tol


def _pointer(err) -> str:
    return "/" + "/".join(str(p) for p in err.absolute_path)


def _non_finite(node, pointer=""):
    """Pointers of the numbers in ``node`` that are not finite, in document order."""
    if isinstance(node, float) and not math.isfinite(node):
        yield pointer
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _non_finite(value, f"{pointer}/{key}")


def parse_config(doc: dict) -> ExperimentConfig:
    import jsonschema               # slow to import, and only validation needs it

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        # prefer the deepest context of oneOf failures for a useful pointer
        if err.context:
            err = max(err.context, key=lambda e: len(list(e.absolute_path)))
        raise SchemaError(err.message, _pointer(err))
    pointer = next(_non_finite(doc), None)
    if pointer is not None:
        raise SchemaError("every number must be finite", pointer)
    g = doc["grid"]
    grid = ParameterGrid(tuple(g["lo"]), tuple(g["hi"]), tuple(g["n"]),
                         tuple(g["base"]) if "base" in g else None)
    kwargs = {k: doc[k] for k in ("ambient", "ribaucour", "tolerances", "outputs", "max_step")
              if k in doc}
    return ExperimentConfig(seed=doc["seed"], grid=grid, **kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", "/") from exc
    return parse_config(doc)


# Kept rows from which export_csv formats the upper half of its slabs in a
# forked child.  On a 2-vCPU Xeon the split broke even between 13^3 and 15^3
# rows of 4 values and took 0.79x the serial time at 17^3.
_SPLIT_ROWS = 4096


def export_csv(field_values, grid: ParameterGrid, path, masked=None):
    """Write one row per node: u1,u2,u3,x1,...,xm in lexicographic node order.

    Masked nodes are skipped; a fully masked field writes the header only.
    With at least ``_SPLIT_ROWS`` kept rows, ``os.fork``, more than one
    usable CPU and no other Python thread running, a forked child formats
    the axis-0 slabs past the point where the kept rows reach half and the
    parent formats the rest; otherwise one process formats every slab.  Both
    ways write the same bytes.
    """
    field_values = _as_node_table(field_values, grid)
    keep = ~_node_mask(masked, grid)
    m = field_values.shape[-1]
    header = "u1,u2,u3," + ",".join(f"x{i + 1}" for i in range(m))
    u1, u2, u3 = ([repr(x) for x in grid.axis(a).tolist()] for a in range(3))
    table = field_values, keep, u1, list(map(",".join, itertools.product(u2, u3)))
    n0 = grid.n[0]
    rows = np.cumsum(keep.reshape(n0, -1).sum(axis=1))        # kept rows up to each slab
    split = int(np.searchsorted(rows, rows[-1] / 2)) + 1 if _forks(rows[-1]) else n0
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            if split < n0:
                _write_split(fh, table, split, n0, path)
            else:
                # one axis-0 slab at a time, which keeps memory flat
                for i in range(n0):
                    fh.write(_slab_text(table, i).encode())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _forks(rows) -> bool:
    """Whether export_csv formats ``rows`` kept rows in two processes.

    Not while another Python thread runs: a forked child would inherit the
    locks that thread holds, but not the thread that releases them.
    """
    if not hasattr(os, "fork") or rows < _SPLIT_ROWS or threading.active_count() > 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1


def _slab_text(table, i):
    """CSV rows of the kept nodes of axis-0 slab i, each ending in a newline."""
    values, keep, u1, tails = table
    # C iterators join each row from the "u2,u3" tails and the value columns
    columns = values[i].reshape(-1, values.shape[-1]).T.tolist()
    rows = zip(itertools.repeat(u1[i]), tails, *(map(repr, c) for c in columns))
    text = "\n".join(itertools.compress(map(",".join, rows), keep[i].ravel().tolist()))
    return text + "\n" if text else ""


def _write_split(fh, table, split, n0, path):
    """Write slabs 0 .. split-1 here and slabs split .. n0-1 from a forked child.

    The child formats all its slabs before it writes them to a pipe, since a
    full pipe blocks it until the parent has written its own slabs (one at a
    time) and streams the pipe into ``fh``.  It leaves only through
    ``os._exit``, so it never returns into the caller, flushes no inherited
    buffer and runs no exit handler.  A failed child raises IoError; a
    failure here kills the child.  Either way the child is reaped before
    this returns.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            texts = [_slab_text(table, i).encode() for i in range(split, n0)]
            with open(w, "wb") as upper:
                upper.writelines(texts)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as upper:
            for i in range(split):
                fh.write(_slab_text(table, i).encode())
            shutil.copyfileobj(upper, fh)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        if status:
            raise IoError(f"cannot write {path}: the process formatting slabs "
                          f"{split}..{n0 - 1} exited with code {status}")
    finally:
        if pid is not None:
            import signal           # only a failed export needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _node_mask(masked, grid):
    """``masked`` as a boolean array of shape grid.n (all False for None)."""
    if masked is None:
        return np.zeros(grid.n, dtype=bool)
    masked = np.asarray(masked, dtype=bool)
    if masked.shape != tuple(grid.n):
        raise IoError(f"mask shape {masked.shape} does not match grid {grid.n}")
    return masked


def _as_node_table(values, grid):
    values = np.asarray(values, dtype=float)
    if values.shape[:3] != tuple(grid.n):
        raise IoError(f"field shape {values.shape} does not start with grid {grid.n}")
    if values.ndim == 3:
        values = values[..., None]
    return values.reshape(tuple(grid.n) + (-1,))


def export_obj(positions, grid: ParameterGrid, axis, value, projection, path,
               masked=None):
    """Export one grid slice as a triangulated OBJ mesh.

    ``axis``/``value`` select the slice (nearest node); ``projection`` picks
    three distinct ambient coordinates for x, y, z, each an int in
    [0, positions.shape[-1]) (else BadProjection).  Masked nodes drop every
    incident face.
    """
    positions = np.asarray(positions, dtype=float)
    dim = positions.shape[-1]
    if (len(projection) != 3 or len(set(projection)) != 3
            or not all(isinstance(k, (int, np.integer)) and 0 <= k < dim for k in projection)):
        raise BadProjection(
            f"projection must be three distinct coordinates in [0, {dim}), got {projection}"
        )
    ax_vals = grid.axis(axis)
    sl = int(np.argmin(np.abs(ax_vals - value)))
    index = [slice(None)] * 3
    index[axis] = sl
    sheet = positions[tuple(index)]
    ok = np.isfinite(sheet).all(axis=-1) & ~_node_mask(masked, grid)[tuple(index)]
    # vertices numbered from 1 in row-major order; quads (i, j), (i+1, j),
    # (i+1, j+1), (i, j+1) with all four corners kept, split along a-c
    vid = np.cumsum(ok).reshape(ok.shape)
    lines = ["v {!r} {!r} {!r}".format(*p) for p in sheet[ok][:, list(projection)].tolist()]
    corners = (vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:])
    quad = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    quads = np.stack([c[quad] for c in corners], axis=-1).tolist()
    lines += ["f {0} {1} {2}\nf {0} {2} {3}".format(*q) for q in quads]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_report(report_dict, path):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report_dict, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def triple_to_config(t) -> dict:
    """Inline-seed form of a constant triple (the config format's "triple" object)."""
    v, h, V = t.at(t.grid.base)
    if (np.abs(t.v - v.reshape(3, 1, 1, 1)).max() > 0
            or np.abs(t.V - V.reshape(3, 1, 1, 1)).max() > 0
            or np.abs(t.h).max() > 0):
        raise IoError("only constant triples fit the inline config form")
    return {
        "seed": {"triple": {"v": list(v), "V": list(V), "delta": list(t.delta)}},
        "ambient": {"c": t.spec.c, "s": t.spec.s},
        "grid": {"lo": list(t.grid.lo), "hi": list(t.grid.hi),
                 "n": list(t.grid.n), "base": list(t.grid.base)},
    }


def dump_schema(path):
    """Write the config JSON schema (shipped documentation of the format)."""
    write_report(CONFIG_SCHEMA, path)

