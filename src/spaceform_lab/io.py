"""Configuration ingestion and grid/mesh/report export.

Config documents are strict JSON validated against ``CONFIG_SCHEMA`` (unknown
keys rejected, exclusive seed forms enforced) by a small interpreter of the
JSON Schema keywords that schema uses (``_errors``).  It yields the errors of
a Draft 2020-12 validator, with its messages and in its order, and refuses a
schema that uses any other keyword, so the document format needs no
jsonschema at run time.

Doubles are serialized with shortest round-trip formatting, the text of
``repr``, so identical runs give byte-identical files.  That formatting is
most of the cost of a large CSV, so ``export_csv`` hands each axis-0 slab's
table to orjson's numpy writer in one call; orjson writes ``repr``'s text
for 1e-4 <= |x| < 1e16 and +-0.0, and a row holding any other value (NaN,
+-inf, a smaller or larger magnitude) is formatted with ``repr`` instead.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadProjection, InvalidParams, IoError, SchemaError
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
            },
            "oneOf": [
                {"required": ["family"], "not": {"required": ["state"]}},
                {"required": ["state"], "not": {"required": ["family"]}},
            ],
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


# The interpreter of CONFIG_SCHEMA.  An error is a tuple (path, message,
# context): path the keys and indices from the document root to the failing
# value, and context the errors of every branch of a failed oneOf (else ()).
# The messages are jsonschema's.

_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    # 3.0 is an integer; True is not
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _errors(schema, x, path=()):
    """Every way ``x``, found at ``path``, breaks ``schema``: keyword by keyword
    in the schema's key order, as jsonschema's Draft 2020-12 validator yields
    them."""
    for key, value in schema.items():
        yield from _KEYWORDS[key](value, x, path, schema)


def _valid(schema, x):
    return next(_errors(schema, x), None) is None


def _type(name, x, path, schema):
    if not _TYPES[name](x):
        yield path, f"{x!r} is not of type {name!r}", ()


def _properties(properties, x, path, schema):
    if isinstance(x, dict):
        for key, sub in properties.items():
            if key in x:
                yield from _errors(sub, x[key], path + (key,))


def _additional_properties(allowed, x, path, schema):
    # only ``false`` is interpreted (_check_schema)
    if isinstance(x, dict):
        extras = sorted({k for k in x if k not in schema.get("properties", {})}, key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield (path, f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)", ())


def _required(names, x, path, schema):
    if isinstance(x, dict):
        for name in names:
            if name not in x:
                yield path, f"{name!r} is a required property", ()


def _dependent_required(dependencies, x, path, schema):
    if isinstance(x, dict):
        for key, names in dependencies.items():
            if key in x:
                for name in names:
                    if name not in x:
                        yield path, f"{name!r} is a dependency of {key!r}", ()


def _items(sub, x, path, schema):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from _errors(sub, item, path + (i,))


def _min_items(n, x, path, schema):
    if isinstance(x, list) and len(x) < n:
        yield path, f"{x!r} is too short", ()


def _max_items(n, x, path, schema):
    if isinstance(x, list) and len(x) > n:
        yield path, f"{x!r} is too long", ()


def _enum(values, x, path, schema):
    # scalar members; as in JSON, a bool equals only a bool
    if not any(v == x and isinstance(v, bool) == isinstance(x, bool) for v in values):
        yield path, f"{x!r} is not one of {values!r}", ()


def _exclusive_minimum(bound, x, path, schema):
    if _TYPES["number"](x) and x <= bound:
        yield path, f"{x!r} is less than or equal to the minimum of {bound!r}", ()


def _one_of(branches, x, path, schema):
    context = []
    for i, branch in enumerate(branches):
        errors = list(_errors(branch, x, path))
        if not errors:
            break
        context += errors
    else:
        yield path, f"{x!r} is not valid under any of the given schemas", context
        return
    more = [b for b in branches[i + 1:] if _valid(b, x)]
    if more:
        reprs = ", ".join(map(repr, more + [branch]))
        yield path, f"{x!r} is valid under each of {reprs}", ()


def _not(sub, x, path, schema):
    if _valid(sub, x):
        yield path, f"{x!r} should not be valid under {sub!r}", ()


_KEYWORDS = {
    "$schema": lambda value, x, path, schema: (),
    "type": _type,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "required": _required,
    "dependentRequired": _dependent_required,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "enum": _enum,
    "exclusiveMinimum": _exclusive_minimum,
    "oneOf": _one_of,
    "not": _not,
}


def _check_schema(schema):
    """Raise ValueError where ``schema`` or any subschema uses a keyword, or an
    ``additionalProperties`` other than false, that ``_errors`` does not
    interpret: such a schema would be checked only in part."""
    unknown = sorted(schema.keys() - _KEYWORDS.keys())
    if unknown:
        raise ValueError(f"schema keywords {unknown} are not interpreted")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("only additionalProperties: false is interpreted")
    subschemas = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    subschemas += [schema[k] for k in ("items", "not") if k in schema]
    for sub in subschemas:
        _check_schema(sub)


_check_schema(CONFIG_SCHEMA)


def _first_error(schema, doc):
    """(message, JSON pointer) of the error ``parse_config`` reports, or None.

    That is the first error at the least path, and for a failed oneOf its
    branch error at the deepest path, the first of equals.
    """
    errors = sorted(_errors(schema, doc), key=lambda e: e[0])
    if not errors:
        return None
    path, message, context = errors[0]
    if context:
        path, message, _ = max(context, key=lambda e: len(e[0]))
    return message, "/" + "/".join(map(str, path))


def _non_finite(node, pointer=""):
    """Pointers of the numbers in ``node`` that are not finite, in document order."""
    if isinstance(node, float) and not math.isfinite(node):
        yield pointer
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _non_finite(value, f"{pointer}/{key}")


def parse_config(doc: dict) -> ExperimentConfig:
    error = _first_error(CONFIG_SCHEMA, doc)
    if error is not None:
        raise SchemaError(*error)
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
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8: {exc}", "/") from exc
    return parse_config(doc)


def export_csv(field_values, grid: ParameterGrid, path, masked=None):
    """Write one row per node: u1,u2,u3,x1,...,xm in lexicographic node order.

    Masked nodes are skipped; a fully masked field writes the header only.
    Every double is written as ``repr`` writes it.  The kept rows of one
    axis-0 slab at a time, which keeps memory flat, are formatted by one
    orjson call; orjson's text is ``repr``'s for +-0.0 and 1e-4 <= |x| < 1e16,
    and a row holding any other value is formatted with ``repr`` instead
    (``_csv_rows``).
    """
    field_values = _as_node_table(field_values, grid)
    keep = ~_node_mask(masked, grid).reshape(grid.n[0], -1)
    m = field_values.shape[-1]
    header = "u1,u2,u3," + ",".join(f"x{i + 1}" for i in range(m))
    u1 = grid.axis(0)
    tails = np.stack(np.meshgrid(grid.axis(1), grid.axis(2), indexing="ij"), axis=-1)
    tails = tails.reshape(-1, 2)                            # (u2, u3) of a slab's nodes
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for i, rows in enumerate(keep):
                table = np.empty((np.count_nonzero(rows), 3 + m))
                table[:, 0] = u1[i]
                table[:, 1:3] = tails[rows]
                table[:, 3:] = field_values[i].reshape(-1, m)[rows]
                fh.write(_csv_rows(table))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# orjson writes a double as repr does for +-0.0 and for LO <= |x| < HI
_ORJSON_BAND = (1e-4, 1e16)


def _csv_rows(table):
    """The CSV rows of a C-contiguous float64 ``table``, each ending in a newline.

    orjson's numpy writer formats the table in one call.  It writes the
    shortest round-trip digits, as ``repr`` does, and the same text for +-0.0
    and 1e-4 <= |x| < 1e16; outside that band it writes NaN and +-inf as
    ``null``, 5e-05 as ``0.00005`` and 1e+16 as ``1e16``.  A row holding any
    value outside the band is formatted with ``repr`` instead.
    """
    import orjson                   # only export needs it

    if not len(table):
        return b""
    rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    size = np.abs(table)
    lo, hi = _ORJSON_BAND
    off = ~(((size >= lo) & (size < hi)) | (table == 0.0)).all(axis=1)
    for j in np.flatnonzero(off).tolist():
        rows[j] = ",".join(map(repr, table[j].tolist())).encode()
    rows.append(b"")
    return b"\n".join(rows)


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

    ``axis``/``value`` select the slice (nearest node): ``axis`` an int in
    {0, 1, 2} and ``value`` a finite real number (else InvalidParams).
    ``projection`` picks three distinct ambient coordinates for x, y, z, each
    an int in [0, positions.shape[-1]) (else BadProjection).  Masked nodes
    drop every incident face.
    """
    positions = np.asarray(positions, dtype=float)
    dim = positions.shape[-1]
    if (len(projection) != 3 or len(set(projection)) != 3
            or not all(isinstance(k, (int, np.integer)) and 0 <= k < dim for k in projection)):
        raise BadProjection(
            f"projection must be three distinct coordinates in [0, {dim}), got {projection}"
        )
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)) or not 0 <= axis < 3:
        raise InvalidParams(f"slice axis must be 0, 1 or 2, got {axis!r}")
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InvalidParams(f"slice value must be a finite number, got {value!r}")
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


def dump_schema(path):
    """Write the config JSON schema (shipped documentation of the format)."""
    write_report(CONFIG_SCHEMA, path)
