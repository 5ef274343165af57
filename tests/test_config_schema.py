"""``io``'s interpreter of ``CONFIG_SCHEMA`` against jsonschema's Draft 2020-12
validator: the same errors in the same order, so ``parse_config`` reports the
same message at the same pointer."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaceform_lab import io as io_module
from spaceform_lab.io import CONFIG_SCHEMA

from conftest import jsonschema_errors, jsonschema_first_error

DEMO_PATHS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))
DEMO_DOCS = [json.loads(p.read_text(encoding="utf-8")) for p in DEMO_PATHS]


def _ours(errors):
    return [(path, message, _ours(context)) for path, message, context in errors]


def _assert_same(doc):
    assert _ours(io_module._errors(CONFIG_SCHEMA, doc)) == jsonschema_errors(CONFIG_SCHEMA, doc)
    assert io_module._first_error(CONFIG_SCHEMA, doc) == jsonschema_first_error(CONFIG_SCHEMA,
                                                                               doc)


@pytest.mark.parametrize("doc", DEMO_DOCS, ids=[p.stem for p in DEMO_PATHS])
def test_demo_configs(doc):
    assert io_module._first_error(CONFIG_SCHEMA, doc) is None
    _assert_same(doc)


def _property_names(schema):
    for key, sub in schema.get("properties", {}).items():
        yield key
        yield from _property_names(sub)
    for sub in schema.get("oneOf", ()):
        yield from _property_names(sub)


KEYS = sorted(set(_property_names(CONFIG_SCHEMA))) + ["sneaky", "k2_target"]
# bools are no numbers, integral floats are integers, NaN passes every bound
SCALARS = [True, False, None, 0, 1, -1, 2, 9, 3.0, 9.0, -0.0, 2.5, math.nan, math.inf,
           -math.inf, "", "cflat", "problemstar"]
VALUES = SCALARS + [[], {}, [1, 2, 3], [0.5, -1.0, True], [1, -1, 1, 1], {"kind": "cflat"},
                    {"gallery": "cflat"}]
# each oneOf's two exclusive keys and a value for each
BRANCHES = {
    "seed": {"gallery": "cflat",
             "triple": {"v": [0, 1, 1], "V": [1, 0, 0], "delta": [1, -1, 1]}},
    "ribaucour": {"family": {"kind": "cflat", "K": -1.0},
                  "state": {"gamma": [0.1, 0, 0], "vprime": [0, 0, 1], "phi": 1.0,
                            "beta": 0.0}},
}


def _containers(node, path=()):
    if isinstance(node, (dict, list)):
        yield path, node
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _containers(value, path + (key,))


@st.composite
def mutated_docs(draw):
    """A demo config with one to four mutations: a key dropped or added, a
    value swapped for one of another type, an array resized, or a oneOf given
    both of its branches or neither."""
    doc = copy.deepcopy(draw(st.sampled_from(DEMO_DOCS)))
    for _ in range(draw(st.integers(1, 4))):
        path, node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["drop", "add", "swap", "resize", "one_of"]))
        if op == "drop" and keys:
            del node[draw(st.sampled_from(keys))]
        elif op == "add":
            value = copy.deepcopy(draw(st.sampled_from(VALUES)))
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = value
            else:
                node.append(value)
        elif op == "swap" and keys:
            node[draw(st.sampled_from(keys))] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif op == "resize" and isinstance(node, list):
            size = draw(st.integers(0, 5))
            node[:] = (node + draw(st.lists(st.sampled_from(SCALARS), min_size=size,
                                            max_size=size)))[:size]
        elif op == "one_of":
            section = draw(st.sampled_from(sorted(BRANCHES)))
            target = doc.setdefault(section, {}) if isinstance(doc, dict) else None
            if isinstance(target, dict):
                if draw(st.booleans()):
                    for key, value in BRANCHES[section].items():
                        target.setdefault(key, copy.deepcopy(value))
                else:
                    for key in BRANCHES[section]:
                        target.pop(key, None)
    return doc


@settings(max_examples=600, deadline=None)
@given(mutated_docs())
def test_mutated_configs(doc):
    _assert_same(doc)


@pytest.mark.parametrize("doc", [
    [], "config", None, {},
    {"seed": {"gallery": "cflat", "triple": {}}, "grid": 3, "max_step": True,
     "ambient": {"s": True, "c": False}},
    {"seed": 5, "ribaucour": {"k2_target": 1, "state": {}},
     "grid": {"lo": [1, 2], "hi": [1, 2, 3, 4], "n": [1.0, 2.5, "9"]}, "max_step": 0},
    {"seed": {"C": 1.0}, "grid": {"lo": [0, 0, 0], "hi": [1, 1, 1], "n": [9, 9, 9]},
     "ambient": {"s": 1.0}, "max_step": -math.inf},
], ids=["array", "string", "null", "empty", "many_types", "many_shapes", "dependency"])
def test_hand_picked_configs(doc):
    _assert_same(doc)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "properties": {"a": {"type": "number", "minimum": 0}}},
    {"oneOf": [{"required": ["a"]}, {"not": {"anyOf": [{"required": ["b"]}]}}]},
    {"type": "array", "items": {"const": 1}},
    {"type": "object", "additionalProperties": {"type": "number"}},
], ids=["pattern", "nested_minimum", "anyOf_under_not", "const_in_items",
        "schema_additional_properties"])
def test_unknown_keyword_raises(schema):
    # a keyword the interpreter skipped would leave part of a document unchecked
    with pytest.raises(ValueError, match="interpreted"):
        io_module._check_schema(schema)
