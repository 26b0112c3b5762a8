"""JSON model files: schema validation, loading, canonical serialization.

One document describes one model, discriminated by its ``kind``:
``rb`` (general restless bandit), ``admission`` (birth--death admission
control), ``routing`` (parallel queues) or ``mts`` (make-to-stock).  A
routing or make-to-stock rate field is a number or a nonempty number array,
one schema of both types (``"type": ["number", "array"]``, not ``oneOf``),
so an error names the failing element.
Serialization is canonical: sorted keys, compact separators, full
double-precision decimal numbers; loading then dumping a document is
idempotent byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np
from jsonschema import Draft202012Validator, validators

from .admission import ACModel
from .bandit import RBModel
from .policies import MTSSystem, ProductSpec, QueueSpec, RoutingSystem

_NUM = {"type": "number"}
_VEC = {"type": "array", "items": _NUM, "minItems": 1}
_MAT = {"type": "array", "items": _VEC, "minItems": 1}
_SCALAR_OR_VEC = {"type": ["number", "array"], "items": _NUM, "minItems": 1}

SCHEMAS: dict[str, dict] = {
    "rb": {
        "type": "object",
        "required": ["kind", "states", "controllable", "P0", "P1", "h0", "h1",
                     "theta1", "beta"],
        "properties": {
            "kind": {"const": "rb"},
            "states": {"type": "integer", "minimum": 1},
            "controllable": {"type": "array", "uniqueItems": True, "minItems": 1,
                             "items": {"type": "integer", "minimum": 0}},
            "P0": _MAT, "P1": _MAT,
            "h0": _VEC, "h1": _VEC, "theta1": _VEC,
            "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "family": {"type": "array",
                       "items": {"type": "array", "items": {"type": "integer"}}},
        },
        "additionalProperties": False,
    },
    "admission": {
        "type": "object",
        "required": ["kind", "n", "lambda", "mu", "h", "alpha"],
        "properties": {
            "kind": {"const": "admission"},
            "n": {"type": "integer", "minimum": 1},
            "lambda": _VEC, "mu": _VEC, "h": _VEC,
            "alpha": {"type": "number", "minimum": 0},
            "Lambda": _NUM,
        },
        "additionalProperties": False,
    },
    "routing": {
        "type": "object",
        "required": ["kind", "lambda", "queues"],
        "properties": {
            "kind": {"const": "routing"},
            "lambda": {"type": "number", "exclusiveMinimum": 0},
            "alpha": {"type": "number", "minimum": 0},
            "nu": _NUM,
            "queues": {
                "type": "array", "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["mu", "h"],
                    "properties": {
                        "n": {"type": ["integer", "null"], "minimum": 1},
                        "mu": _SCALAR_OR_VEC,
                        "h": _SCALAR_OR_VEC,
                    },
                    "additionalProperties": False,
                },
            },
        },
        "additionalProperties": False,
    },
    "mts": {
        "type": "object",
        "required": ["kind", "products"],
        "properties": {
            "kind": {"const": "mts"},
            "alpha": {"type": "number", "minimum": 0},
            "nu": _NUM,
            "products": {
                "type": "array", "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["lambda", "mu", "c", "s", "r"],
                    "properties": {
                        "n": {"type": ["integer", "null"], "minimum": 1},
                        "lambda": _SCALAR_OR_VEC,
                        "mu": _SCALAR_OR_VEC,
                        "c": _SCALAR_OR_VEC,
                        "s": _NUM,
                        "r": _SCALAR_OR_VEC,
                    },
                    "additionalProperties": False,
                },
            },
        },
        "additionalProperties": False,
    },
}


_STOCK_ITEMS = Draft202012Validator.VALIDATORS["items"]


def _items(validator, items, instance, schema):
    """Draft 2020-12 ``items``, with one pass over an array of numbers:
    it passes ``{"type": "number"}`` when every element is exactly an int
    or a float (bool is not a number); any other array goes to the stock
    keyword, so errors, paths and messages are jsonschema's own."""
    if items == _NUM and isinstance(instance, list) and {int, float}.issuperset(
            map(type, instance)):
        return
    yield from _STOCK_ITEMS(validator, items, instance, schema)


_Validator = validators.extend(Draft202012Validator, {"items": _items})
_VALIDATORS = {kind: _Validator(schema) for kind, schema in SCHEMAS.items()}


class ModelFileError(ValueError):
    """Malformed model document (bad JSON, unknown kind, schema violation)."""


def validate_document(doc: Any) -> str:
    """Schema-validate a parsed document; returns its kind."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ModelFileError("model document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind not in SCHEMAS:
        raise ModelFileError(f"unknown model kind {kind!r}")
    errors = sorted(_VALIDATORS[kind].iter_errors(doc),
                    key=lambda e: list(e.absolute_path))
    if errors:
        where = "/".join(str(p) for p in errors[0].absolute_path) or "(root)"
        raise ModelFileError(f"schema violation at {where}: {errors[0].message}")
    if not _finite(doc):
        raise ModelFileError("model document holds a non-finite number (NaN or infinity)")
    return kind


def _finite(x) -> bool:
    """No NaN or infinity anywhere in a parsed document (Python's json
    reads NaN, Infinity and overflowing literals such as 1e999)."""
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, (list, dict)):
        return all(map(_finite, x.values() if isinstance(x, dict) else x))
    return True


def _maybe_scalar(x):
    return x if isinstance(x, (int, float)) else list(x)


def _size(x):
    """A validated buffer size, None or an int (the schema admits 5.0)."""
    return None if x is None else int(x)


def model_from_document(doc: dict):
    """Build the internal model object from a validated document."""
    kind = validate_document(doc)
    try:
        if kind == "rb":
            model = RBModel(np.array(doc["P0"]), np.array(doc["P1"]),
                            np.array(doc["h0"]), np.array(doc["h1"]),
                            np.array(doc["theta1"]), float(doc["beta"]),
                            frozenset(map(int, doc["controllable"])))   # the schema admits 1.0
            if doc["states"] != model.n_states:
                raise ValueError(f"'states' is {doc['states']}, but the matrices "
                                 f"have {model.n_states} states")
            return model
        if kind == "admission":
            return ACModel(int(doc["n"]), np.array(doc["lambda"]),
                           np.array(doc["mu"]), np.array(doc["h"]),
                           float(doc["alpha"]), doc.get("Lambda"))
        if kind == "routing":
            queues = tuple(QueueSpec(_size(q.get("n")), _maybe_scalar(q["mu"]),
                                     _maybe_scalar(q["h"])) for q in doc["queues"])
            return RoutingSystem(float(doc["lambda"]), queues,
                                 float(doc.get("alpha", 0.0)),
                                 float(doc.get("nu", np.inf)))
        products = tuple(ProductSpec(_size(p.get("n")), _maybe_scalar(p["lambda"]),
                                     _maybe_scalar(p["mu"]), _maybe_scalar(p["c"]),
                                     float(p["s"]), _maybe_scalar(p["r"]))
                         for p in doc["products"])
        return MTSSystem(products, float(doc.get("alpha", 0.0)),
                         float(doc.get("nu", 0.0)))
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc


def document_from_model(model) -> dict:
    """Serialize a model object back into its document form."""
    if isinstance(model, RBModel):
        return {"kind": "rb", "states": model.n_states, "controllable": sorted(model.controllable),
                "P0": model.P0.tolist(), "P1": model.P1.tolist(), "h0": model.h0.tolist(),
                "h1": model.h1.tolist(), "theta1": model.theta1.tolist(), "beta": model.beta}
    if isinstance(model, ACModel):
        return {"kind": "admission", "n": model.n, "lambda": model.lam.tolist(),
                "mu": model.mu.tolist(), "h": model.h.tolist(), "alpha": model.alpha,
                "Lambda": float(model.Lambda)}
    if isinstance(model, RoutingSystem):
        queues = [{"n": q.n, "mu": _maybe_scalar(q.mu), "h": _maybe_scalar(q.h)}
                  for q in model.queues]
        doc = {"kind": "routing", "lambda": model.lam, "alpha": model.alpha,
               "queues": queues}
        if np.isfinite(model.nu):
            doc["nu"] = model.nu
        return doc
    if isinstance(model, MTSSystem):
        products = [{"n": p.n, "lambda": _maybe_scalar(p.lam), "mu": _maybe_scalar(p.mu),
                     "c": _maybe_scalar(p.c), "s": p.s, "r": _maybe_scalar(p.r)}
                    for p in model.products]
        return {"kind": "mts", "alpha": model.alpha, "nu": model.nu,
                "products": products}
    raise TypeError(f"cannot serialize {type(model).__name__}")


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load_model(path: str):
    """Read, validate and build a model from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_document(doc), doc
