"""Scenario files: JSON schema, matrix-spec builders, validation with error paths.

A scenario is a single JSON object naming the dynamics (H, channels, initial
state), the discretization and Monte Carlo budget, the engine, and the
requested observable outputs.  Complex numbers are [re, im] pairs.  Every
violation is reported with a JSON-pointer-style path so config errors are
fixable in one pass.

H, rho0, the step count and the mean-field interaction are each checked
once, by the library code that owns the condition (``linalg.require_hermitian``,
``linalg.require_density``, ``integrate.step_count``, ``meanfield.InteractionMap``);
``validate_scenario`` attaches the JSON path to its message.  So every
scenario that validates can start its run.

``SCENARIO_SCHEMA`` is a JSON Schema (draft 2020-12) dict, checked by a
small walker (``_schema_errors``) that implements exactly the keywords the
schema uses: ``type``, ``enum`` (of strings), ``minimum``, ``maximum``,
``exclusiveMinimum``, ``minLength``, ``minItems``, ``maxItems``, ``items``,
``properties``, ``required``, ``additionalProperties: false``, ``oneOf`` and
local ``$ref``.  Its messages are jsonschema's.  Two differences are
deliberate: ``integer`` means a JSON integer (a Python ``int``, not a
``bool``), so ``2.0`` is not an integer; and ``number`` means a finite one,
so the ``NaN``, ``Infinity`` and overflowing ``1e999`` that Python's ``json``
reads are config errors, whether they come from a file, a ``--set`` value or
a dict.  Any other keyword in the schema is a ``KeyError`` on the first
validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .integrate import step_count
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, operator_norm, require_density, require_hermitian
from .meanfield import MODES, VARIANTS, InteractionMap
from .pure import PICTURES

ENGINES = (
    "pure_linear",
    "pure_nonlinear",
    "sme_linear",
    "sme_nonlinear",
    "ensemble",
    "meanfield",
)

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_MATRIX = {
    "oneOf": [
        {
            "type": "string",
            "enum": ["pauli_x", "pauli_y", "pauli_z", "zero", "identity", "number"],
        },
        {
            "type": "object",
            "properties": {"entries": {"type": "array", "items": {"type": "array", "items": _COMPLEX}}},
            "required": ["entries"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "scaled": {
                    "type": "object",
                    "properties": {
                        "op": {"$ref": "#/$defs/matrix"},
                        "factor": {"oneOf": [{"type": "number"}, _COMPLEX]},
                    },
                    "required": ["op", "factor"],
                    "additionalProperties": False,
                }
            },
            "required": ["scaled"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "sum": {"type": "array", "items": {"$ref": "#/$defs/matrix"}, "minItems": 1}
            },
            "required": ["sum"],
            "additionalProperties": False,
        },
    ]
}

_KET = {
    "oneOf": [
        {"type": "array", "items": _COMPLEX, "minItems": 1},
        {
            "type": "object",
            "properties": {"basis": {"type": "integer", "minimum": 0}},
            "required": ["basis"],
            "additionalProperties": False,
        },
    ]
}

_RHO0 = {
    "oneOf": [
        {"$ref": "#/$defs/matrix"},
        {
            "type": "object",
            "properties": {"pure": {"$ref": "#/$defs/ket"}},
            "required": ["pure"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"diag": {"type": "array", "items": {"type": "number"}, "minItems": 1}},
            "required": ["diag"],
            "additionalProperties": False,
        },
    ]
}

_INTERACTION = {
    "type": "object",
    "properties": {
        "variant": {"type": "string", "enum": list(VARIANTS)},
        "table": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "kernel": {"type": "array", "items": {"type": "array", "items": _COMPLEX}},
    },
    "required": ["variant"],
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "$defs": {"matrix": _MATRIX, "ket": _KET},
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "dim": {"type": "integer", "minimum": 1, "maximum": 256},
        "hamiltonian": {"$ref": "#/$defs/matrix"},
        "channels": {"type": "array", "items": {"$ref": "#/$defs/matrix"}, "minItems": 1, "maxItems": 8},
        "n_channels": {"type": "integer", "minimum": 1},
        "rho0": _RHO0,
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "trajectories": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "engine": {"type": "string", "enum": list(ENGINES)},
        "picture": {"type": "string", "enum": [*PICTURES, "auto"]},
        "meanfield": {
            "type": "object",
            "properties": {
                "interaction": _INTERACTION,
                "mode": {"type": "string", "enum": list(MODES)},
                "picard_max_iter": {"type": "integer", "minimum": 1},
                "picard_tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["interaction"],
            "additionalProperties": False,
        },
        "outputs": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "observable": {"$ref": "#/$defs/matrix"},
                    "stride": {"type": "integer", "minimum": 1},
                    "label": {"type": "string", "minLength": 1},
                },
                "required": ["observable", "label"],
                "additionalProperties": False,
            },
        },
    },
    "required": [
        "name",
        "dim",
        "hamiltonian",
        "channels",
        "rho0",
        "horizon",
        "dt",
        "trajectories",
        "seed",
        "engine",
    ],
    "additionalProperties": False,
}


def _is_number(x) -> bool:
    """A JSON number as the walker reads it: an ``int`` (not a ``bool``) or a finite ``float``."""
    return isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and math.isfinite(x)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}


def _resolve(ref: str) -> dict:
    """The subschema at a local ``#/...`` reference."""
    node = SCENARIO_SCHEMA
    for part in ref.removeprefix("#/").split("/"):
        node = node[part]
    return node


def _one_of(x, branches, path):
    valid = [b for b in branches if next(_schema_errors(x, b, path), None) is None]
    if not valid:
        yield path, f"{x!r} is not valid under any of the given schemas"
    elif len(valid) > 1:
        yield path, f"{x!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"


def _too_few(x, n):
    return f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _no_extras(x, schema, path):
    extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str) if isinstance(x, dict) else []
    if extras:
        names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
        yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


# keyword -> (instance, keyword value, enclosing schema, path) -> iterable of (path, message)
_KEYWORDS = {
    "$schema": lambda x, v, s, p: (),
    "$defs": lambda x, v, s, p: (),
    "$ref": lambda x, v, s, p: _schema_errors(x, _resolve(v), p),
    "type": lambda x, v, s, p: () if _TYPES[v](x) else [(p, f"{x!r} is not of type {v!r}")],
    "enum": lambda x, v, s, p: () if isinstance(x, str) and x in v else [(p, f"{x!r} is not one of {v!r}")],
    "minimum": lambda x, v, s, p: (
        [(p, f"{x!r} is less than the minimum of {v!r}")] if _is_number(x) and x < v else ()),
    "maximum": lambda x, v, s, p: (
        [(p, f"{x!r} is greater than the maximum of {v!r}")] if _is_number(x) and x > v else ()),
    "exclusiveMinimum": lambda x, v, s, p: (
        [(p, f"{x!r} is less than or equal to the minimum of {v!r}")] if _is_number(x) and x <= v else ()),
    "minLength": lambda x, v, s, p: [(p, _too_few(x, v))] if isinstance(x, str) and len(x) < v else (),
    "minItems": lambda x, v, s, p: [(p, _too_few(x, v))] if isinstance(x, list) and len(x) < v else (),
    "maxItems": lambda x, v, s, p: [(p, f"{x!r} is too long")] if isinstance(x, list) and len(x) > v else (),
    "items": lambda x, v, s, p: (
        (e for i, item in enumerate(x) for e in _schema_errors(item, v, p + (i,))) if isinstance(x, list) else ()),
    "properties": lambda x, v, s, p: (
        (e for k, sub in v.items() if k in x for e in _schema_errors(x[k], sub, p + (k,)))
        if isinstance(x, dict) else ()),
    "required": lambda x, v, s, p: (
        [(p, f"{k!r} is a required property") for k in v if k not in x] if isinstance(x, dict) else ()),
    "additionalProperties": lambda x, v, s, p: _no_extras(x, s, p),  # the schema only ever sets it to false
    "oneOf": lambda x, v, s, p: _one_of(x, v, p),
}


def _schema_errors(x, schema: dict, path: tuple = ()):
    """Yield (path tuple, message) for every violation of ``schema`` by ``x``, keyword by keyword."""
    for key, value in schema.items():
        yield from _KEYWORDS[key](x, value, schema, path)


class ScenarioError(Exception):
    """Config validation failure; ``errors`` is a list of (json_path, message)."""

    def __init__(self, errors: list[tuple[str, str]]):
        self.errors = errors
        super().__init__("; ".join(f"{p}: {m}" for p, m in errors))


def _complex_matrix(rows) -> np.ndarray:
    """The array of rows of [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def build_matrix(spec, d: int) -> np.ndarray:
    """Materialize a matrix spec at dimension d."""
    if isinstance(spec, str):
        if spec in ("pauli_x", "pauli_y", "pauli_z"):
            if d != 2:
                raise ValueError(f"{spec} requires dim 2, scenario has dim {d}")
            return {"pauli_x": SIGMA_X, "pauli_y": SIGMA_Y, "pauli_z": SIGMA_Z}[spec].copy()
        if spec == "zero":
            return np.zeros((d, d), dtype=complex)
        if spec == "identity":
            return np.eye(d, dtype=complex)
        if spec == "number":
            return np.diag(np.arange(d)).astype(complex)
        raise ValueError(f"unknown matrix builder {spec!r}")
    if "entries" in spec:
        m = _complex_matrix(spec["entries"])
        if m.shape != (d, d):
            raise ValueError(f"entries have shape {m.shape}, expected ({d}, {d})")
        return m
    if "scaled" in spec:
        factor = spec["scaled"]["factor"]
        c = complex(factor[0], factor[1]) if isinstance(factor, list) else complex(factor)
        return c * build_matrix(spec["scaled"]["op"], d)
    if "sum" in spec:
        return sum(build_matrix(s, d) for s in spec["sum"])
    raise ValueError(f"unintelligible matrix spec {spec!r}")


def build_ket(spec, d: int) -> np.ndarray:
    if isinstance(spec, dict):
        k = spec["basis"]
        if k >= d:
            raise ValueError(f"basis index {k} out of range for dim {d}")
        out = np.zeros(d, dtype=complex)
        out[k] = 1.0
        return out
    out = np.array([complex(re, im) for re, im in spec])
    if out.shape != (d,):
        raise ValueError(f"ket has length {out.shape[0]}, expected {d}")
    return out


def build_rho0(spec, d: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Materialize the initial state; returns (rho0, ket or None if not explicitly pure)."""
    if isinstance(spec, dict) and "pure" in spec:
        ket = build_ket(spec["pure"], d)
        nrm = np.linalg.norm(ket)
        if nrm == 0:
            raise ValueError("pure initial state must be nonzero")
        ket = ket / nrm
        return np.outer(ket, ket.conj()), ket
    if isinstance(spec, dict) and "diag" in spec:
        w = np.asarray(spec["diag"], dtype=float)
        if w.shape != (d,):
            raise ValueError(f"diag weights have length {w.size}, expected {d}")
        return np.diag(w).astype(complex), None
    return build_matrix(spec, d), None


@dataclass
class Scenario:
    """A validated, materialized scenario ready to run."""

    name: str
    dim: int
    h: np.ndarray
    ls: np.ndarray  # (n, d, d)
    rho0: np.ndarray
    chi0: np.ndarray | None
    horizon: float
    dt: float
    trajectories: int
    seed: int
    engine: str
    picture: str  # resolved, never "auto"
    interaction: InteractionMap | None
    meanfield: dict  # the MeanFieldConfig options the file sets: mode, picard_max_iter, picard_tol
    outputs: list[tuple[str, np.ndarray, int]]  # (label, observable, stride)
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def steps(self) -> int:
        return step_count(self.horizon, self.dt)


# Characters an output label may not contain: labels are written unquoted in
# the CSV's ``observable`` column.
LABEL_FORBIDDEN = (",", '"', "\r", "\n")


def resolve_picture(requested: str, h: np.ndarray, dt: float) -> str:
    """``auto`` picks the interaction picture once the Hamiltonian is stiff on the grid."""
    if requested != "auto":
        return requested
    return "interaction" if operator_norm(h) * dt > 0.1 else "schroedinger"


def validate_scenario(data: dict) -> Scenario:
    """Full schema plus semantic validation; raises ScenarioError listing every violation."""
    errors = [("/" + "/".join(map(str, path)), message)
              for path, message in sorted(_schema_errors(data, SCENARIO_SCHEMA), key=lambda e: e[0])]
    if errors:
        raise ScenarioError(errors)

    d = data["dim"]
    h = ls = rho0 = chi0 = steps = None
    try:
        h = require_hermitian(build_matrix(data["hamiltonian"], d), name="H")
    except ValueError as e:
        errors.append(("/hamiltonian", str(e)))
    try:
        ls = np.stack([build_matrix(s, d) for s in data["channels"]])
    except ValueError as e:
        errors.append(("/channels", str(e)))
    if ls is not None and "n_channels" in data and data["n_channels"] != ls.shape[0]:
        errors.append(("/n_channels", f"declared {data['n_channels']} but {ls.shape[0]} channels given"))
    try:
        rho0, chi0 = build_rho0(data["rho0"], d)
        require_density(rho0)
    except ValueError as e:
        errors.append(("/rho0", str(e)))

    engine = data["engine"]
    if engine in ("pure_linear", "pure_nonlinear") and chi0 is None:
        errors.append(("/rho0", f"engine {engine} requires a pure initial state ({{'pure': ...}})"))

    try:
        steps = step_count(data["horizon"], data["dt"])
    except ValueError as e:
        errors.append(("/horizon", str(e)))

    interaction = None
    mf = data.get("meanfield")
    if engine == "meanfield":
        if data.get("picture") == "interaction":
            errors.append(("/picture", "engine meanfield integrates in the Schroedinger picture; "
                                       "use \"auto\" or \"schroedinger\""))
        if mf is None:
            errors.append(("/meanfield", "engine meanfield requires a meanfield block"))
        else:
            try:
                interaction = _build_interaction(mf["interaction"], d)
            except ValueError as e:
                errors.append(("/meanfield/interaction", str(e)))

    outputs = []
    first_with_label: dict[str, int] = {}
    for i, out in enumerate(data.get("outputs", [])):
        label = out["label"]
        unsafe = [c for c in LABEL_FORBIDDEN if c in label]
        if unsafe:
            errors.append((f"/outputs/{i}/label",
                           f"label {label!r} contains {', '.join(map(repr, unsafe))}, which would break CSV rows"))
        if label in first_with_label:
            errors.append((f"/outputs/{i}/label",
                           f"label {label!r} is already used by /outputs/{first_with_label[label]}"))
        first_with_label.setdefault(label, i)
        try:
            op = build_matrix(out["observable"], d)
            stride = out.get("stride", 1)
            if steps is not None and steps % stride:
                errors.append((f"/outputs/{i}/stride", f"stride {stride} does not divide {steps} steps"))
            outputs.append((out["label"], op, stride))
        except ValueError as e:
            errors.append((f"/outputs/{i}/observable", str(e)))

    if errors:
        raise ScenarioError(errors)

    picture = resolve_picture(data.get("picture", "auto"), h, data["dt"])
    if engine == "meanfield":
        picture = "schroedinger"  # the mean-field solver integrates directly

    return Scenario(
        name=data["name"],
        dim=d,
        h=h,
        ls=ls,
        rho0=rho0,
        chi0=chi0,
        horizon=float(data["horizon"]),
        dt=float(data["dt"]),
        trajectories=data["trajectories"],
        seed=data["seed"],
        engine=engine,
        picture=picture,
        interaction=interaction,
        meanfield={k: v for k, v in (mf or {}).items() if k != "interaction"},
        outputs=outputs,
        raw=data,
    )


def _build_interaction(spec: dict, d: int) -> InteractionMap:
    kernel = spec.get("kernel")
    return InteractionMap(
        spec["variant"], d, kernel=None if kernel is None else _complex_matrix(kernel), table=spec.get("table")
    )


def read_scenario(path: str) -> dict:
    """The raw scenario object of a JSON file; invalid JSON or a non-object is a ScenarioError at /."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ScenarioError([("/", f"not valid JSON: {e}")])
    if not isinstance(data, dict):
        raise ScenarioError([("/", f"the top level must be a JSON object, got {json.dumps(data)[:40]}")])
    return data


def load_scenario(path: str) -> Scenario:
    return validate_scenario(read_scenario(path))


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``key=value`` overrides (dotted paths, JSON-parsed values) to a raw scenario."""
    out = json.loads(json.dumps(data))
    for item in overrides:
        if "=" not in item:
            raise ScenarioError([("/", f"override {item!r} is not of the form key=value")])
        key, _, raw_val = item.partition("=")
        try:
            value = json.loads(raw_val)
        except json.JSONDecodeError:
            value = raw_val
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ScenarioError([("/" + key.replace(".", "/"), "cannot override inside a non-object")])
        node[parts[-1]] = value
    return out
