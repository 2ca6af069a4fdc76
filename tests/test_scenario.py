"""The scenario schema walker against jsonschema, its keyword coverage, and its import cost."""

import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsme import scenario
from qsme.scenario import SCENARIO_SCHEMA, ScenarioError, validate_scenario

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bases():
    """Both shipped scenarios and every benchmark workload at seeds 1-3."""
    out = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json"))}
    workloads = _workloads()
    for w in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            out[f"{w}-{seed}"] = json.loads(workloads.scenario_bytes(workloads.make_scenario(w, seed)))
    return out


BASES = _bases()
DELETE = object()
VALUES = [None, True, "x", -1, 0, 1.5, 2.0, 300, [], {}, math.nan, -math.inf]
PAIR = [0.5, 0.0]

# Broken forms of each matrix spec: builder, entries, scaled and sum.
BROKEN_MATRICES = [
    "pauli_w", 3,
    {"entries": [[[1.0, 0.0, 0.0]]]}, {"entries": [["a"]]}, {"entries": 1}, {"entries": [], "x": 0}, {},
    {"scaled": {"op": "pauli_x"}}, {"scaled": {"op": "nope", "factor": 1.0}},
    {"scaled": {"op": "pauli_x", "factor": [1.0]}}, {"scaled": {"op": "pauli_x", "factor": "2"}},
    {"scaled": {"op": "pauli_x", "factor": math.nan}}, {"scaled": {"op": "pauli_x", "factor": [0.0, math.inf]}},
    {"sum": []}, {"sum": ["pauli_x", {"entries": [[PAIR, "b"]]}]}, {"sum": "pauli_x"},
]
BROKEN_KETS = [[], [[1.0]], [PAIR, [0.0, True]], {"basis": -1}, {"basis": 1.0}, {"basis": 0, "x": 0}, {}]
BROKEN_RHO0 = (BROKEN_MATRICES + [{"pure": k} for k in BROKEN_KETS]
               + [{"diag": []}, {"diag": ["a"]}, {"diag": [0.5], "x": 1}, {"pure": [PAIR], "diag": [1.0]}])
BROKEN_OUTPUTS = [
    {"observable": "pauli_z", "stride": 10.0, "label": "z"}, {"observable": "pauli_z", "stride": 0, "label": "z"},
    {"observable": "pauli_z", "label": ""}, {"observable": "pauli_z"}, {"observable": "pauli_z", "label": "z", "x": 1},
]
BROKEN_MEANFIELD = [
    {"interaction": {"variant": "nope"}}, {"interaction": {"variant": "potential", "table": [["a"]]}},
    {"interaction": {"variant": "hs_kernel", "kernel": [[[1.0]]]}}, {"interaction": {"variant": "zero"}, "x": 1},
    {"interaction": {"variant": "zero"}, "picard_max_iter": 3.0}, {"interaction": {"variant": "zero"}, "mode": "x"},
    {"interaction": {"variant": "zero"}, "picard_tol": 0}, {"mode": "linear"},
]


def _with(data, path, value):
    """A copy of ``data`` with the node at ``path`` replaced by ``value`` (or deleted for DELETE)."""
    out = copy.copy(data)
    if len(path) > 1:
        out[path[0]] = _with(data[path[0]], path[1:], value)
    elif value is DELETE:
        del out[path[0]]
    else:
        out[path[0]] = value
    return out


def _mutations(base):
    for key in base:
        for value in [DELETE] + VALUES:
            yield _with(base, (key,), value)
    yield {**base, "extra": 1}
    yield {**base, "channels": ["pauli_z"] * 9}
    yield {**{key: None for key in base if key != "name"}, "extra": 1}  # errors at many paths, "/" among them
    spec_paths = [("hamiltonian",), ("channels", 0)]
    spec_paths += [("outputs", i, "observable") for i in range(len(base.get("outputs", [])))]
    for path in spec_paths:
        for broken in BROKEN_MATRICES:
            yield _with(base, path, broken)
    for broken in BROKEN_RHO0:
        yield _with(base, ("rho0",), broken)
    for broken in BROKEN_OUTPUTS:
        yield _with(base, ("outputs",), [broken])
    for broken in BROKEN_MEANFIELD:
        yield _with(base, ("meanfield",), broken)


def _oracle():
    """jsonschema's 2020-12 validator with ``integer`` meaning a JSON integer and ``number`` a finite one,
    as the walker reads them.

    The walker copies the error wording of jsonschema 4.26 (the ``test`` extra's floor).
    """
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
        "number": lambda _, x: isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x),
    })
    return jsonschema.validators.extend(base, type_checker=checker)(SCENARIO_SCHEMA)


def _check_against_oracle(cases):
    oracle = _oracle()
    rejected = 0
    for data in cases:
        expected = [("/" + "/".join(map(str, e.absolute_path)), e.message)
                    for e in sorted(oracle.iter_errors(data), key=lambda e: list(e.absolute_path))]
        if not expected:
            assert list(scenario._schema_errors(data, SCENARIO_SCHEMA)) == [], data
            continue
        rejected += 1
        with pytest.raises(ScenarioError) as caught:
            validate_scenario(data)
        assert caught.value.errors == expected
    return rejected


def test_walker_accepts_every_base():
    assert _check_against_oracle(BASES.values()) == 0
    for data in BASES.values():
        assert validate_scenario(data).name == data["name"]


# Seeds 2 and 3 of a workload differ from seed 1 in numbers only, and each
# stiff_d16 mutation costs jsonschema ~40 ms, so only seed 1 is mutated.
@pytest.mark.parametrize("name", [n for n in BASES if not n.endswith(("-2", "-3"))])
def test_walker_matches_jsonschema_on_mutations(name):
    assert _check_against_oracle(_mutations(BASES[name])) > 100


def _schema_nodes(schema):
    yield schema
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            children = list(value.values())
        elif key == "oneOf":
            children = value
        elif key == "items":
            children = [value]
        else:
            continue
        for child in children:
            yield from _schema_nodes(child)


def test_schema_uses_only_walker_keywords():
    nodes = list(_schema_nodes(SCENARIO_SCHEMA))
    assert len(nodes) > 50
    for node in nodes:
        assert set(node) <= set(scenario._KEYWORDS), set(node) - set(scenario._KEYWORDS)
        assert node.get("additionalProperties", False) is False
        assert node.get("type", "string") in scenario._TYPES
        assert all(isinstance(v, str) for v in node.get("enum", []))
        if "$ref" in node:
            assert node["$ref"].startswith("#/") and isinstance(scenario._resolve(node["$ref"]), dict)


def test_one_of_rejects_a_second_match():
    jsonschema = pytest.importorskip("jsonschema")
    schema = {"oneOf": [{"type": "number"}, {"type": "number", "minimum": 0}]}
    expected = [((), e.message) for e in jsonschema.Draft202012Validator(schema).iter_errors(1)]
    assert list(scenario._schema_errors(1, schema)) == expected and len(expected) == 1
    assert list(scenario._schema_errors(-1, schema)) == []


def test_unknown_keyword_fails_loudly():
    with pytest.raises(KeyError):
        list(scenario._schema_errors("x", {"type": "string", "pattern": "y"}))


def test_validation_imports_no_jsonschema(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(BASES["qubit_dephasing"]))
    code = (
        "import sys, qsme, qsme.cli, qsme.scenario\n"
        f"qsme.scenario.load_scenario({str(path)!r})\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
