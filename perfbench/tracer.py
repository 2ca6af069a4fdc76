"""In-memory span tracer wrapped around qsme's public functions.

Spans are recorded from outside the package: each traced function is replaced
by a timing wrapper in the namespace of the module that *calls* it (``cli``
imports the ``run_*`` functions by name, ``ensemble`` imports
``linear_pure_step``, ``meanfield`` imports the steppers and ``SMEParams``),
and methods are wrapped on their class.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, run_id, out_bytes]`` where ``parent``
is the index of the enclosing span (-1 for a root) and ``out_bytes`` the
``nbytes`` of the returned value (0 if it has none).  Span names are
``<layer>.<function>`` and the layer is what the per-layer metrics aggregate
over.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# module -> {attribute: span name}; the attribute is replaced in that module.
# Only what the workloads reach is wrapped; a new workload adds its entries.
FUNCTION_WRAPS = {
    "qsme.cli": {
        "sample_wiener_batch": "noise.sample_wiener_batch",
        "run_nonlinear_sme": "master.run_nonlinear_sme",
        "run_ensemble": "ensemble.run_ensemble",
        "decompose_state": "ensemble.decompose_state",
        "mckean_vlasov_solve": "meanfield.mckean_vlasov_solve",
        "SMEParams": "master.SMEParams",
    },
    "qsme.master": {
        "nonlinear_sme_step": "master.nonlinear_sme_step",
        "lindblad_generator": "master.lindblad_generator",
        "hermitianize": "linalg.hermitianize",
    },
    "qsme.ensemble": {
        "linear_pure_step": "pure.linear_pure_step",
        "hermitianize": "linalg.hermitianize",
    },
    "qsme.meanfield": {
        "sample_wiener_batch": "noise.sample_wiener_batch",
        "nonlinear_sme_step": "master.nonlinear_sme_step",
        "SMEParams": "master.SMEParams",
        "apply_interaction": "meanfield.apply_interaction",
        "hermitianize": "linalg.hermitianize",
    },
}

# (module, class) -> {method: span name}; the method is replaced on the class.
METHOD_WRAPS = {
    ("qsme.linalg", "Propagator"): {
        "__init__": "linalg.Propagator",
        "factor": "linalg.factor",
        "dress": "linalg.dress",
    },
    ("qsme.master", "SMEParams"): {"to_schroedinger_frame_matrix": "master.frame_map"},
    ("qsme.pure", "PureFilterParams"): {"to_schroedinger_frame": "pure.frame_map"},
}

STEP_SPANS = {
    "master": ("master.nonlinear_sme_step",),
    "pure": ("pure.linear_pure_step",),
}


class Tracer:
    """Collects nested spans of one process; single-threaded use only."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, run_id, 0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            spans[idx][5] = getattr(out, "nbytes", 0)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap every traced function and method; undo with :meth:`uninstall`."""
        for module_name, attrs in FUNCTION_WRAPS.items():
            module = importlib.import_module(module_name)
            for attr, name in attrs.items():
                self._patch(module, attr, name)
        for (module_name, cls_name), attrs in METHOD_WRAPS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            for attr, name in attrs.items():
                self._patch(cls, attr, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest strictly, so children never overlap and their
    summed durations are exactly the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, *_) in enumerate(spans)]


def _descends_from(spans: list, idx: int, root: int) -> bool:
    while idx >= 0:
        if idx == root:
            return True
        idx = spans[idx][3]
    return False


def summarize(spans: list, root_name: str = "cli.run_scenario") -> dict:
    """Aggregate one run's spans into per-name and per-layer totals.

    Returns ``calls``, ``inclusive_s``, ``name_self_s`` and ``max_out_bytes``
    (the largest value returned) per span name (inclusive time counts only
    outermost spans of a name, so recursion is not double counted), ``self_s``
    per layer over the spans under the root, and the root's own duration as
    ``root_s``.  The layer self times add up to ``root_s`` by construction.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == root_name]
    if len(roots) != 1:
        raise ValueError(f"expected one {root_name} span, found {len(roots)}")
    root = roots[0]
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    max_out: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _, out_bytes) in enumerate(spans):
        calls[name] += 1
        max_out[name] = max(max_out[name], out_bytes)
        name_self[name] += selfs[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            inclusive[name] += end - start
        if _descends_from(spans, i, root):
            layer_self[name.split(".", 1)[0]] += selfs[i]
    return {
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "name_self_s": dict(name_self),
        "max_out_bytes": dict(max_out),
        "self_s": dict(layer_self),
        "root_s": spans[root][2] - spans[root][1],
    }
