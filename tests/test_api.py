import importlib
import pkgutil

import pytest

import qsme

# Deleted (nothing ran them), moved to tests/oracles.py (only tests ran them), or
# folded into private helpers of qsme.suites that return CheckOutcomes.
GONE = [
    "WienerPath", "sample_wiener", "trajectory_rng", "convert_noise", "bracket", "norms", "trace_norm",
    "norm_process_step", "trace_process_step", "evolution_factor", "dress", "ensemble_step",
    "shared_feedback", "reconstruct_density", "hermiticity_preserving_kernel",
    "nonlinear_sme_rhs", "_symmetric_expectations", "_channel_mv", "deterministic_lindblad_solve",
    "ket_compensators", "_channel_left", "_noise_coefficients",
    "TrajectoryRecord", "simulate_linear_record", "RECORD_KINDS", "random_ket",
    "martingale_test", "moment_bound_check", "trace_inequality_check", "hermitian_trace_inequality_check",
    "hamiltonian_continuity_experiment", "convergence_order",
    "MartingaleTestResult", "BoundCheckResult", "InequalityCheck", "ContinuityReport", "ConvergenceReport",
]
# Not in the package namespace (no driver uses them there), but kept in their modules.
MODULE_ONLY = [
    ("linalg", "hermitian_spectrum"), ("pure", "mean_map"), ("pure", "nonlinear_pure_step"),
    ("master", "linear_sme_step"), ("meanfield", "PicardReport"), ("meanfield", "frozen_field_step"),
]
SUBMODULES = [importlib.import_module(f"qsme.{m.name}") for m in pkgutil.iter_modules(qsme.__path__)]


def test_every_listed_name_resolves():
    assert len(set(qsme.__all__)) == len(qsme.__all__)
    for name in qsme.__all__:
        assert getattr(qsme, name) is not None, name
    namespace = {}
    exec("from qsme import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qsme.__all__)


@pytest.mark.parametrize("name", GONE)
def test_removed_name_cannot_be_imported(name):
    assert name not in qsme.__all__
    with pytest.raises(ImportError):
        exec(f"from qsme import {name}", {})
    assert [m.__name__ for m in SUBMODULES if hasattr(m, name)] == []


@pytest.mark.parametrize("module, name", MODULE_ONLY)
def test_module_only_name_is_not_exported(module, name):
    assert name not in qsme.__all__
    with pytest.raises(ImportError):
        exec(f"from qsme import {name}", {})
    assert getattr(importlib.import_module(f"qsme.{module}"), name) is not None


def test_validation_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qsme.validation")
