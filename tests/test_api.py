import importlib
import pkgutil

import pytest

import qsme

# Deleted (nothing ran them) or moved to tests/oracles.py (only tests ran them).
GONE = [
    "WienerPath", "sample_wiener", "trajectory_rng", "convert_noise", "bracket", "norms", "trace_norm",
    "norm_process_step", "trace_process_step", "evolution_factor", "dress", "ensemble_step",
    "shared_feedback", "reconstruct_density", "hermiticity_preserving_kernel",
    "nonlinear_sme_rhs", "_symmetric_expectations", "_channel_mv", "deterministic_lindblad_solve",
    "ket_compensators", "_channel_left", "_noise_coefficients",
    "TrajectoryRecord", "simulate_linear_record", "RECORD_KINDS", "random_ket",
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
