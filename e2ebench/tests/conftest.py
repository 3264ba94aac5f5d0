"""Self-test fixtures: the benchmark's modules on the path, a tiny cohort."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.prepare_imports()

#: small enough that every workload's set-up and cycle take seconds
TINY_PATIENTS = 60


@pytest.fixture(scope="session")
def tiny_system():
    import repro
    from repro.discri.generator import DiScRiGenerator

    cohort = DiScRiGenerator(n_patients=TINY_PATIENTS, seed=5).generate()
    return repro.open_system(cohort)
