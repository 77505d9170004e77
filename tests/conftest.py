"""Shared fixtures for the test suite: the evaluation machines.

``machine`` runs a test once on each machine of
:data:`repro.machine.MACHINE_NAMES`; ``alpha``, ``m88100`` and
``m68030`` give one machine each.
"""

from __future__ import annotations

import pytest

from repro.machine import MACHINE_NAMES, get_machine


@pytest.fixture(params=MACHINE_NAMES)
def machine(request):
    """Each of the three evaluation machines."""
    return get_machine(request.param)


@pytest.fixture
def alpha():
    return get_machine("alpha")


@pytest.fixture
def m88100():
    return get_machine("m88100")


@pytest.fixture
def m68030():
    return get_machine("m68030")
