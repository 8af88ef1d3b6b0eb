"""Shared fixtures for the test suite."""

import logging

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic random generator for test reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """Undo what a test did to the ``repro`` logger.

    ``repro.obs.configure_logging`` adds a handler and stops
    propagation; left in place, a later test's ``caplog`` would see no
    record, so a test's outcome would depend on the suite's order.
    """
    logger = logging.getLogger("repro")
    handlers = list(logger.handlers)
    level, propagate = logger.level, logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate
