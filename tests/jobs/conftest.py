"""Fixtures shared by the engine-run tests."""

import pytest

from repro.filtering import PipelineConfig
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec


@pytest.fixture(scope="session")
def enterprise():
    """A quarter day of 20 hosts, two of them beaconing every 90 s."""
    config = EnterpriseConfig(
        n_hosts=20,
        n_sites=40,
        duration=86_400.0 / 4,
        implants=(ImplantSpec("zbot", "zeus", n_infected=2, period=90.0),),
        seed=33,
    )
    return EnterpriseSimulator(config).generate()


@pytest.fixture(scope="session")
def pipeline_config():
    return PipelineConfig(local_whitelist_threshold=0.2, ranking_percentile=0.5)
