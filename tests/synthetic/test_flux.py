"""Tests for domain-flux beaconing and entity aggregation (Challenge 2)."""

import numpy as np
import pytest

from repro.core import DetectorConfig, PeriodicityDetector
from repro.sources.proxy import records_to_summaries
from repro.synthetic import BeaconSpec, FluxBeacon, subdomain_flux_pool

DAY = 86_400.0


@pytest.fixture
def flux_records(rng):
    pool = subdomain_flux_pool("evil-entity.com", 8, seed=1)
    beacon = FluxBeacon(
        spec=BeaconSpec(period=300.0, duration=DAY),
        domains=tuple(pool),
    )
    return beacon.generate(rng)


class TestSubdomainFluxPool:
    def test_pool_under_entity(self):
        pool = subdomain_flux_pool("evil.com", 5, seed=0)
        assert len(pool) == 5
        assert all(d.endswith(".evil.com") for d in pool)
        assert len(set(pool)) == 5

    def test_deterministic(self):
        assert subdomain_flux_pool("e.com", 4, seed=2) == subdomain_flux_pool(
            "e.com", 4, seed=2
        )


class TestFluxBeacon:
    def test_rotates_domains(self, flux_records):
        domains = {r.destination for r in flux_records}
        assert len(domains) == 8

    def test_total_events_match_spec(self, flux_records):
        assert len(flux_records) == 289  # 86400 / 300 + 1

    def test_random_rotation(self, rng):
        beacon = FluxBeacon(
            spec=BeaconSpec(period=600.0, duration=DAY),
            domains=("a.e.com", "b.e.com"),
            rotation="random",
        )
        records = beacon.generate(rng)
        assert {r.destination for r in records} == {"a.e.com", "b.e.com"}

    def test_invalid_rotation(self):
        with pytest.raises(ValueError):
            FluxBeacon(
                spec=BeaconSpec(period=60.0, duration=600.0),
                domains=("a.com",),
                rotation="sideways",
            )


class TestEntityAggregation:
    def test_per_fqdn_pairs_are_sparse(self, flux_records):
        summaries = records_to_summaries(flux_records)
        assert len(summaries) == 8
        # Round-robin over 8 domains: each pair sees every 8th beacon.
        assert all(s.event_count < 50 for s in summaries)

    def test_aggregation_reassembles_the_beacon(self, flux_records):
        summaries = records_to_summaries(flux_records, aggregate_entities=True)
        assert len(summaries) == 1
        assert summaries[0].destination == "evil-entity.com"
        assert summaries[0].event_count == 289

    def test_detection_requires_aggregation(self, flux_records):
        """The paper's point: flux defeats per-FQDN analysis."""
        detector = PeriodicityDetector(DetectorConfig(seed=0))
        per_fqdn = records_to_summaries(flux_records)
        # Per-FQDN the effective period is 8x the true one; the entity
        # view recovers the actual 300 s beacon.
        entity = records_to_summaries(flux_records, aggregate_entities=True)
        result = detector.detect_summary(entity[0])
        assert result.periodic
        assert result.dominant_period == pytest.approx(300.0, rel=0.05)
        fqdn_periods = [
            detector.detect_summary(s).dominant_period
            for s in per_fqdn
        ]
        assert all(p is None or p > 2_000 for p in fqdn_periods)

    def test_pipeline_config_pass_through(self, flux_records):
        from repro.filtering import BaywatchPipeline, PipelineConfig

        pipeline = BaywatchPipeline(
            PipelineConfig(
                local_whitelist_threshold=0.5,
                ranking_percentile=0.0,
                aggregate_entities=True,
            )
        )
        report = pipeline.run_records(flux_records)
        assert [c.destination for c in report.detected_cases] == [
            "evil-entity.com"
        ]

    @pytest.mark.parametrize("shard_size", [None, 1])
    def test_engine_run_aggregates_entities(self, flux_records, shard_size):
        from repro.filtering import BaywatchPipeline, PipelineConfig
        from repro.mapreduce import MapReduceEngine

        pipeline = BaywatchPipeline(
            PipelineConfig(
                local_whitelist_threshold=0.5,
                ranking_percentile=0.0,
                aggregate_entities=True,
            ),
            engine=MapReduceEngine(),
        )
        sharding = {} if shard_size is None else {"shard_size": shard_size}
        report = pipeline.run_records(flux_records, **sharding)
        assert report.funnel.steps[0][1] == 1
        assert [c.destination for c in report.detected_cases] == [
            "evil-entity.com"
        ]
