"""Integration tests for the enterprise traffic simulator."""

import numpy as np
import pytest

from repro.sources.proxy import records_to_summaries
from repro.synthetic.enterprise import (
    EnterpriseConfig,
    EnterpriseSimulator,
    ImplantSpec,
)


@pytest.fixture(scope="module")
def small_enterprise():
    config = EnterpriseConfig(
        n_hosts=20,
        n_sites=40,
        duration=86_400.0 / 4,  # 6 hours keeps the test fast
        implants=(
            ImplantSpec("zbot", "zeus", n_infected=2, period=120.0),
            ImplantSpec("tdss", "tdss", n_infected=1),
        ),
        seed=11,
    )
    return EnterpriseSimulator(config).generate()


class TestGeneration:
    def test_produces_records_and_truth(self, small_enterprise):
        records, truth = small_enterprise
        assert len(records) > 100
        assert len(truth.malicious_destinations) == 2
        assert len(truth.infected_hosts) >= 2

    def test_records_sorted_by_time(self, small_enterprise):
        records, _ = small_enterprise
        times = [r.timestamp for r in records]
        assert times == sorted(times)

    def test_malicious_traffic_present(self, small_enterprise):
        records, truth = small_enterprise
        seen = {r.destination for r in records}
        assert truth.malicious_destinations <= seen

    def test_benign_periodic_services_present(self, small_enterprise):
        records, truth = small_enterprise
        seen = {r.destination for r in records}
        assert truth.benign_periodic_destinations
        assert truth.benign_periodic_destinations <= seen

    def test_infected_hosts_contact_malicious_domains(self, small_enterprise):
        records, truth = small_enterprise
        contacts = {
            r.source_mac for r in records
            if r.destination in truth.malicious_destinations
        }
        assert contacts == truth.infected_hosts

    def test_labels(self, small_enterprise):
        _, truth = small_enterprise
        for domain in truth.malicious_destinations:
            assert truth.label(domain) == 1
        assert truth.label("www.benign-place.com") == 0

    def test_deterministic_given_seed(self):
        config = EnterpriseConfig(n_hosts=5, n_sites=10, duration=3600.0, seed=3)
        recs_a, _ = EnterpriseSimulator(config).generate()
        recs_b, _ = EnterpriseSimulator(config).generate()
        assert recs_a == recs_b

    def test_multi_client_implants(self, small_enterprise):
        records, truth = small_enterprise
        multi = [
            d for d, spec in truth.implant_by_destination.items()
            if spec.n_infected > 1
        ]
        for domain in multi:
            clients = {r.source_mac for r in records if r.destination == domain}
            assert len(clients) > 1


class TestIpChurn:
    def test_ips_change_across_days(self):
        config = EnterpriseConfig(
            n_hosts=30, n_sites=10, duration=5 * 86_400.0,
            ip_churn_probability=0.9, session_rate=0.5 / 3600.0, seed=5,
        )
        records, _ = EnterpriseSimulator(config).generate()
        ips_per_mac = {}
        for r in records:
            ips_per_mac.setdefault(r.source_mac, set()).add(r.source_ip)
        assert any(len(ips) > 1 for ips in ips_per_mac.values())

    def test_macs_are_stable_identifiers(self):
        config = EnterpriseConfig(n_hosts=4, n_sites=5, duration=3600.0, seed=2)
        records, _ = EnterpriseSimulator(config).generate()
        macs = {r.source_mac for r in records}
        assert macs <= {f"02:00:00:00:00:0{i}" for i in range(4)}


class TestDetectionOnSimulatedTraffic:
    def test_implanted_beacons_are_detectable(self, small_enterprise):
        """End-to-end sanity: the core detector finds the implants."""
        from repro.core import DetectorConfig, PeriodicityDetector

        records, truth = small_enterprise
        summaries = records_to_summaries(records)
        detector = PeriodicityDetector(DetectorConfig(seed=0))
        detected = set()
        for summary in summaries:
            if summary.destination in truth.malicious_destinations:
                result = detector.detect_summary(summary)
                if result.periodic:
                    detected.add(summary.destination)
        assert detected == truth.malicious_destinations

    def test_invalid_period_override_rejected(self):
        with pytest.raises(ValueError, match="fixed cadence"):
            ImplantSpec("x", "tdss", period=100.0).build_spec(86_400.0, 0.0)

    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ValueError, match="unknown behaviour"):
            ImplantSpec("x", "not-a-bot")
