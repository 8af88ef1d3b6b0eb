#!/usr/bin/env python
"""Sources tour: the same hunt over proxy, DNS, and NetFlow views.

The paper's discussion (Section X) claims the methodology carries over
to other data sources — it only needs (source, destination, timestamp)
triples — while warning about each source's blind spots: resolver
caching hides fast beacons from DNS, and NetFlow strips names so the
language-model indicator is unavailable.

This example builds one ground-truth traffic trace, derives all three
views, and runs detection on each, making both the claim and the
caveats concrete.

Run:  python examples/sources_tour.py
"""

import numpy as np

from repro.core import DetectorConfig, PeriodicityDetector
from repro.sources import (
    dns_records_to_summaries,
    dns_view_of_proxy,
    netflow_records_to_summaries,
    netflow_view_of_proxy,
)
from repro.sources.proxy import records_to_summaries
from repro.synthetic import BeaconSpec, FluxBeacon, subdomain_flux_pool

DAY = 86_400.0


def build_traffic(rng):
    """Two implants: a fast 60 s beacon and a slow 20-minute one."""
    fast = FluxBeacon(
        spec=BeaconSpec(period=60.0, duration=DAY),
        domains=("c2.fast-entity.com",),
        source_mac="02:00:00:00:00:0a",
        source_ip="10.0.0.10",
    ).generate(rng)
    slow = FluxBeacon(
        spec=BeaconSpec(period=1200.0, duration=DAY),
        domains=tuple(subdomain_flux_pool("slow-entity.com", 4, seed=2)),
        source_mac="02:00:00:00:00:0b",
        source_ip="10.0.0.11",
    ).generate(rng)
    return sorted(fast + slow, key=lambda r: r.timestamp)


def describe(name, summaries, detector):
    print(f"\n[{name}] {len(summaries)} communication pairs")
    for summary in summaries:
        result = detector.detect_summary(summary)
        periods = ", ".join(f"{p:.0f}s" for p in result.periods()) or "-"
        print(f"  {summary.source:18s} -> {summary.destination:28s} "
              f"{summary.event_count:5d} events  periodic={result.periodic!s:5s}"
              f"  periods: {periods}")


def main() -> None:
    rng = np.random.default_rng(3)
    records = build_traffic(rng)
    detector = PeriodicityDetector(DetectorConfig(seed=0))
    print(f"ground truth: 60 s beacon to fast-entity.com, "
          f"1200 s fluxing beacon to slow-entity.com "
          f"({len(records)} raw events)")

    # Proxy view: the richest — full domains, per-request visibility.
    proxy = records_to_summaries(records, aggregate_entities=True)
    describe("web proxy (entity-aggregated)", proxy, detector)

    # DNS view: resolver caching (TTL 300 s) swallows the fast beacon's
    # per-request lookups; the slow beacon re-resolves every time.
    dns = dns_view_of_proxy(records, ttl=300.0)
    dns_summaries = dns_records_to_summaries(dns)
    describe("DNS resolver (TTL 300 s)", dns_summaries, detector)
    print("  note: the 60 s beacon appears at the 300 s cache period —")
    print("  the resolver view quantizes fast beacons to the TTL.")

    # NetFlow view: names are gone; pairs key on resolved IPs.
    flows = netflow_view_of_proxy(records)
    flow_summaries = netflow_records_to_summaries(flows)
    describe("NetFlow (no names)", flow_summaries, detector)
    print("  note: detection still works per IP pair, but the LM and")
    print("  token indicators are unavailable — rank with lm weight 0.")


if __name__ == "__main__":
    main()
