#!/usr/bin/env python
"""Scalability tour: the MapReduce deployment of BAYWATCH.

Shows the Section VII production architecture at laptop scale:

1. periodicity detection, the costly phase, as a MapReduce job over the
   local engine (a serial one unless the pipeline is given another),
   run in shards; extraction, popularity and ranking run in-process,
2. multi-day operation with rescale-and-merge: per-day extraction at
   1-second granularity, then a weekly coarse-grained pass over merged
   summaries that spots slow beacons invisible in a single day,
3. worker-pool parallelism (the stand-in for the paper's 13-node
   cluster).

Run:  python examples/scalability_tour.py
"""

import time

from repro.filtering import BaywatchPipeline, NoveltyStore, PipelineConfig
from repro.mapreduce import MapReduceEngine
from repro.synthetic import EnterpriseConfig, EnterpriseSimulator, ImplantSpec

DAY = 86_400.0


def main() -> None:
    print("=== simulating a 3-day enterprise window ===")
    config = EnterpriseConfig(
        n_hosts=25,
        n_sites=50,
        duration=3 * DAY,
        session_rate=0.4 / 3600.0,
        implants=(
            ImplantSpec("zbot", "zeus", n_infected=2, period=120.0),
            # A slow implant: one beacon every 4 hours.  Daily windows
            # see only ~6 events; the weekly pass catches it.
            ImplantSpec("apt", "apt", n_infected=1),
        ),
        seed=77,
    )
    records, truth = EnterpriseSimulator(config).generate()
    print(f"{len(records)} events over 3 days; implants: "
          f"{sorted(truth.malicious_destinations)}")

    pipeline_config = PipelineConfig(
        local_whitelist_threshold=0.2, ranking_percentile=0.5
    )

    print("\n=== daily operation (1 s granularity) ===")
    novelty = NoveltyStore()  # carried across the daily runs
    pipeline = BaywatchPipeline(pipeline_config, novelty=novelty)
    for day in range(3):
        start, end = day * DAY, (day + 1) * DAY
        day_records = [r for r in records if start <= r.timestamp < end]
        t0 = time.time()
        report = pipeline.run_records(day_records)
        names = [case.destination for case in report.ranked_cases]
        print(f"  day {day}: {len(day_records):6d} events, "
              f"{time.time() - t0:5.1f} s -> new reports: {names}")

    print("\n=== weekly pass: rescale to 60 s, merge, re-detect ===")
    weekly_pipeline = BaywatchPipeline(pipeline_config)
    t0 = time.time()
    weekly = weekly_pipeline.run_records(records, analysis_time_scale=60.0)
    print(f"  {time.time() - t0:.1f} s")
    print(weekly.funnel.as_text())
    slow = [case for case in weekly.ranked_cases
            if case.smallest_period and case.smallest_period > 3_600]
    print(f"  slow-beacon reports: "
          f"{[(c.destination, round(c.smallest_period)) for c in slow]}")

    print("\n=== same weekly pass on a 4-worker engine ===")
    with MapReduceEngine(n_workers=4, min_parallel_records=32) as engine:
        parallel_pipeline = BaywatchPipeline(pipeline_config, engine=engine)
        t0 = time.time()
        parallel = parallel_pipeline.run_records(
            records, analysis_time_scale=60.0
        )
        elapsed = time.time() - t0
    same = {c.destination for c in parallel.ranked_cases} == {
        c.destination for c in weekly.ranked_cases
    }
    print(f"  {elapsed:.1f} s; identical reports: {same}")


if __name__ == "__main__":
    main()
