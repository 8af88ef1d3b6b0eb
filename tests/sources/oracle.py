"""Materialize-then-group: the oracle the proxy-log fold is checked against."""

from repro.core.timeseries import ActivitySummary
from repro.sources.proxy import PairConfig


def reference_summaries(records, *, time_scale=1.0, keep_urls=True,
                        max_urls_per_pair=64, aggregate_entities=False,
                        pair_config=None):
    """What ``records_to_summaries`` must return, built from every record.

    Each pair's records are sorted stably by timestamp, so ties keep
    arrival order, and the URLs of the first ``max_urls_per_pair`` are
    kept.  Summaries are ordered by pair.
    """
    if pair_config is None:
        pair_config = PairConfig(
            destination_feature=(
                "registered_domain" if aggregate_entities else "domain"
            )
        )
    max_urls = max_urls_per_pair if keep_urls else 0
    grouped = {}
    for record in records:
        pair = (pair_config.source_of(record), pair_config.destination_of(record))
        grouped.setdefault(pair, []).append(record)
    out = []
    for (source, destination), group in sorted(grouped.items()):
        group.sort(key=lambda record: record.timestamp)  # stable: arrival ties
        out.append(
            ActivitySummary.from_timestamps(
                source,
                destination,
                [record.timestamp for record in group],
                time_scale=time_scale,
                urls=[record.url for record in group[:max_urls]],
            )
        )
    return out
