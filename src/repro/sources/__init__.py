"""Log-source adapters feeding the pipeline's ActivitySummary stream.

The core methodology only consumes (source, destination, timestamp)
triples.  The paper's BlueCoat web-proxy logs are the primary path:
:mod:`repro.sources.proxy` holds the record format and pair keying,
and :mod:`repro.sources.columnar` parses logs into numpy chunk arrays
and folds them into summaries — the only proxy-log fold, which
:func:`~repro.sources.proxy.records_to_summaries` feeds object
records through.  The DNS and NetFlow modules (paper Section X) adapt
resolver logs and flow records into the same stream, including the
source-specific caveats the paper discusses (DNS caching, NetFlow's
lack of names/content).
"""

from repro.sources.columnar import (
    CHUNK_DTYPE,
    ColumnarAccumulator,
    ColumnTables,
    RecordChunk,
    StringTable,
    chunks_to_records,
    read_log_chunks,
    records_to_chunks,
    summaries_from_chunks,
)
from repro.sources.dns import (
    DnsLogRecord,
    dns_records_to_summaries,
    dns_view_of_proxy,
)
from repro.sources.netflow import (
    NetflowRecord,
    netflow_records_to_summaries,
    netflow_view_of_proxy,
    resolve_domain,
)
from repro.sources.proxy import (
    LogFormatError,
    PairConfig,
    ProxyLogRecord,
    read_log,
    records_to_summaries,
    summary_from_observations,
    write_log,
)

__all__ = [
    "CHUNK_DTYPE",
    "ColumnTables",
    "ColumnarAccumulator",
    "RecordChunk",
    "StringTable",
    "chunks_to_records",
    "read_log_chunks",
    "records_to_chunks",
    "summaries_from_chunks",
    "DnsLogRecord",
    "dns_records_to_summaries",
    "dns_view_of_proxy",
    "NetflowRecord",
    "netflow_records_to_summaries",
    "netflow_view_of_proxy",
    "resolve_domain",
    "LogFormatError",
    "PairConfig",
    "ProxyLogRecord",
    "read_log",
    "records_to_summaries",
    "summary_from_observations",
    "write_log",
]
