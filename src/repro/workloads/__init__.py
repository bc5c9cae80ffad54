"""Workload generation: who downloads what (paper §IV-B).

Originator pools (20 % / 100 % shares, Zipf skew), file-size and
chunk-address distributions, streaming download generators, and
persistable traces for replaying identical request sequences.
"""

from .distributions import (
    OriginatorPool,
    PoissonArrivals,
    UniformChunks,
    UniformFileSize,
    ZipfCatalog,
)
from .generators import DownloadWorkload, FileDownload, paper_workload
from .streams import (
    GeneratorStream,
    RequestBatch,
    RequestStream,
    TraceStream,
    WorkloadStream,
    parse_request_line,
)
from .traces import (
    TRACE_FORMAT,
    TRACE_NDJSON_FORMAT,
    TraceReader,
    TraceSummary,
    TraceWorkload,
    WorkloadTrace,
)

__all__ = [
    "DownloadWorkload",
    "FileDownload",
    "GeneratorStream",
    "OriginatorPool",
    "PoissonArrivals",
    "RequestBatch",
    "RequestStream",
    "TRACE_FORMAT",
    "TRACE_NDJSON_FORMAT",
    "TraceReader",
    "TraceStream",
    "TraceSummary",
    "TraceWorkload",
    "UniformChunks",
    "UniformFileSize",
    "WorkloadStream",
    "WorkloadTrace",
    "ZipfCatalog",
    "paper_workload",
]
