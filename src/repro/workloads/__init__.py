"""Workload generation: who downloads what (paper §IV-B).

Originator pools (20 % / 100 % shares, Zipf skew), file-size and
chunk-address distributions, streaming download generators, and
persistable traces for replaying identical request sequences.

The public names load on first use, so generating a workload does not
import the request-stream or trace modules.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "distributions": ["OriginatorPool", "PoissonArrivals", "UniformChunks",
                      "UniformFileSize", "ZipfCatalog"],
    "generators": ["DownloadWorkload", "FileDownload", "paper_workload"],
    "streams": ["RequestBatch", "RequestStream", "parse_request_line"],
    "traces": ["TRACE_NDJSON_FORMAT", "TraceHeader", "TraceSummary",
               "TraceWorkload", "WorkloadTrace"],
})
