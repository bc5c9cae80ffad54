"""Analysis and rendering: histograms, Lorenz plots, tables, stats.

Everything the experiment runners use to turn per-node vectors into
the artifacts the paper reports — Fig. 4 frequency histograms,
Figs. 5/6 Lorenz curves (ASCII), Table I rows, and run-level summary
statistics.

The public names load on first use, so a process that streams
aggregates imports neither the plotting nor the report modules.
"""

from .._lazy import lazy_exports

# Eager: the function ``histogram`` shares its submodule's name, and
# importing the submodule binds that name to the module, where a lazy
# lookup would never replace it.
from .histogram import Histogram, area_ratio, histogram

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "histogram": ["Histogram", "area_ratio", "histogram"],
    "latency": ["LatencyDistribution", "LatencyModel",
                "latency_distribution"],
    "plots": ["ascii_histogram", "ascii_lorenz"],
    "reports": ["Table"],
    "stats": ["mean_confidence_interval"],
    "streaming": ["StreamingAggregator"],
    "table_viz": ["render_bucket_occupancy", "render_routing_table"],
})
