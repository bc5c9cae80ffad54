"""Runners for every table and figure in the paper's evaluation (§IV).

The paper's experiment grid is 2x2: bucket size k in {4, 20} crossed
with originator share in {20 %, 100 %}, at 10 000 file downloads over
a 1000-node overlay. Each runner below reproduces one artifact:

* :func:`run_table1` — Table I, average forwarded chunks per cell;
* :func:`run_fig4`   — Fig. 4, per-node forwarded-chunk distributions;
* :func:`run_fig5`   — Fig. 5, F2 Lorenz curves and Gini (income);
* :func:`run_fig6`   — Fig. 6, F1 Lorenz curves and Gini
  (total forwarded vs forwarded as paid first hop);
* :func:`run_headline` — §VI's summary numbers: the relative Gini
  reduction going from k = 4 to k = 20.

All runners share one :func:`run_grid` so a combined invocation
simulates each cell exactly once. ``n_files``/``n_nodes`` scale the
experiment down for tests; paper scale is the default.
"""

from __future__ import annotations

from ..analysis.histogram import area_ratio, histogram
from ..analysis.plots import ascii_histogram, ascii_lorenz
from ..analysis.reports import Table
from ..backends import run_simulation
from ..backends.fast import FastSimulationConfig, SimulationResult
from .report import ExperimentReport

__all__ = [
    "GRID_BUCKET_SIZES",
    "GRID_ORIGINATOR_SHARES",
    "run_grid",
    "run_table1",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_headline",
]

#: The paper's swept bucket sizes (Swarm default vs Kademlia default).
GRID_BUCKET_SIZES = (4, 20)
#: The paper's originator shares (skewed vs uniform workload).
GRID_ORIGINATOR_SHARES = (0.2, 1.0)

_GRID_CACHE: dict[tuple, SimulationResult] = {}


def _share_label(share: float) -> str:
    return f"{share:.0%} originators"


def run_grid(n_files: int = 10_000, n_nodes: int = 1000,
             *, overlay_seed: int = 42, workload_seed: int = 7,
             bits: int = 16,
             backend: str = "fast") -> dict[tuple[int, float], SimulationResult]:
    """Simulate the 2x2 grid; cells are cached per process."""
    results: dict[tuple[int, float], SimulationResult] = {}
    for bucket_size in GRID_BUCKET_SIZES:
        for share in GRID_ORIGINATOR_SHARES:
            key = (bucket_size, share, n_files, n_nodes, overlay_seed,
                   workload_seed, bits, backend)
            cached = _GRID_CACHE.get(key)
            if cached is None:
                config = FastSimulationConfig(
                    n_nodes=n_nodes,
                    bits=bits,
                    bucket_size=bucket_size,
                    originator_share=share,
                    n_files=n_files,
                    overlay_seed=overlay_seed,
                    workload_seed=workload_seed,
                )
                cached = run_simulation(config, backend=backend)
                _GRID_CACHE[key] = cached
            results[(bucket_size, share)] = cached
    return results


def run_table1(n_files: int = 10_000, n_nodes: int = 1000,
               **grid_kwargs) -> ExperimentReport:
    """Table I: average forwarded chunks per configuration."""
    grid = run_grid(n_files, n_nodes, **grid_kwargs)
    report = ExperimentReport(
        name="table1",
        title=f"Table I - average forwarded chunks ({n_files} downloads)",
    )
    table = Table(
        title="Average forwarded chunks",
        headers=["configuration", *(_share_label(s) for s in
                 GRID_ORIGINATOR_SHARES)],
    )
    for bucket_size in GRID_BUCKET_SIZES:
        table.add_row(
            f"k={bucket_size}",
            *(round(grid[(bucket_size, share)].average_forwarded_chunks())
              for share in GRID_ORIGINATOR_SHARES),
        )
    report.add_table(table)
    for share in GRID_ORIGINATOR_SHARES:
        small_k = grid[(GRID_BUCKET_SIZES[0], share)]
        large_k = grid[(GRID_BUCKET_SIZES[-1], share)]
        report.add_note(
            f"{_share_label(share)}: k={GRID_BUCKET_SIZES[0]} forwards "
            f"{small_k.average_forwarded_chunks() / large_k.average_forwarded_chunks():.2f}x "
            f"the chunks of k={GRID_BUCKET_SIZES[-1]} "
            "(paper: larger k uses less bandwidth)"
        )
    report.data["grid"] = {
        f"k={k},share={s}": grid[(k, s)].average_forwarded_chunks()
        for k in GRID_BUCKET_SIZES for s in GRID_ORIGINATOR_SHARES
    }
    report.data["results"] = grid
    return report


def run_fig4(n_files: int = 10_000, n_nodes: int = 1000, *, bins: int = 15,
             **grid_kwargs) -> ExperimentReport:
    """Fig. 4: distribution of per-node forwarded chunks."""
    grid = run_grid(n_files, n_nodes, **grid_kwargs)
    report = ExperimentReport(
        name="fig4",
        title=f"Figure 4 - forwarded-chunk distribution ({n_files} downloads)",
    )
    for share in GRID_ORIGINATOR_SHARES:
        # Shared bin range per panel so k=4 and k=20 are comparable.
        peak = max(
            float(grid[(k, share)].forwarded.max())
            for k in GRID_BUCKET_SIZES
        )
        for bucket_size in GRID_BUCKET_SIZES:
            result = grid[(bucket_size, share)]
            hist = histogram(
                result.forwarded, bins=bins, value_range=(0.0, peak)
            )
            report.add_figure(
                f"{_share_label(share)}, k={bucket_size}",
                ascii_histogram(hist, label="forwarded chunks per node"),
            )
        ratio = area_ratio(
            grid[(GRID_BUCKET_SIZES[0], share)].forwarded,
            grid[(GRID_BUCKET_SIZES[-1], share)].forwarded,
        )
        report.add_note(
            f"{_share_label(share)}: area under k={GRID_BUCKET_SIZES[0]} is "
            f"{ratio:.2f}x the area under k={GRID_BUCKET_SIZES[-1]} "
            "(paper reports 1.6x at 20% and 1.25x at 100%)"
        )
        report.data[f"area_ratio_{share}"] = ratio
    report.data["results"] = grid
    return report


def run_fig5(n_files: int = 10_000, n_nodes: int = 1000,
             **grid_kwargs) -> ExperimentReport:
    """Fig. 5: F2 Lorenz curves and Gini of per-node income."""
    grid = run_grid(n_files, n_nodes, **grid_kwargs)
    report = ExperimentReport(
        name="fig5",
        title=f"Figure 5 - F2 (income) Lorenz curves ({n_files} downloads)",
    )
    curves = {
        f"k={k}, {_share_label(s)}": grid[(k, s)].f2_curve()
        for k in GRID_BUCKET_SIZES for s in GRID_ORIGINATOR_SHARES
    }
    report.add_figure("F2 Lorenz curves", ascii_lorenz(curves))
    table = Table(
        title="F2 Gini coefficient (income per node)",
        headers=["configuration", *(_share_label(s) for s in
                 GRID_ORIGINATOR_SHARES)],
    )
    for bucket_size in GRID_BUCKET_SIZES:
        table.add_row(
            f"k={bucket_size}",
            *(grid[(bucket_size, share)].f2_gini()
              for share in GRID_ORIGINATOR_SHARES),
        )
    report.add_table(table)
    for share in GRID_ORIGINATOR_SHARES:
        g4 = grid[(4, share)].f2_gini()
        g20 = grid[(20, share)].f2_gini()
        report.add_note(
            f"{_share_label(share)}: F2 Gini k=20 is "
            f"{(g4 - g20) / g4:+.1%} vs k=4 (negative = fairer; paper "
            "reports a ~7% decrease)"
        )
    report.data["gini"] = {
        f"k={k},share={s}": grid[(k, s)].f2_gini()
        for k in GRID_BUCKET_SIZES for s in GRID_ORIGINATOR_SHARES
    }
    report.data["results"] = grid
    return report


def run_fig6(n_files: int = 10_000, n_nodes: int = 1000,
             **grid_kwargs) -> ExperimentReport:
    """Fig. 6: F1 Lorenz curves (forwarded vs paid-first-hop ratio)."""
    grid = run_grid(n_files, n_nodes, **grid_kwargs)
    report = ExperimentReport(
        name="fig6",
        title=(
            f"Figure 6 - F1 (forwarded vs first-hop) Lorenz curves "
            f"({n_files} downloads)"
        ),
    )
    curves = {
        f"k={k}, {_share_label(s)}": grid[(k, s)].f1_curve()
        for k in GRID_BUCKET_SIZES for s in GRID_ORIGINATOR_SHARES
    }
    report.add_figure("F1 Lorenz curves", ascii_lorenz(curves))
    table = Table(
        title="F1 Gini coefficient (forwarded / paid first hop, paid nodes)",
        headers=["configuration", *(_share_label(s) for s in
                 GRID_ORIGINATOR_SHARES)],
    )
    for bucket_size in GRID_BUCKET_SIZES:
        table.add_row(
            f"k={bucket_size}",
            *(grid[(bucket_size, share)].f1_gini()
              for share in GRID_ORIGINATOR_SHARES),
        )
    report.add_table(table)
    report.add_note(
        "paper: k=20 with 100% originators is close to full equity; "
        "k=4 with 20% originators rewards bandwidth very unevenly"
    )
    report.data["gini"] = {
        f"k={k},share={s}": grid[(k, s)].f1_gini()
        for k in GRID_BUCKET_SIZES for s in GRID_ORIGINATOR_SHARES
    }
    report.data["results"] = grid
    return report


def run_headline(n_files: int = 10_000, n_nodes: int = 1000,
                 **grid_kwargs) -> ExperimentReport:
    """§VI's summary: relative Gini reduction from k=4 to k=20.

    The paper states the reduction once for the whole study ("a 7%
    decrease in the Gini coefficient for F2 and a 6% reduction ...
    for F1"); we report it per originator share plus the average.
    """
    grid = run_grid(n_files, n_nodes, **grid_kwargs)
    report = ExperimentReport(
        name="headline",
        title=f"Headline Gini reductions, k=4 -> k=20 ({n_files} downloads)",
    )
    table = Table(
        title="Relative Gini reduction (positive = k=20 fairer)",
        headers=["property", *(_share_label(s) for s in
                 GRID_ORIGINATOR_SHARES), "mean"],
    )
    reductions: dict[str, list[float]] = {"F2": [], "F1": []}
    for prop, getter in (
        ("F2", lambda r: r.f2_gini()),
        ("F1", lambda r: r.f1_gini()),
    ):
        per_share = []
        for share in GRID_ORIGINATOR_SHARES:
            g4 = getter(grid[(4, share)])
            g20 = getter(grid[(20, share)])
            per_share.append((g4 - g20) / g4)
        reductions[prop] = per_share
        table.add_row(
            prop,
            *(f"{value:.1%}" for value in per_share),
            f"{sum(per_share) / len(per_share):.1%}",
        )
    report.add_table(table)
    report.add_note("paper reports: F2 -7%, F1 -6% (k=4 -> k=20)")
    report.data["reductions"] = reductions
    report.data["results"] = grid
    return report
