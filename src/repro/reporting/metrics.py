"""Render a metrics-registry snapshot as an ASCII table.

``repro metrics --format text`` prints this; the column layout follows the other benchmark tables so EXPERIMENTS.md can
quote it verbatim.  Counters and gauges print their value; histograms print
``count / mean / max-bucket`` plus a compact per-bucket breakdown.
"""

from __future__ import annotations

from typing import Dict

from repro.reporting.tables import AsciiTable


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _histogram_detail(data: Dict[str, object]) -> str:
    """``le=bound:count`` pairs for non-empty buckets, overflow last."""
    bounds = list(data["buckets"])
    counts = list(data["counts"])
    parts = [
        f"le={_format_value(bound)}:{count}"
        for bound, count in zip(bounds, counts[:-1])
        if count
    ]
    if counts[-1]:
        parts.append(f"inf:{counts[-1]}")
    return " ".join(parts) if parts else "-"


def render_metrics_table(snapshot: Dict[str, Dict[str, object]],
                         title: str = "metrics registry",
                         max_col_width: int = 40) -> str:
    """One row per metric, sorted by name (the snapshot's natural order).

    Args:
        snapshot: A :meth:`repro.obs.MetricsRegistry.snapshot` (or
            :meth:`delta`) mapping.
        title: Table title line.
        max_col_width: Column width cap.  Metric names longer than the
            cap (deeply dotted series like the per-SLO-class
            ``repro.gateway.*`` histograms) and long histogram bucket
            breakdowns wrap onto continuation lines at segment boundaries
            instead of stretching every row in the table; ``0`` disables
            wrapping.
    """
    table = AsciiTable(["metric", "kind", "value", "detail"], title=title,
                       max_col_width=max_col_width)
    for name in sorted(snapshot):
        data = snapshot[name]
        kind = data["kind"]
        if kind == "histogram":
            count = data["count"]
            mean = (data["sum"] / count) if count else 0.0
            table.add_row(
                name, kind,
                f"n={count} mean={_format_value(mean)}",
                _histogram_detail(data),
            )
        else:
            table.add_row(name, kind, _format_value(data["value"]), "-")
    return table.render()

