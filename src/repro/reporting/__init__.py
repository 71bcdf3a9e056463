"""Reporting: ASCII tables and figure-series renderers matching the paper."""

from repro.reporting.metrics import render_metrics_table
from repro.reporting.tables import AsciiTable, format_float, render_series

__all__ = [
    "AsciiTable",
    "format_float",
    "render_metrics_table",
    "render_series",
]
