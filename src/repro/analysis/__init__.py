"""Analysis and reporting utilities for the paper's experiments."""

from repro.analysis.breakdown import e2e_breakdown_for_benchmark, EndToEndBreakdown
from repro.analysis.figures import FigureReport, all_reports
from repro.analysis.realtime import RealTimeReport, evaluate_realtime
from repro.analysis.reporting import format_table
from repro.analysis.sweep import ParameterSweep, SweepResult

__all__ = [
    "EndToEndBreakdown",
    "FigureReport",
    "ParameterSweep",
    "RealTimeReport",
    "SweepResult",
    "all_reports",
    "e2e_breakdown_for_benchmark",
    "evaluate_realtime",
    "format_table",
]
