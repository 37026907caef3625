"""Experiment harness: one function per paper table/figure, plus renderers,
exporters, analytical models, design-space analysis, and statistics."""

from repro.analysis.charts import render_barchart, render_linechart
from repro.analysis.experiments import (
    DEFAULT_REQUESTS,
    average,
    run_many,
    run_workload,
    slowdown,
    slowdown_matrix,
    workload_rows,
)
from repro.analysis.runner import (
    CACHE_SCHEMA_VERSION,
    ExperimentRunner,
    Job,
    ResultCache,
    SecurityJob,
)
from repro.analysis.export import result_record, to_csv, to_json, write_records
from repro.analysis.model import (
    autorfm_alert_rate,
    autorfm_expected_delay,
    autorfm_saum_duty,
    rfm_bank_overhead,
)
from repro.analysis.statistics import MetricSummary, seed_study, summarize
from repro.analysis.storage import storage_overheads
from repro.analysis.tables import render_series, render_table
from repro.analysis.tradeoffs import cheapest_tracker_for, tracker_tradeoffs

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_REQUESTS",
    "ExperimentRunner",
    "Job",
    "ResultCache",
    "SecurityJob",
    "average",
    "run_many",
    "run_workload",
    "slowdown",
    "slowdown_matrix",
    "workload_rows",
    "storage_overheads",
    "render_series",
    "render_table",
    "render_barchart",
    "render_linechart",
    "result_record",
    "to_csv",
    "to_json",
    "write_records",
    "autorfm_alert_rate",
    "autorfm_expected_delay",
    "autorfm_saum_duty",
    "rfm_bank_overhead",
    "MetricSummary",
    "seed_study",
    "summarize",
    "cheapest_tracker_for",
    "tracker_tradeoffs",
]
