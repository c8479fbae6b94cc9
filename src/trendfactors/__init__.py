"""Unit-root common trends, stationary factors, and white-noise decomposition.

A library and CLI that splits a high-dimensional, possibly unit-root panel
into unit-root common trends, dynamically dependent stationary factors, and
idiosyncratic white noise via two-stage eigenanalysis, then uses the pieces
for forecasting and Monte Carlo benchmarking.

The package exports the entry points the README documents, the types they
take or return, and the error classes behind the CLI exit codes.  The stage
cores stay in their submodules: ``unitroot.first_stage`` / ``scan_r1``,
``whitenoise.count_factors`` and ``pipeline.second_stage`` /
``recover_factors``.
"""

from .errors import (
    ArgumentError,
    CsvParseError,
    IllConditionedError,
    NumericalError,
    TrendFactorsError,
)
from .forecast import ForecastReport, evaluate_forecasts, forecast_y
from .pipeline import Decomposition, PipelineConfig, decompose
from .simgen import DgpSpec, GroundTruth, MonteCarloResult, generate, run_montecarlo
from .tsstats import TimeSeriesPanel

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CsvParseError",
    "Decomposition",
    "DgpSpec",
    "ForecastReport",
    "GroundTruth",
    "IllConditionedError",
    "MonteCarloResult",
    "NumericalError",
    "PipelineConfig",
    "TimeSeriesPanel",
    "TrendFactorsError",
    "decompose",
    "evaluate_forecasts",
    "forecast_y",
    "generate",
    "run_montecarlo",
]
