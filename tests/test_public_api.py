"""The package surface: the README's library example and the exported names."""

import re
from pathlib import Path

import trendfactors

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    # entry points
    "decompose", "PipelineConfig", "generate", "DgpSpec", "fit_factor_models",
    "forecast_y", "evaluate_forecasts", "run_montecarlo",
    # the types they take or return
    "Decomposition", "FactorModelFit", "ForecastReport", "MonteCarloResult",
    "GroundTruth", "TimeSeriesPanel",
    # the error classes behind the CLI exit codes
    "TrendFactorsError", "ArgumentError", "CsvParseError", "NumericalError",
    "DegenerateSeriesError", "IllConditionedError",
]


def test_all_is_the_documented_surface():
    assert sorted(trendfactors.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(trendfactors, name) is not None


def test_readme_library_example_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    dec = namespace["dec"]
    assert dec.r1_hat + dec.r2_hat + dec.v_hat == 6
    assert namespace["yhat"].shape == (6,)
    assert len(namespace["result"].cells) == 1
