"""The package surface: the README's library example, the exported names, the
scipy subpackages an import loads, and no dead definitions or imports in the
package source."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import trendfactors

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(trendfactors.__file__).resolve().parent
# public names that the package itself need not call: the exports
UNCALLED = set(trendfactors.__all__)

PUBLIC = [
    # entry points
    "decompose", "PipelineConfig", "generate", "DgpSpec", "forecast_y",
    "evaluate_forecasts", "run_montecarlo",
    # the types they take or return
    "Decomposition", "ForecastReport", "MonteCarloResult",
    "GroundTruth", "TimeSeriesPanel",
    # the error classes behind the CLI exit codes
    "TrendFactorsError", "ArgumentError", "CsvParseError", "NumericalError",
    "IllConditionedError",
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


def test_import_loads_no_heavy_scipy_subpackage():
    # scipy.signal alone pulls in stats, optimize, sparse and more: about 0.7 s
    # and 40 MB of every process that imports the package
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import trendfactors, trendfactors.cli; "
        "print(trendfactors.__file__); "
        "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == PACKAGE
    loaded = set(out[1].split())
    heavy = {"scipy.signal", "scipy.stats", "scipy.optimize", "scipy.sparse"}
    assert loaded & heavy == set()


def parsed_modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def referenced_names(node):
    """Names read in ``node``, as bare names or as attributes of a module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_definition_has_a_library_reference():
    modules = parsed_modules()
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in UNCALLED:
                continue
            # every module, with this definition's own body left out
            elsewhere = set()
            for other in modules.values():
                for top in other.body:
                    if top is not node:
                        elsewhere |= referenced_names(top)
            if node.name not in elsewhere:
                unreferenced.append(f"{name}:{node.name}")
    assert unreferenced == []


def test_every_import_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        if name == "__init__.py":
            continue
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{name}:{alias}" for alias in imported if alias not in used]
    assert unused == []



def test_stage_sequence_runs_only_in_pipeline():
    # decompose and the Monte Carlo share pipeline's one stage sequence; no
    # other module may run its own copy of it
    home = {"first_stage": "unitroot.py", "scan_r1": "unitroot.py",
            "second_stage": "pipeline.py", "recover_factors": "pipeline.py"}
    outside = sorted(f"{name}:{core}" for name, tree in parsed_modules().items()
                     for core, defined_in in home.items()
                     if core in referenced_names(tree) and name not in ("pipeline.py", defined_in))
    assert outside == []
