import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


@pytest.mark.parametrize("script", ["bench_kernels", "bench_suite"])
def test_benchmark_script_imports(script):
    # both scripts guard __main__, so importing one runs nothing; an
    # import of a library name that no longer exists fails here
    spec = importlib.util.spec_from_file_location(
        script, BENCHMARKS / f"{script}.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
