"""The names the benchmark in perfbench/ hooks into must stay in the
package: its tracer wraps them in every pass, the untraced ones too, and
a missing name crashes the pass instead of failing a test."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from dualnewton import experiments, optimizers

REPO = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a loaded package module or in one of its
    classes, mapped to the object it names."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "dualnewton" and not name.startswith("dualnewton."):
            continue
        for attr, obj in vars(module).items():
            out[name, attr] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for member, value in vars(obj).items():
                    out[name, attr, member] = value
    return out


@pytest.mark.parametrize("full", [False, True], ids=["untraced", "traced"])
def test_the_tracer_wraps_the_experiment_hooks_and_uninstall_restores_them(full):
    before = _bindings()
    reference_point = vars(experiments._Problem)["reference_point"]
    write_artifacts = experiments._write_artifacts
    tracer = _load_tracer().Tracer().install(full=full)
    try:
        wrapped = vars(experiments._Problem)["reference_point"]
        assert wrapped.__wrapped__ is reference_point
        assert experiments._write_artifacts.__wrapped__ is write_artifacts
        assert {"experiments.reference_point", "experiments.write_artifacts"} <= set(
            tracer.stats
        )
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []


def test_the_trace_row_hook_of_the_reference_clock_exists():
    # perfbench/speed.py probes the clock from OptimizerTrace.record
    assert inspect.isfunction(vars(optimizers.OptimizerTrace)["record"])
