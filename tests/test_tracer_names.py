"""The benchmark's tracer wraps geomstates functions by name: a rename would
only show as a crash of a traced run, inside Tracer.install."""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # tracer imports only the standard library
    spec = importlib.util.spec_from_file_location("tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _load_tracer()


@pytest.mark.parametrize("qual", TRACER.FUNCTIONS)
def test_traced_name_is_a_geomstates_function(qual):
    module, name = qual.split(".")
    assert callable(getattr(import_module(f"geomstates.{module}"), name, None))


def test_traced_solver_and_counted_class_exist():
    assert TRACER.SOLVER in TRACER.FUNCTIONS
    assert isinstance(import_module("geomstates.realified").RealifiedState,
                      type)
