"""The benchmark's tracer (``perfbench/tracing.py``) wraps ipstar functions
by name and calls some of them with positional arguments.  These checks keep
a rename or re-signature in ``src/`` from silently breaking ``--trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # standard library only, imports no ipstar
    return mod


def _resolve(mod: str, attr: str):
    obj = importlib.import_module(f"ipstar.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_wrapped_name_resolves(tracing):
    for mod, attr, _name in tracing.SPANS + tracing.COUNTS:
        assert callable(_resolve(mod, attr)), f"ipstar.{mod}.{attr}"


def test_every_traced_command_has_a_runner(tracing):
    runners = importlib.import_module("ipstar.cli")._RUNNERS
    assert set(tracing.COMMANDS) <= set(runners)


def test_positional_arguments_the_tracer_rewrites():
    # _count_probes replaces args[1]; _record_words replaces args[2]
    first_hit = _resolve("search", "first_hit")
    mono = _resolve("halesjewett", "mono_config_search")
    assert list(inspect.signature(first_hit).parameters)[:2] == ["count", "probe"]
    assert list(inspect.signature(mono).parameters)[:3] == ["d", "r", "coloring"]
