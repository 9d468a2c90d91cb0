"""The benchmark tracer's lookup sites still exist in the program.

``perfbench/tracing.py`` wraps l0geom functions by name at the module or
class attribute their callers look them up through, and its work counters
read named arguments of those functions.  A renamed function or parameter
would leave a per-layer metric silently at zero, so this test loads the
tracer (without installing it) and checks both against the program.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


SITES = _load_tracing().SITES


def _resolve(site, attr):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return getattr(owner, attr)


def _argument_names(counter):
    """Names a work counter reads from the bound arguments, a["name"]."""
    return set(re.findall(r'\ba\["(\w+)"\]', inspect.getsource(counter)))


@pytest.mark.parametrize("site,attr", [(s[0], s[1]) for s in SITES], ids=lambda v: v)
def test_every_site_resolves(site, attr):
    assert callable(_resolve(site, attr))


COUNTED = [(site, attr, counter) for site, attr, _, _, counter in SITES if counter is not None]


@pytest.mark.parametrize(
    "site,attr,counter", COUNTED, ids=[f"{s}.{a}" for s, a, _ in COUNTED]
)
def test_every_counted_argument_is_a_parameter(site, attr, counter):
    parameters = inspect.signature(_resolve(site, attr)).parameters
    for name in _argument_names(counter):
        assert name in parameters, f"{site}.{attr} has no parameter {name!r}"


def test_counters_read_the_expected_arguments():
    # Guards the source scan above: a counter that reads its arguments some
    # other way would otherwise pass with nothing checked.
    read = set().union(*(_argument_names(counter) for *_, counter in COUNTED))
    assert {"n_samples", "n_chunks", "rows", "tau", "dictionary", "K"} <= read
