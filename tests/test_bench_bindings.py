"""The benchmark's per-layer trace binds formzeros names by path.

``bench/layers.py`` wraps each entry point listed in ``SITES`` and
labels rank calls by the target class names in ``RANK_KINDS``.  A
library change that removes or renames one of them breaks the traced
benchmark run; these checks catch it in the unit suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import formzeros.fields

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in layers.SITES]
)
def test_site_resolves(module, path):
    obj = importlib.import_module(f"formzeros.{module}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"formzeros.{module}.{path} is missing"
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize("name", sorted(layers.RANK_KINDS))
def test_rank_kind_is_field_class(name):
    cls = getattr(formzeros.fields, name, None)
    assert isinstance(cls, type), f"formzeros.fields.{name} is missing"


def _counted_layers():
    """The layer names the tracer counts calls under: each site's
    prefix, with rank split by target kind."""
    names = {prefix for prefix, _, _, _ in layers.SITES}
    return names | {f"matrix.rank.{kind}" for kind in layers.RANK_KINDS.values()}


@pytest.mark.parametrize(
    "workload, name",
    [(w, name) for w, names in sorted(layers.PREDICTED.items()) for name in names],
)
def test_predicted_layer_is_counted(workload, name):
    assert name in _counted_layers(), f"{workload} predicts {name}, which no site counts"
