"""Every entry point the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` binds each layer's public functions and
methods by name (its ``LAYERS`` table).  A rename or deletion in the
package would otherwise only surface when someone runs ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, mod, attr)
            for layer, entries in module.LAYERS.items()
            for mod, attr, _name in entries]


@pytest.mark.parametrize("layer,module_name,attr", _layers())
def test_layer_entry_point_resolves(layer, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        # tracing.py replaces the method in the class __dict__, so an
        # inherited attribute would not do.
        assert meth in owner.__dict__, f"{layer}: {module_name}.{attr}"
    else:
        assert callable(getattr(module, attr, None)), \
            f"{layer}: {module_name}.{attr}"
