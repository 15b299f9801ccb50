"""The traced benchmark mode (``benchmark/run.py --trace 1``) rebinds each
name in ``benchmark/spans.py``'s ``TARGETS`` where its caller looks it up: a
module global, or a method in its class's ``__dict__``. A refactor that moves
or renames one of them would break that mode, so each must stay bound there.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_trace_target_is_bound_where_it_is_looked_up():
    targets = runpy.run_path(str(SPANS))["TARGETS"]  # compiled from source, nothing written
    assert targets
    for module_name, class_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = owner.__dict__[class_name]
        assert attr in owner.__dict__, f"{module_name}.{class_name or ''}.{attr} is not bound"
        assert callable(owner.__dict__[attr])
