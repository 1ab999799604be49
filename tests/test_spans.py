"""Every layer of the benchmark's span tracer has a live target in spinkick.

spinbench/spans.py times spinkick's layers by wrapping functions at module
attributes.  A layer whose every target is gone is reported as absent, and
its metrics read null in a traced run's result line, so renaming, moving or
deleting the last live target of a layer breaks the traced benchmark.  The
tracer is loaded by path and nothing is wrapped.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS_PATH = Path(__file__).resolve().parents[1] / "spinbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spinbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_spans().LAYERS


def _resolves(target) -> bool:
    """Tracer.install's rule: the attribute sits in its owner's own __dict__."""
    owner = importlib.import_module(target[0])
    for part in target[1:-1]:
        owner = getattr(owner, part, None)
    return owner is not None and owner.__dict__.get(target[-1]) is not None


# each schedule family keeps its own average_amplitudes attribute, so every family's
# averaging is timed, not only the family that happens to define the method
def test_every_averaging_target_resolves():
    targets, _ = LAYERS["pulses.average"]
    assert [t for t in targets if not _resolves(t)] == []


@pytest.mark.parametrize("layer", list(LAYERS))
def test_every_layer_has_a_live_target(layer):
    targets, _ = LAYERS[layer]
    assert any(_resolves(target) for target in targets), f"no target of {layer} resolves: {targets}"
