"""The benchmark's traced run replaces each boundary that
``perfbench/spans.py`` names at its owner's attribute; a boundary that is
renamed or removed here would fail every traced benchmark run."""
import importlib.util
from pathlib import Path

import pytest
import requests

from cqretrofit import cli, filtration, gateway, matcher, metrics, ontology, prompts

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _spans_module().layer_targets(
    cli, ontology, prompts, gateway, filtration, matcher, metrics, requests
)


@pytest.mark.parametrize("owner,attr", [(t[0], t[1]) for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_boundary_is_an_attribute_of_its_owner(owner, attr):
    assert callable(owner.__dict__[attr])
