"""The benchmark's per-layer tracer (bench/spans.py) patches csvortex names
from outside the package; every name it patches must still exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    # by file path, so bench/ never lands on sys.path
    spec = importlib.util.spec_from_file_location("csvortex_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves_and_is_restored():
    tracer = _load_spans().Tracer()
    # installed() raises KeyError on a name the package no longer defines
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in tracer._patches()}
    with tracer.installed():
        pass
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr
