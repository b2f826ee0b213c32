"""The benchmark's span tracer (``perfbench/spans.py``) wraps chunknas
functions by name. Installing it here makes a renamed or removed target
fail the test suite, not only a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

# Every module the tracer patches, loaded before the bindings are compared.
from chunknas import accel, cli, config, cosearch, nn, reproduce, search_space, zeroshot  # noqa: F401

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _bindings() -> dict:
    """Every attribute of the loaded chunknas modules and of their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("chunknas"):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type):
                out.update(((name, key, k), v) for k, v in vars(value).items())
    return out


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer.names) == len(set(tracer.names)) == 29
        assert cosearch.fine_search is not before["chunknas.cosearch", "fine_search"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
