"""The benchmark's tracer, ``bench/spans.py``, patches the package by name.

Installing it here fails as soon as a function or method it patches is gone
or renamed, so such a change fails the package's own tests and not only the
benchmark's.  The file under ``bench/`` is read, never changed.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a loaded renyiquant module, and in the classes it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "renyiquant" or name.startswith("renyiquant.")):
            continue
        for attr, value in vars(mod).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, attr, key), member) for key, member in vars(value).items())
    return out


def test_the_tracer_patches_names_the_package_has_and_restores_every_one():
    tracer = _load_spans().Tracer()
    before = _bindings()
    tracer.install()
    try:
        patched = len(tracer._undo)
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key, value in during.items() if before[key] is not value]
    # one binding changed for each one the tracer records, and each restored
    assert patched > 0 and len(changed) == patched
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
