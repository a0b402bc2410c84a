"""The benchmark's trace hooks name attributes of helly's modules; a
refactor that drops one breaks ``bench/run.py --trace 1``. This test reads
the hook table from ``bench/tracing.py`` and checks every name resolves."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    hooks = [(module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED]
    for module, attr in hooks:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for name in (
        ("helly.linear", "solve_affine"),
        ("helly.disks", "_clip"),
        ("helly.disks", "pair_relation"),
    ):
        assert name in hooks
