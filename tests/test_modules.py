"""Properties every pluricoh module must keep."""

import importlib
import pkgutil

import pluricoh
from pluricoh.cli import main


def test_no_module_attribute_is_a_wrapper(capsys):
    """No module binds a wrapped function, an attribute with ``__wrapped__``.

    perfbench's untraced run reads such an attribute as a tracer left
    installed and reports the program as incorrect, even when every output
    is right.  So a module-level ``functools.cache``, ``lru_cache`` or
    ``wraps``-decorated function fails the benchmark.  ``main`` runs first,
    so that the CLI's lazily built parser is among the attributes checked.
    """
    assert main(["--version"]) == 0
    capsys.readouterr()
    modules = [pluricoh] + [
        importlib.import_module(f"pluricoh.{info.name}") for info in pkgutil.iter_modules(pluricoh.__path__)
    ]
    assert len(modules) > 1
    wrapped = [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, value in vars(module).items()
        if hasattr(value, "__wrapped__")
    ]
    assert wrapped == []
