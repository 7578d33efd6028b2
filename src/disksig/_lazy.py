"""Deferred imports: a module object at once, its code run on first use."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name`, registered now and executed on first attribute access.

    The module is entered in `sys.modules` (and bound on its parent
    package) at once, so later imports of it and lookups by name find the
    same object; its body runs only when an attribute is first read.
    numpy for the Monte Carlo engine and the package's own layers for the
    command line are imported this way, so each subcommand executes only
    the modules it uses.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
