"""Decoherent-histories toolkit for finite-dimensional quantum models.

The package evaluates decoherence functionals over sets of projection
histories, classifies sets as forwards- or backwards-decoherent, builds
generalized records for strongly decoherent pure-state sets, evaluates
two-boundary and pre/post-selected probabilities, and demonstrates
recoherence on mirror-extended models.

Each public name is declared once, in the ``__all__`` of its module, and is
imported from there on first access (PEP 562), so importing the package, or
one of its modules, loads only what it uses.
"""

import importlib

# The modules whose ``__all__`` the package exports, each after its imports.
_MODULES = ("exceptions", "linalg", "model", "modelfile", "histories", "records", "scenarios")
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    modules = (importlib.import_module(f"{__name__}.{m}") for m in _MODULES)  # one by one
    if name == "__all__":
        value = sorted(n for module in modules for n in module.__all__)
    else:
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
