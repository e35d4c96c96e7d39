"""Exact arithmetic of triangular numbers and the structure of their digits.

The library computes triangular numbers at any magnitude, derives which
units digits they can end with in any base from 2 to 256 (with exact
rational frequencies), emits mechanically verified congruence-case
proofs of those facts, ties the values to the quadratic diagonal of the
Pascal triangle, and simulates cumulative-sum population growth whose
totals follow the same sequence.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_LAYERS = ("core", "residues", "prover", "pascal", "growth")


class _Package(ModuleType):
    """The package's module type: on the first read of a public name, each layer's
    names become properties of it that read the name from the layer on every access."""


sys.modules[__name__].__class__ = _Package


# PEP 562: called only for names that neither this module nor _Package holds. A layer
# loads on first use, so importing the package (or the CLI, which needs only core)
# pays for no other layer. No public name is ever bound in this module: what the layer
# holds under that name, a tracer's wrapper while installed, is what is read.
def __getattr__(name: str):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if "__all__" in vars(_Package):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from operator import attrgetter  # C-level, so a read makes no Python call

    names = []
    for layer in _LAYERS:
        for public in import_module(f"{__name__}.{layer}").__all__:
            setattr(_Package, public, property(attrgetter(f"{layer}.{public}")))
            names.append(public)
    _Package.__all__ = names  # the layers' lists, in layer order
    return getattr(sys.modules[__name__], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *sys.modules[__name__].__all__})
