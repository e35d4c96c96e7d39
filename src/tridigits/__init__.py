"""Exact arithmetic of triangular numbers and the structure of their digits.

The library computes triangular numbers at any magnitude, derives which
units digits they can end with in any base from 2 to 256 (with exact
rational frequencies), emits mechanically verified congruence-case
proofs of those facts, ties the values to the quadratic diagonal of the
Pascal triangle, and simulates cumulative-sum population growth whose
totals follow the same sequence.
"""

from .core import *
from .residues import *
from .prover import *
from .pascal import *
from .growth import *

__version__ = "0.1.0"

# Each layer lists its own public names; the package re-exports them all.
# Importing a layer above bound its module here under its own name.
__all__ = core.__all__ + residues.__all__ + prover.__all__ + pascal.__all__ + growth.__all__
