"""Exact-arithmetic syzygy invariants of Segre embeddings.

Submodules:

* linalg       -- exact elimination, sparse combinations, the whole-number check
* partitions   -- partition combinatorics, Kostka and Littlewood-Richardson
* characters   -- symmetric-group classes, characters, Kronecker coefficients
* schur_ring   -- the Grothendieck ring of polynomial functors
* series       -- truncated series over partition variables and all closed forms
* koszul       -- brute-force syzygy spaces at fixed dimensions
* rationality  -- rational generating functions and reconstruction
* acceptance   -- the 13 acceptance criteria that `verify` runs
* errors       -- the shared exception types
* cli          -- command-line front end
"""

from .errors import CapacityError, ConsistencyError, UnsupportedError

__version__ = "0.1.0"

__all__ = ["CapacityError", "ConsistencyError", "UnsupportedError", "__version__"]
