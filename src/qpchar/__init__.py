"""Graded characters of the principal subspaces of the level-k vacuum modules
for the affine Lie algebra of type G2, computed by three independent methods:

* a fermionic sum over dual charge counts (`character_fermionic`),
* a count of the quasi-particle monomials satisfying the difference
  conditions (`enumerate_basis`),
* for the generalized Verma module, the PBW side: an Euler product over the
  six positive roots and a monomial-multiset count folded from a table of
  partitions, one per root (`product_side`, `pbw_enumerated`).

All three produce the same exact-integer `TruncatedSeries` in q, y1, y2 up
to any finite q-truncation; the test suite and the ``qpchar verify`` command
check those agreements, including the generalized Euler-Cauchy identity
equating the product with the cap-free fermionic sum.  The fermionic sum
never lists its index set.  The per-monomial walk `iter_basis_monomials`
lists the charge lists instead: each color-1 list from the dual-count
floor and, beside it, every color-2 list whose least energy fits.
"""

from .fermionic import ModuleSpec, character_fermionic
from .partitions import (
    Partition,
    conjugate,
    diag_energy_from_charges,
    diag_energy_from_dual,
    mixed_energy_from_charges,
    mixed_energy_from_dual,
    validate_partition,
)
from .pbw_oracle import POSITIVE_ROOTS, pbw_enumerated, product_side
from .qp_enum import QPMonomial, enumerate_basis, is_valid, iter_basis_monomials
from .series import (
    OutOfTruncation,
    SeriesError,
    TruncatedSeries,
    TruncationMismatch,
)

__version__ = "0.1.0"

__all__ = [
    "ModuleSpec",
    "character_fermionic",
    "Partition",
    "conjugate",
    "diag_energy_from_charges",
    "diag_energy_from_dual",
    "mixed_energy_from_charges",
    "mixed_energy_from_dual",
    "validate_partition",
    "POSITIVE_ROOTS",
    "pbw_enumerated",
    "product_side",
    "QPMonomial",
    "enumerate_basis",
    "is_valid",
    "iter_basis_monomials",
    "SeriesError",
    "TruncationMismatch",
    "OutOfTruncation",
    "TruncatedSeries",
    "__version__",
]
