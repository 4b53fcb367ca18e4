"""Truncations nest: each method's series at order N, cut to q^m, is its
series at order m.  So one `verify --check identity --qmax N` (or any other
check at N) also checks every order below N."""

from functools import partial

import pytest

from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.pbw_oracle import pbw_enumerated, product_side
from qpchar.qp_enum import enumerate_basis

N = 12

METHODS = {
    **{f"fermionic-L{k}": partial(character_fermionic, ModuleSpec(k)) for k in (1, 2, 3)},
    "fermionic-N": partial(character_fermionic, ModuleSpec()),
    **{f"enumerate-L{k}": partial(enumerate_basis, ModuleSpec(k)) for k in (1, 2)},
    "enumerate-N": partial(enumerate_basis, ModuleSpec()),
    "product": product_side,
    "pbw-enumerate": pbw_enumerated,
}


@pytest.mark.parametrize("name", METHODS)
def test_truncations_nest(name):
    series = METHODS[name]
    full = series(N).terms
    for m in range(N):
        cut = {key: c for key, c in full.items() if key[0] <= m}
        assert series(m).terms == cut, f"{name}: order {N} cut to q^{m} differs from order {m}"
