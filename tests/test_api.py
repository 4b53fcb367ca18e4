import pytest

import qpchar
import qpchar.fermionic
import qpchar.partitions
import qpchar.pbw_oracle
import qpchar.qp_enum
import qpchar.series

PUBLIC = {
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
}


def test_public_api_is_pinned():
    assert len(qpchar.__all__) == len(set(qpchar.__all__))
    assert set(qpchar.__all__) == PUBLIC
    for name in qpchar.__all__:
        assert hasattr(qpchar, name), name


@pytest.mark.parametrize(
    "module",
    [qpchar, qpchar.fermionic, qpchar.partitions, qpchar.pbw_oracle, qpchar.qp_enum,
     qpchar.series],
)
@pytest.mark.parametrize(
    "name",
    ["enumerate_dual_charge_types", "total_exponent", "SeriesKey", "DualChargeType",
     "PositiveRoot", "divide_geometric", "NonPositiveExponent"],
)
def test_internal_names_not_exported(module, name):
    assert not hasattr(module, name)



def test_module_spec_has_one_spelling():
    # ModuleSpec(k) names the level-k standard module, ModuleSpec() the Verma module
    assert not hasattr(qpchar.ModuleSpec, "standard")
    assert not hasattr(qpchar.ModuleSpec, "verma")
