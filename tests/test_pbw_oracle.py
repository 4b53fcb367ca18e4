import pytest

from oracles import brute_pbw_multisets, brute_product_side, colored_partition_counts
from qpchar import pbw_oracle
from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.pbw_oracle import POSITIVE_ROOTS, pbw_enumerated, product_side


def test_root_table():
    assert {(r.y1, r.y2) for r in POSITIVE_ROOTS} == {
        (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3),
    }
    assert len({r.name for r in POSITIVE_ROOTS}) == 6


def test_product_side_constant_term():
    assert product_side(0).sorted_terms() == [((0, 0, 0), 1)]
    assert product_side(4).coeff((0, 0, 0)) == 1


def test_product_side_degree_one_slice():
    # one m=1 factor per root
    s = product_side(3)
    degree_one = {tuple(k): c for k, c in s.sorted_terms() if k.q_deg == 1}
    assert degree_one == {
        (1, 1, 0): 1,
        (1, 0, 1): 1,
        (1, 1, 1): 1,
        (1, 1, 2): 1,
        (1, 1, 3): 1,
        (1, 2, 3): 1,
    }


def test_product_side_spot_value():
    # q^2 y1^2: only the square of the first simple root's m=1 factor
    assert product_side(2).coeff((2, 2, 0)) == 1


def test_pbw_enumerated_empty_multiset():
    assert pbw_enumerated(0).sorted_terms() == [((0, 0, 0), 1)]


def test_pbw_enumerated_spot_values():
    s = pbw_enumerated(2)
    # the single multiset {x_{alpha1+3alpha2}(-1)}
    assert s.coeff((1, 1, 3)) == 1
    # {x_{alpha1+alpha2}(-2)} and {x_{alpha1}(-1), x_{alpha2}(-1)}
    assert s.coeff((2, 1, 1)) == 2


@pytest.mark.parametrize("qmax", range(9))
def test_product_side_matches_multiplied_out(qmax):
    assert dict(product_side(qmax).terms) == brute_product_side(qmax)


@pytest.mark.parametrize("qmax", [0, 1, 3, 5])
def test_enumeration_equals_product(qmax):
    assert pbw_enumerated(qmax) == product_side(qmax)


@pytest.mark.parametrize("qmax", [16, 20])
def test_enumeration_equals_product_deep(qmax):
    # past acceptance criterion 2 (qmax 8): 12.5M and 165M multisets
    assert pbw_enumerated(qmax) == product_side(qmax)


@pytest.mark.parametrize("qmax", range(11))
def test_pbw_enumerated_matches_leaf_recursion(qmax):
    assert dict(pbw_enumerated(qmax).terms) == brute_pbw_multisets(qmax)


def test_partition_table_counts_partitions():
    # summed over the number of parts, the table is the partition function
    table = pbw_oracle._partition_table(12)
    by_energy = [0] * 13
    for (e, _n), count in table.items():
        by_energy[e] += count
    assert by_energy == colored_partition_counts(12, colors=1)
    assert len(table) == 79


@pytest.mark.parametrize("qmax", [0, 2, 5])
def test_product_equals_fermionic_verma(qmax):
    assert product_side(qmax) == character_fermionic(ModuleSpec.verma(), qmax)


def test_product_equals_fermionic_verma_qmax20():
    # the Euler-Cauchy identity well past acceptance criterion 1 (qmax 12)
    assert product_side(20) == character_fermionic(ModuleSpec.verma(), 20)


def test_product_equals_fermionic_verma_qmax24():
    assert product_side(24) == character_fermionic(ModuleSpec.verma(), 24)


def test_product_side_rejects_bool_truncation():
    with pytest.raises(TypeError):
        product_side(True)


class _RefuseRoots:
    # stands in for the root table; any look at it means the count started
    def _refuse(self, *_args):
        raise AssertionError("pbw_enumerated recursed for a bad truncation")

    __len__ = __getitem__ = __iter__ = _refuse


@pytest.mark.parametrize("qmax,error", [(2.0, TypeError), (2.5, TypeError), (True, TypeError), (-1, ValueError)])
def test_pbw_enumerated_rejects_bad_truncation(monkeypatch, qmax, error):
    monkeypatch.setattr(pbw_oracle, "POSITIVE_ROOTS", _RefuseRoots())
    with pytest.raises(error):
        pbw_enumerated(qmax)


def test_specialization_counts_colored_partitions():
    # y1 = y2 = 1 turns the product into the 6-colored partition generating
    # function; compare with an independent one-variable recurrence
    assert product_side(8).counts_by_q() == colored_partition_counts(8)
