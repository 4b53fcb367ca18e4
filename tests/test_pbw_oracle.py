import pytest

from oracles import brute_pbw_multisets, brute_product_side, colored_partition_counts
from qpchar import pbw_oracle
from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.pbw_oracle import POSITIVE_ROOTS, pbw_enumerated, product_side


def test_root_table():
    assert set(POSITIVE_ROOTS) == {
        (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3),
    }
    assert len(POSITIVE_ROOTS) == 6


def test_product_side_constant_term():
    assert product_side(0).sorted_terms() == [((0, 0, 0), 1)]
    assert product_side(4).coeff((0, 0, 0)) == 1


def test_product_side_degree_one_slice():
    # one m=1 factor per root
    s = product_side(3)
    degree_one = {k: c for k, c in s.sorted_terms() if k[0] == 1}
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


@pytest.mark.parametrize("qmax", [16, 20, 24, 32])
def test_enumeration_equals_product_deep(qmax):
    # past acceptance criterion 2 (qmax 8): 12.5M, 165M, 1.76G and 125G
    # multisets; at qmax 32 both methods pack their layers in 36-bit slots
    assert pbw_enumerated(qmax) == product_side(qmax)


@pytest.mark.parametrize("method", [product_side, pbw_enumerated])
@pytest.mark.parametrize("qmax", [1, 4, 9])
def test_top_corner_of_key_range(method, qmax):
    # the largest degrees a term at q^q reaches are y2^(3q), from q factors
    # of energy 1 on the roots alpha1 + 3alpha2 and 2alpha1 + 3alpha2, and
    # y1^(2q); both packed methods must keep these slots apart, and no
    # key may pass y2^(3 qmax) or y1^(2 qmax)
    s = method(qmax)
    for q in range(qmax + 1):
        for u in range(q, 2 * q + 1):
            assert s.coeff((q, u, 3 * q)) == 1
    assert max(v for (_q, _u, v) in s.terms) == 3 * qmax
    assert max(u for (_q, u, _v) in s.terms) == 2 * qmax


@pytest.mark.parametrize("qmax,wanted,widths", [
    # layer 2 empty; layer 3 has an empty row u = 1 between u = 0 and
    # u = 2, and a slot in the top row and column, u = 2q, v = 3q
    (3, {(0, 0, 0): 1, (1, 0, 3): 2, (3, 0, 1): 3, (3, 2, 9): 4, (3, 6, 9): 5}, [0, 4]),
    (0, {(0, 0, 0): 6}, [0, 3]),
])
def test_from_layers_decodes_hand_packed_layers(qmax, wanted, widths):
    # the shared layer format alone, fed by a loop that shares no maths with
    # either method: it packs each coefficient at bit (u * stride + v) *
    # width of layer q, and is sized first at width 0, where the layer
    # totals are 1, 2, 0, 12 (qmax 3) and 6 (qmax 0)
    calls = []

    def packed(stride, width):
        calls.append(width)
        layers = [0] * (qmax + 1)
        for (q, u, v), c in wanted.items():
            layers[q] += c << (u * stride + v) * width
        return layers

    s = pbw_oracle._from_layers(qmax, packed)
    assert calls == widths
    assert s.trunc == qmax
    assert s.terms == wanted


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
    assert product_side(qmax) == character_fermionic(ModuleSpec(), qmax)


def test_product_equals_fermionic_verma_qmax20():
    # the Euler-Cauchy identity well past acceptance criterion 1 (qmax 12)
    assert product_side(20) == character_fermionic(ModuleSpec(), 20)


def test_product_equals_fermionic_verma_qmax24():
    assert product_side(24) == character_fermionic(ModuleSpec(), 24)


def test_product_equals_fermionic_verma_qmax32():
    # both sides key their states by ints: the PBW strides and the fermionic
    # pair field and layer list grow with qmax
    assert product_side(32) == character_fermionic(ModuleSpec(), 32)


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


@pytest.mark.parametrize("method", [product_side, pbw_enumerated])
@pytest.mark.parametrize("qmax", [0, 8, 24])
def test_specialization_counts_colored_partitions(method, qmax):
    # y1 = y2 = 1 turns the product into the 6-colored partition generating
    # function; compare with an independent one-variable recurrence.  That
    # image is also what each method's loop computes at width 0 to size its
    # slots
    assert method(qmax).counts_by_q() == colored_partition_counts(qmax)
