import pytest

from oracles import brute_dual_charge_types, pair_sum_character
from qpchar.fermionic import ModuleSpec, character_fermionic, enumerate_dual_charge_types
from qpchar.partitions import DualChargeType, total_exponent, validate_partition
from qpchar.series import TruncatedSeries

S1 = ModuleSpec.standard(1)
S2 = ModuleSpec.standard(2)
S3 = ModuleSpec.standard(3)
V = ModuleSpec.verma()


# --- ModuleSpec -------------------------------------------------------------

def test_spec_caps():
    assert S2.color1_cap == 2 and S2.color2_cap == 6
    assert V.color1_cap is None and V.color2_cap is None


def test_spec_rejects_level_below_one():
    with pytest.raises(ValueError):
        ModuleSpec.standard(0)


@pytest.mark.parametrize("level", [2.5, 2.0, "2", True, False])
def test_spec_rejects_non_int_level(level):
    with pytest.raises(TypeError):
        ModuleSpec(level=level)


@pytest.mark.parametrize("entry", [character_fermionic, enumerate_dual_charge_types])
@pytest.mark.parametrize("spec", [None, "L", 1, ModuleSpec])
def test_entry_points_reject_non_spec(entry, spec):
    with pytest.raises(TypeError):
        entry(spec, 3)


def test_spec_describe():
    assert "level-3" in S3.describe()
    assert "Verma" in V.describe()


# --- enumeration of dual charge types ---------------------------------------

def test_enumerate_budget_zero_is_empty_pair_only():
    assert enumerate_dual_charge_types(S1, 0) == [DualChargeType((), ())]
    assert enumerate_dual_charge_types(V, 0) == [DualChargeType((), ())]


# All pairs with exponent <= 1 at level 1, confirmed by the exhaustive box
# search in test_enumerate_matches_brute_force below.  Note (2,), (1,1,1):
# exponent 4 + 3 - 2*3 = 1, within the level-1 caps since its r1 has a single
# entry (two color-1 quasi-particles of charge 1, none of charge 2).
LEVEL1_Q1 = {
    DualChargeType((), ()),
    DualChargeType((), (1,)),
    DualChargeType((1,), ()),
    DualChargeType((1,), (1,)),
    DualChargeType((1,), (1, 1)),
    DualChargeType((1,), (1, 1, 1)),
    DualChargeType((2,), (1, 1, 1)),
}


def test_enumerate_level1_budget_one():
    assert set(enumerate_dual_charge_types(S1, 1)) == LEVEL1_Q1


def test_enumerate_verma_budget_one_same_as_level1():
    # no pair of exponent <= 1 exceeds the level-1 caps
    assert set(enumerate_dual_charge_types(V, 1)) == LEVEL1_Q1


@pytest.mark.parametrize(
    "spec,qmax",
    [(S1, 4), (S2, 3), (S3, 2), (V, 3), (V, 4)],
)
def test_enumerate_matches_brute_force(spec, qmax):
    got = enumerate_dual_charge_types(spec, qmax)
    assert len(got) == len(set(got)), "duplicates emitted"
    assert set(got) == brute_dual_charge_types(spec.level, qmax)


@pytest.mark.parametrize("qmax,error", [(2.5, TypeError), (2.0, TypeError), (True, TypeError), (-1, ValueError)])
def test_enumerate_rejects_bad_truncation(qmax, error):
    with pytest.raises(error):
        enumerate_dual_charge_types(S1, qmax)


def test_enumerate_postconditions():
    for d in enumerate_dual_charge_types(S2, 5):
        validate_partition(d.r1)
        validate_partition(d.r2)
        assert len(d.r1) <= 2 and len(d.r2) <= 6
        assert total_exponent(d) <= 5


# --- the character sum ------------------------------------------------------

# q^1 slice of both characters: the five single-quasi-particle color types
# (1,0), (0,1), (1,1), (1,2), (1,3) plus (2,3) from the pair of charge-1
# color-1 particles interacting with one charge-3 color-2 particle.
DEGREE_ONE_TERMS = {
    (0, 0, 0): 1,
    (1, 1, 0): 1,
    (1, 0, 1): 1,
    (1, 1, 1): 1,
    (1, 1, 2): 1,
    (1, 1, 3): 1,
    (1, 2, 3): 1,
}


def test_character_level1_budget_one():
    assert dict(character_fermionic(S1, 1).terms) == DEGREE_ONE_TERMS


def test_character_verma_budget_one():
    assert dict(character_fermionic(V, 1).terms) == DEGREE_ONE_TERMS


def test_character_spot_value_q2_y2sq():
    # only the pair r2=(1,1) lands on q^2 y2^2
    assert character_fermionic(S1, 2).coeff((2, 0, 2)) == 1


def _qpoch_inverse(trunc, r):
    # 1 / ((1-q)...(1-q^r)) as a product of explicit geometric series
    out = TruncatedSeries(trunc, {(0, 0, 0): 1})
    for i in range(1, r + 1):
        out = out * TruncatedSeries(trunc, {(j * i, 0, 0): 1 for j in range(trunc // i + 1)})
    return out


def _reference_character(spec, qmax):
    # same sum evaluated with the generic series machinery: scale each
    # Pochhammer product by the exponent monomial and accumulate
    def diffs(r):
        if not r:
            return ()
        return tuple(r[i] - r[i + 1] for i in range(len(r) - 1)) + (r[-1],)

    total = TruncatedSeries(qmax)
    for d in enumerate_dual_charge_types(spec, qmax):
        term = TruncatedSeries(qmax, {(total_exponent(d), sum(d.r1), sum(d.r2)): 1})
        for dd in diffs(d.r1) + diffs(d.r2):
            term = term * _qpoch_inverse(qmax, dd)
        total = total + term
    return total


@pytest.mark.parametrize("spec", [S1, S2, V])
def test_character_agrees_with_series_machinery(spec):
    assert character_fermionic(spec, 5) == _reference_character(spec, 5)


@pytest.mark.parametrize("spec", [V, S1, S2, S3, ModuleSpec.standard(4)])
def test_block_recursion_matches_pair_sum(spec):
    for qmax in range(11):
        assert character_fermionic(spec, qmax) == pair_sum_character(spec, qmax), qmax


@pytest.mark.parametrize("qmax,error", [(-1, ValueError), (2.0, TypeError), (True, TypeError)])
def test_character_rejects_bad_truncation(qmax, error):
    with pytest.raises(error):
        character_fermionic(S1, qmax)


def _leq(a, b):
    return all(c <= b.terms.get(key, 0) for key, c in a.terms.items())


def test_monotone_in_level():
    chain = [character_fermionic(s, 4) for s in (S1, S2, S3, V)]
    for lo, hi in zip(chain, chain[1:]):
        assert _leq(lo, hi)


@pytest.mark.parametrize("qmax", [0, 1, 2, 3, 4])
def test_stabilization_iff_level_reaches_truncation(qmax):
    verma = character_fermionic(V, qmax)
    level = max(qmax, 1)
    assert character_fermionic(ModuleSpec.standard(level), qmax) == verma
    if qmax >= 2:  # below that the level cannot drop under 1
        assert character_fermionic(ModuleSpec.standard(qmax - 1), qmax) != verma


def test_constant_term_is_one():
    for spec in (S1, S3, V):
        for qmax in (0, 2, 5):
            assert character_fermionic(spec, qmax).coeff((0, 0, 0)) == 1


def test_support_bounds():
    # the heaviest degree-1 contribution is q y1^2 y2^3, and products only
    # average the ratios down
    for spec in (S1, V):
        for (q, y1, y2), _c in character_fermionic(spec, 6).sorted_terms():
            assert y1 <= 2 * q and y2 <= 3 * q
