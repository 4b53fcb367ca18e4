import itertools
from collections import Counter

import pytest

from oracles import brute_basis_series, per_type_basis_count
from qpchar import qp_enum
from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.partitions import DualChargeType, conjugate, total_exponent
from qpchar.qp_enum import (
    QPMonomial,
    _run_slack,
    enumerate_basis,
    is_valid,
    iter_basis_monomials,
)

S1 = ModuleSpec.standard(1)
S2 = ModuleSpec.standard(2)
S3 = ModuleSpec.standard(3)
V = ModuleSpec.verma()


# --- QPMonomial -------------------------------------------------------------

def test_monomial_energy_and_color_type():
    b = QPMonomial(color1=((1, -1), (1, -3)), color2=((3, 3),))
    assert b.energy == 1
    assert b.color_type == (2, 3)


def test_monomial_requires_weakly_decreasing_charges():
    with pytest.raises(ValueError):
        QPMonomial(color1=((1, -1), (2, -2)))


def test_monomial_requires_positive_charges():
    with pytest.raises(ValueError):
        QPMonomial(color2=((0, -1),))


# --- is_valid ---------------------------------------------------------------

def test_single_color1_particle():
    b = QPMonomial(color1=((1, -1),))
    assert is_valid(b, S1) and is_valid(b, V)
    assert not is_valid(QPMonomial(color1=((1, 0),)), V)


def test_cross_color_interaction_allows_mode_zero():
    # the color-2 bound is -1 + min(3, 1) = 0 here
    b = QPMonomial(color1=((1, -1),), color2=((1, 0),))
    assert is_valid(b, S1)
    assert not is_valid(QPMonomial(color1=((1, -1),), color2=((1, 1),)), S1)


def test_equal_charges_need_gap_two():
    assert not is_valid(QPMonomial(color2=((1, -1), (1, -1),)), V)
    assert not is_valid(QPMonomial(color2=((1, -1), (1, -2),)), V)
    assert is_valid(QPMonomial(color2=((1, -1), (1, -3),)), V)


def test_enumerate_basis_rejects_float_truncation(monkeypatch):
    # rejected before the color-1 charge lists are generated
    def refuse(*_args):
        raise AssertionError("charge lists generated for a bad truncation")

    monkeypatch.setattr(qp_enum, "_color1_charge_lists", refuse)
    with pytest.raises(TypeError):
        enumerate_basis(S1, 2.0)


@pytest.mark.parametrize("spec", [None, "L", 1, ModuleSpec])
def test_enumerate_basis_rejects_non_spec(monkeypatch, spec):
    def refuse(*_args):
        raise AssertionError("charge lists generated for a bad spec")

    monkeypatch.setattr(qp_enum, "_color1_charge_lists", refuse)
    with pytest.raises(TypeError):
        enumerate_basis(spec, 3)


@pytest.mark.parametrize("spec", [None, "L", 1, ModuleSpec])
def test_iter_basis_monomials_rejects_non_spec(spec):
    # raised at the call, not at the first item
    with pytest.raises(TypeError):
        iter_basis_monomials(spec, 3)


@pytest.mark.parametrize("spec", [None, "L", 1, ModuleSpec])
def test_is_valid_rejects_non_spec(spec):
    with pytest.raises(TypeError):
        is_valid(QPMonomial(), spec)


@pytest.mark.parametrize("qmax,error", [(2.5, TypeError), (2.0, TypeError), (True, TypeError), (-1, ValueError)])
def test_iter_basis_monomials_rejects_bad_truncation(qmax, error):
    with pytest.raises(error):
        iter_basis_monomials(S1, qmax)


def test_charge_caps():
    b1 = QPMonomial(color1=((2, -2),))
    assert not is_valid(b1, S1)
    assert is_valid(b1, S2) and is_valid(b1, V)
    b2 = QPMonomial(color2=((4, -4),))
    assert not is_valid(b2, S1)
    assert is_valid(b2, S2) and is_valid(b2, V)


def test_positive_mode_witness_at_energy_one():
    # two charge-1 color-1 particles raise the charge-3 color-2 bound to
    # -3 + 3 + 3 = 3: total energy 1 + 3 - 3 = 1, color type (2, 3)
    b = QPMonomial(color1=((1, -1), (1, -3)), color2=((3, 3),))
    assert is_valid(b, S1) and is_valid(b, V)
    assert not is_valid(QPMonomial(color1=((1, -1), (1, -3)), color2=((3, 4),)), V)


def test_single_charge2_color1_needs_mode_below_minus_one():
    # a lone charge-2 color-1 particle has bound -2, so mode -1 is invalid
    # even though a charge-3 color-2 partner would have bound 0
    b = QPMonomial(color1=((2, -1),), color2=((3, 0),))
    assert not is_valid(b, V)
    assert is_valid(QPMonomial(color1=((2, -2),), color2=((3, 0),)), V)


# --- enumeration vs the exhaustive mode-search oracle ------------------------

@pytest.mark.parametrize(
    "spec,qmax",
    [(S1, 0), (S1, 1), (S1, 3), (S2, 2), (V, 2)],
)
def test_enumerate_matches_mode_search_oracle(spec, qmax):
    assert dict(enumerate_basis(spec, qmax).terms) == brute_basis_series(spec, qmax)


def test_level1_budget_one_monomials():
    got = {(b.energy,) + b.color_type for b in iter_basis_monomials(S1, 1)}
    assert got == {
        (0, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (1, 1, 1),
        (1, 1, 2),
        (1, 1, 3),
        (1, 2, 3),
    }


def test_spot_value_q2_y2sq():
    # x(-2) of charge 2 is the only one; two charge-1 factors fail the gap
    assert enumerate_basis(S1, 2).coeff((2, 0, 2)) == 1


# --- run slack tables --------------------------------------------------------

@pytest.mark.parametrize("color", [1, 2])
@pytest.mark.parametrize("length,charge", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3), (4, 1)])
def test_run_slack_counts_valid_runs(color, length, charge):
    # every run of `length` equal charges that is_valid accepts, found by a
    # box search over modes at most `tmax` below their bounds; color 2 sits
    # beside one color-1 particle of charge 1 at its bound, so its bounds
    # carry the cross term min(3, charge)
    tmax = 6
    cross = min(3, charge) if color == 2 else 0
    bounds = [-charge * (1 + 2 * p) + cross for p in range(length)]
    want = [0] * (tmax + 1)
    for modes in itertools.product(*(range(b - tmax, b + 1) for b in bounds)):
        run = tuple((charge, m) for m in modes)
        b = QPMonomial(color1=run) if color == 1 else QPMonomial(color1=((1, -1),), color2=run)
        excess = sum(bounds) - sum(modes)
        if excess <= tmax and is_valid(b, V):
            want[excess] += 1
    assert _run_slack(length, tmax) == want


@pytest.mark.parametrize("length", range(7))
def test_run_slack_is_partitions_into_at_most_l_parts(length):
    # the expansion of 1/(q)_l: one geometric factor 1/(1 - q^i) per i <= l
    tmax = 15
    want = [1] + [0] * tmax
    for i in range(1, length + 1):
        for j in range(i, tmax + 1):
            want[j] += want[j - i]
    assert _run_slack(length, tmax) == want


# --- the color-1-grouped count vs the per-type count --------------------------

@pytest.mark.parametrize("spec", [S1, S2, S3, ModuleSpec.standard(4)], ids=["L1", "L2", "L3", "L4"])
def test_enumerate_equals_per_type_count_standard(spec):
    for qmax in range(13):
        assert enumerate_basis(spec, qmax) == per_type_basis_count(spec, qmax), qmax


def test_enumerate_equals_per_type_count_verma():
    for qmax in range(11):
        assert enumerate_basis(V, qmax) == per_type_basis_count(V, qmax), qmax


# --- agreement with the fermionic sum ----------------------------------------

@pytest.mark.parametrize("spec", [S1, S2, V])
@pytest.mark.parametrize("qmax", [0, 2, 5])
def test_enumeration_equals_fermionic_sum(spec, qmax):
    assert enumerate_basis(spec, qmax) == character_fermionic(spec, qmax)


@pytest.mark.parametrize("spec", [S1, S2, V])
def test_enumeration_equals_fermionic_sum_deep(spec):
    assert enumerate_basis(spec, 10) == character_fermionic(spec, 10)


@pytest.mark.parametrize(
    "spec,qmax",
    [(S1, 20), (S2, 16), (S3, 13), (V, 12), (S3, 20), (V, 16)],
    ids=["L1-20", "L2-16", "L3-13", "V-12", "L3-20", "V-16"],
)
def test_enumeration_equals_fermionic_sum_deeper(spec, qmax):
    # past the benchmark's basis points (L k=1,2,3 at qmax 16, 13, 11)
    assert enumerate_basis(spec, qmax) == character_fermionic(spec, qmax)


def test_monotone_in_level():
    a = enumerate_basis(S1, 4)
    b = enumerate_basis(S2, 4)
    c = enumerate_basis(V, 4)
    for lo, hi in ((a, b), (b, c)):
        assert all(v <= hi.terms.get(k, 0) for k, v in lo.terms.items())


# --- generator / validator self-consistency ----------------------------------

def test_every_enumerated_monomial_revalidates():
    for spec in (S1, S2, V):
        seen = set()
        for b in iter_basis_monomials(spec, 4):
            assert is_valid(b, spec)
            assert b.energy <= 4
            assert b not in seen, "double counted"
            seen.add(b)


@pytest.mark.parametrize("spec", [S1, S2, S3, V], ids=["L1", "L2", "L3", "V"])
@pytest.mark.parametrize("qmax", range(9))
def test_histogram_count_equals_generator_count(spec, qmax):
    # enumerate_basis counts per color-1 charge list; the generator walks
    # each charge type's mode vectors and pairs them one monomial at a time
    got = enumerate_basis(spec, qmax).terms
    want = Counter((b.energy, *b.color_type) for b in iter_basis_monomials(spec, qmax))
    assert got == want


def test_energy_floor_is_dual_exponent():
    # per charge type the least energy equals the exponent of its dual counts,
    # and every monomial sits at or above it
    floor_seen: dict[tuple, int] = {}
    for b in iter_basis_monomials(S2, 5):
        n1 = tuple(n for n, _ in b.color1)
        n2 = tuple(n for n, _ in b.color2)
        e = total_exponent(DualChargeType(conjugate(n1), conjugate(n2)))
        assert b.energy >= e
        key = (n1, n2)
        floor_seen[key] = min(floor_seen.get(key, 10 ** 9), b.energy - e)
    assert set(floor_seen.values()) == {0}
