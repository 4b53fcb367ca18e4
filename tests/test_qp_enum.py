import itertools
from collections import Counter
from functools import cache

import pytest

from oracles import (
    _list_color2_counts,
    _partitions_in_box,
    brute_basis_series,
    list_basis_count,
    per_type_basis_count,
    total_exponent,
    weak_floor_charge_lists,
)
from qpchar import qp_enum
from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.partitions import (
    conjugate,
    diag_energy_from_charges,
    mixed_energy_from_charges,
)
from qpchar.qp_enum import (
    QPMonomial,
    _color1_dual_counts,
    _color2_charge_lists,
    _color2_counts,
    _color2_floor,
    _run_slack,
    enumerate_basis,
    is_valid,
    iter_basis_monomials,
)
from qpchar.series import _slot_width

S1 = ModuleSpec(1)
S2 = ModuleSpec(2)
S3 = ModuleSpec(3)
V = ModuleSpec()


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


@pytest.mark.parametrize(
    "pairs", [((True, -1),), ((1, False),), ((2, -3), (True, -1)), ((1, -1.0),)]
)
def test_monomial_rejects_bool_and_float_entries(pairs):
    with pytest.raises(ValueError):
        QPMonomial(color1=pairs)
    with pytest.raises(ValueError):
        QPMonomial(color2=pairs)


# a one-shot iterator would be used up by the checks, leaving a monomial of
# energy 0; a list, or a list pair, leaves it unhashable.  Each case makes
# its own colour, as a shared iterator runs dry
@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda: [(1, -1)], id="list"), pytest.param(lambda: iter([(1, -1)]), id="fresh_iterator"),
     pytest.param(lambda: ([1, -1],), id="list_pair")],
)
def test_monomial_rejects_colors_that_are_not_tuples_of_tuples(make):
    with pytest.raises(ValueError):
        QPMonomial(color1=make())
    with pytest.raises(ValueError):
        QPMonomial(color2=make())


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
    # rejected before the color-1 dual counts are generated
    def refuse(*_args):
        raise AssertionError("dual counts generated for a bad truncation")

    monkeypatch.setattr(qp_enum, "_color1_dual_counts", refuse)
    with pytest.raises(TypeError):
        enumerate_basis(S1, 2.0)


@pytest.mark.parametrize("spec", [None, "L", 1, ModuleSpec])
def test_enumerate_basis_rejects_non_spec(monkeypatch, spec):
    def refuse(*_args):
        raise AssertionError("dual counts generated for a bad spec")

    monkeypatch.setattr(qp_enum, "_color1_dual_counts", refuse)
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


@pytest.mark.parametrize("b", ["x", None, ((1, -1),)])
def test_is_valid_rejects_non_monomial(b):
    with pytest.raises(TypeError):
        is_valid(b, V)


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


# --- the color-2 charge-list walk ---------------------------------------------

@pytest.mark.parametrize("n1", [(), (1,), (2,), (1, 1), (2, 1, 1), (3, 2), (1, 1, 1, 1), (2, 2, 1, 1, 1)])
@pytest.mark.parametrize("budget,cap", [(-4, None), (0, None), (3, 3), (6, None), (6, 6)])
def test_color2_charge_lists_yield_least_energy(n1, budget, cap):
    # each yielded e2_min is the least color-2 energy of its charge type,
    # within the budget, and each list appears once, under the cap; the
    # sequence is the one the weak-floor walk it replaced yields
    seen = set()
    got = list(_color2_charge_lists(n1, budget, cap))
    for n2, e2_min in got:
        assert e2_min == diag_energy_from_charges(n2) - mixed_energy_from_charges(n1, n2)
        assert e2_min <= budget
        assert cap is None or all(c <= cap for c in n2)
        assert n2 not in seen
        seen.add(n2)
    assert got == list(weak_floor_charge_lists(n1, budget, cap))
    # the range of `_color2_floor` is no wider than needed: past c* its
    # largest charge leads a list that fits, the cheapest tail behind it
    top = len(_color2_floor(n1, budget, cap)[0]) - 1
    if top > 3 * max(n1, default=0):
        assert any(n2[:1] == (top,) for n2, _e2_min in got), (n1, budget, cap)


def test_color2_floor_is_least_cost_of_later_particles():
    # least[c][p] is the exact least of sum f_{p+i}(c_i) over weakly
    # decreasing c_0 >= c_1 >= ... with c_0 <= c, the empty list costing 0;
    # f and X are restated here.  The box search takes lists up to position
    # len(n1): past (len(n1) - 1) / 2 every f is >= 0, as X(c) <= c len(n1).
    # It is memoized by (position, leading charge), so it reaches every row
    # of the range, which the budget can put far past c*
    for n1 in _partitions_in_box(5, 3):
        cstar = 3 * max(n1, default=0)

        def f(q: int, c: int) -> int:
            return c * (1 + 2 * q) - sum(min(3 * a, c) for a in n1)

        @cache
        def led(q: int, c: int) -> int:
            # the least cost of the lists at positions q.. led by charge c
            later = [led(q + 1, d) for d in range(1, c + 1)] if q < len(n1) else []
            return f(q, c) + min(later + [0])

        def best(p: int, c: int) -> int:
            return min([led(p, d) for d in range(1, c + 1)] + [0])

        # the budget puts top past c* + 2 for every n1; the caps cut at
        # c* + 2 and below c*
        for budget, cap in [(0, None), (10, None), (10, cstar + 2), (3, max(cstar // 2, 1))]:
            xs, least = _color2_floor(n1, budget, cap)
            top = max(cstar, budget + 3 * sum(n1) - best(1, cstar))
            assert len(xs) == len(least) == (top if cap is None else min(top, cap)) + 1, (n1, budget, cap)
            assert xs == [sum(min(3 * a, c) for a in n1) for c in range(len(xs))], n1
            for c, row in enumerate(least):
                for p in range(len(n1) // 2 + 2):
                    assert row[p] == best(p, c), (n1, budget, cap, p, c)


def test_color1_mode_vectors_built_once_per_charge_list(monkeypatch):
    # beside one n1 every color-2 list shares one color-1 vector list, built
    # at the least e2_min's budget: one color-1 build per n1, one color-2
    # build per charge type
    real = qp_enum._mode_vectors
    calls = []

    def counted(charges, bounds, max_energy):
        calls.append(charges)
        return real(charges, bounds, max_energy)

    monkeypatch.setattr(qp_enum, "_mode_vectors", counted)
    types = list(qp_enum._charge_types(V, 6))
    lists1 = {n1 for n1, _n2, _vecs1, _vecs2 in types}
    assert len(lists1) < len(types)
    assert len(calls) == len(types) + len(lists1)


@pytest.mark.parametrize("spec", [S1, S2, S3, V])
def test_dual_count_floor_is_least_energy_beside_n1(spec):
    # the floor sum ceil(a^2/4) that admits r1 is e1 + least[-1][0]: the
    # least energy of a monomial with color-1 charges n1, so the color-2
    # count beside every admitted n1 keeps a list.  The count is run at the
    # least qmax that admits r1, where its budget qmax - e1 is tightest
    seen = set()
    for qmax in range(17):
        width = _slot_width(qmax)

        def slack(length: int) -> int:
            return sum(n << width * t for t, n in enumerate(_run_slack(length, qmax)))

        for r1 in _color1_dual_counts(spec, qmax):
            n1 = conjugate(r1)
            e1 = diag_energy_from_charges(n1)
            _xs, least = _color2_floor(n1, qmax - e1, spec.color2_cap)
            floor = sum((a * a + 3) // 4 for a in r1)
            assert floor == e1 + least[-1][0], r1
            if r1 in seen:
                continue
            seen.add(r1)
            assert floor == qmax, r1
            _lo, counts = _color2_counts(n1, qmax - e1, spec.color2_cap, slack, width)
            assert counts, r1


# --- run slack tables --------------------------------------------------------

@pytest.mark.parametrize("color", [1, 2])
@pytest.mark.parametrize("length,charge", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3), (4, 1), (5, 1), (5, 2)])
def test_run_slack_counts_valid_runs(color, length, charge):
    # every run of `length` equal charges that is_valid accepts, found by a
    # box search over modes at most `tmax` below their bounds; color 2 sits
    # beside one color-1 particle of charge 1 at its bound, so its bounds
    # carry the cross term min(3, charge).  This is the guard of T_l that
    # shares nothing with `_run_slack`; at length 5 the table, 10 at t = 6,
    # falls below p(6) = 11, so it sees the cut to at most l parts
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


@pytest.mark.parametrize(
    "length,tmax", [*((length, 15) for length in range(7)), (12, 80)], ids=[*map(str, range(7)), "12-80"]
)
def test_run_slack_is_partitions_into_at_most_l_parts(length, tmax):
    # the expansion of 1/(q)_l: one geometric factor 1/(1 - q^i) per i <= l.
    # `_run_slack` runs this same recurrence, so this pins the table to
    # 1/(q)_l only; `test_run_slack_counts_valid_runs` ties it to `is_valid`
    want = [1] + [0] * tmax
    for i in range(1, length + 1):
        for j in range(i, tmax + 1):
            want[j] += want[j - i]
    assert _run_slack(length, tmax) == want


# --- the color-1-grouped count vs the per-type count --------------------------

@pytest.mark.parametrize("spec", [S1, S2, S3, ModuleSpec(4)], ids=["L1", "L2", "L3", "L4"])
def test_enumerate_equals_per_type_count_standard(spec):
    for qmax in range(13):
        assert enumerate_basis(spec, qmax) == per_type_basis_count(spec, qmax), qmax


def test_enumerate_equals_per_type_count_verma():
    for qmax in range(11):
        assert enumerate_basis(V, qmax) == per_type_basis_count(V, qmax), qmax


# --- the packed count vs the list DP it replaced -----------------------------

@pytest.mark.parametrize("spec", [S1, S2, S3, ModuleSpec(4)], ids=["L1", "L2", "L3", "L4"])
def test_packed_count_equals_list_count_standard(spec):
    for qmax in range(13):
        assert enumerate_basis(spec, qmax) == list_basis_count(spec, qmax), qmax


def test_packed_count_equals_list_count_verma():
    for qmax in [*range(13), 16]:
        assert enumerate_basis(V, qmax) == list_basis_count(V, qmax), qmax


@pytest.mark.parametrize(
    "spec,qmax",
    [
        *(pytest.param(spec, qmax, id=f"L{k}-{qmax}")
          for k, spec in enumerate((S1, S2, S3, ModuleSpec(4)), 1)
          for qmax in range(13) if (k, qmax) != (2, 4)),
        # a floor shift of `size` slots or more must empty the row: shifting
        # it anyway carries each block into the low slots of the next y2
        # degree, which the mask keeps; L k=2 at qmax 4 is the first point
        # where that shows
        pytest.param(S2, 4, id="L2-4-row-drop"),
        *(pytest.param(V, qmax, id=f"V-{qmax}") for qmax in [*range(13), 16]),
    ],
)
def test_color2_rows_equal_list_dp(spec, qmax):
    # per n1, the packed rows against the list DP: the same lo, and per y2
    # degree v the same count at every energy lo + j <= budget
    width = _slot_width(qmax)
    slot = (1 << width) - 1
    table = cache(lambda length: _run_slack(length, qmax))
    packed = cache(lambda length: sum(n << width * t for t, n in enumerate(table(length))))

    for r1 in _color1_dual_counts(spec, qmax):
        n1 = conjugate(r1)
        budget = qmax - diag_energy_from_charges(n1)
        lo, counts = _color2_counts(n1, budget, spec.color2_cap, packed, width)
        want_lo, want = _list_color2_counts(n1, budget, spec.color2_cap, table)
        assert lo == want_lo, n1
        got = {v: [cnt >> width * j & slot for j in range(budget - lo + 1)] for v, cnt in counts.items()}
        assert got == {v: cnt for v, cnt in want.items() if any(cnt)}, n1


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
    [(S1, 20), (S2, 16), (S3, 13), (V, 12), (S3, 20), (V, 16), (V, 20), (V, 24)],
    ids=["L1-20", "L2-16", "L3-13", "V-12", "L3-20", "V-16", "V-20", "V-24"],
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

@pytest.mark.parametrize("spec", [S1, S2, V], ids=["L1", "L2", "V"])
def test_walk_monomials_pass_the_public_constructor(spec):
    # the walk builds its monomials without QPMonomial's checks; rebuilt
    # through the constructor, each one passes them and is equal
    for b in iter_basis_monomials(spec, 5):
        assert QPMonomial(color1=b.color1, color2=b.color2) == b


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
        e = total_exponent(conjugate(n1), conjugate(n2))
        assert b.energy >= e
        key = (n1, n2)
        floor_seen[key] = min(floor_seen.get(key, 10 ** 9), b.energy - e)
    assert set(floor_seen.values()) == {0}
