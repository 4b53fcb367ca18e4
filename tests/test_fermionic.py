from math import isqrt

import pytest

from oracles import (
    _partitions_in_box,
    brute_dual_charge_types,
    brute_mul,
    dual_box,
    dual_charge_types,
    pair_sum_character,
    total_exponent,
)
from qpchar import fermionic
from qpchar.fermionic import ModuleSpec, _blocks, _move_blocks, character_fermionic
from qpchar.partitions import validate_partition

S1 = ModuleSpec(1)
S2 = ModuleSpec(2)
S3 = ModuleSpec(3)
V = ModuleSpec()


# --- ModuleSpec -------------------------------------------------------------

def test_spec_caps():
    assert S2.color1_cap == 2 and S2.color2_cap == 6
    assert V.color1_cap is None and V.color2_cap is None


def test_spec_rejects_level_below_one():
    with pytest.raises(ValueError):
        ModuleSpec(0)


@pytest.mark.parametrize("level", [2.5, 2.0, "2", True, False])
def test_spec_rejects_non_int_level(level):
    with pytest.raises(TypeError):
        ModuleSpec(level=level)


@pytest.mark.parametrize("entry", [character_fermionic])
@pytest.mark.parametrize("spec", [None, "L", 1, ModuleSpec])
def test_entry_points_reject_non_spec(entry, spec):
    with pytest.raises(TypeError):
        entry(spec, 3)


def test_spec_describe():
    assert "level-3" in S3.describe()
    assert "Verma" in V.describe()


# --- the index set, walked as charge lists -----------------------------------
# `dual_charge_types` conjugates the charge types that `qp_enum` walks
# (`_color1_dual_counts`, `_color2_charge_lists`) into dual count pairs.

def test_enumerate_budget_zero_is_empty_pair_only():
    assert dual_charge_types(S1, 0) == [((), ())]
    assert dual_charge_types(V, 0) == [((), ())]


# All pairs with exponent <= 1 at level 1, confirmed by the exhaustive box
# search in test_enumerate_matches_brute_force below.  Note (2,), (1,1,1):
# exponent 4 + 3 - 2*3 = 1, within the level-1 caps since its r1 has a single
# entry (two color-1 quasi-particles of charge 1, none of charge 2).
LEVEL1_Q1 = {
    ((), ()),
    ((), (1,)),
    ((1,), ()),
    ((1,), (1,)),
    ((1,), (1, 1)),
    ((1,), (1, 1, 1)),
    ((2,), (1, 1, 1)),
}


def test_enumerate_level1_budget_one():
    assert set(dual_charge_types(S1, 1)) == LEVEL1_Q1


def test_enumerate_verma_budget_one_same_as_level1():
    # no pair of exponent <= 1 exceeds the level-1 caps
    assert set(dual_charge_types(V, 1)) == LEVEL1_Q1


@pytest.mark.parametrize(
    "spec,qmax",
    [(S1, 4), (S2, 3), (S3, 2), (V, 3), (V, 4)],
)
def test_enumerate_matches_brute_force(spec, qmax):
    got = dual_charge_types(spec, qmax)
    assert len(got) == len(set(got)), "duplicates emitted"
    assert set(got) == brute_dual_charge_types(spec.level, qmax)


@pytest.mark.parametrize("spec,qmax", [(S2, 3), (V, 3)])
def test_brute_dual_charge_types_filters_by_total_exponent(spec, qmax):
    # the box oracle's precomputed sums must keep exactly the pairs that
    # `total_exponent` keeps
    max_part, len1, len2 = dual_box(spec.level, qmax)
    want = {
        (r1, r2)
        for r1 in _partitions_in_box(len1, max_part)
        for r2 in _partitions_in_box(len2, max_part)
        if total_exponent(r1, r2) <= qmax
    }
    assert brute_dual_charge_types(spec.level, qmax) == want


def test_enumerate_postconditions():
    for r1, r2 in dual_charge_types(S2, 5):
        validate_partition(r1)
        validate_partition(r2)
        assert len(r1) <= 2 and len(r2) <= 6
        assert total_exponent(r1, r2) <= 5


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
    out = {(0, 0, 0): 1}
    for i in range(1, r + 1):
        out = brute_mul(out, {(j * i, 0, 0): 1 for j in range(trunc // i + 1)}, trunc)
    return out


def _reference_character(spec, qmax):
    # same sum evaluated by plain dict convolution: scale each Pochhammer
    # product by the exponent monomial and accumulate
    def diffs(r):
        if not r:
            return ()
        return tuple(r[i] - r[i + 1] for i in range(len(r) - 1)) + (r[-1],)

    total = {}
    for r1, r2 in dual_charge_types(spec, qmax):
        term = {(total_exponent(r1, r2), sum(r1), sum(r2)): 1}
        for dd in diffs(r1) + diffs(r2):
            term = brute_mul(term, _qpoch_inverse(qmax, dd), qmax)
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


@pytest.mark.parametrize("qmax", range(13))
def test_block_table_matches_filter_over_wider_box(qmax):
    # every nonzero block with share <= qmax, found in a box twice as wide
    # as the one `_blocks` filters, each once, sorted
    wide = []
    for a in range(2 * (isqrt(4 * qmax) + 1)):
        for x in range(2 * (a // 2 + isqrt(qmax) + 2)):
            for y in range(x + 1):
                for z in range(y + 1):
                    e = a * a + x * x + y * y + z * z - a * (x + y + z)
                    if e <= qmax and (a or x):
                        wide.append((e, a, x, y, z))
    assert _blocks(qmax) == sorted(wide)


@pytest.mark.parametrize("spec", [S1, S2, V])
def test_character_agrees_with_series_machinery(spec):
    assert character_fermionic(spec, 5).terms == _reference_character(spec, 5)


@pytest.mark.parametrize("spec", [V, S1, S2, S3] + [ModuleSpec(k) for k in (4, 5, 6)])
def test_block_recursion_matches_pair_sum(spec):
    for qmax in range(11):
        assert character_fermionic(spec, qmax) == pair_sum_character(spec, qmax), qmax


@pytest.mark.parametrize("spec", [ModuleSpec(6), V])
def test_block_recursion_matches_pair_sum_at_qmax_12(spec):
    assert character_fermionic(spec, 12) == pair_sum_character(spec, 12)


def _reached_pairs(blocks):
    # the last counts (a, z) of every block: each block within the
    # truncation can be the first one
    return {(a, z) for _e, a, _x, _y, z in blocks}


@pytest.mark.parametrize("qmax", range(13))
def test_move_blocks_are_the_allowed_blocks_by_share(qmax):
    blocks = _blocks(qmax)
    for a, z in _reached_pairs(blocks):
        want = sorted((e, a2, x, y, w) for e, a2, x, y, w in blocks if a2 <= a and x <= z)
        got = _move_blocks(blocks, a, z, qmax)
        assert got == want, (a, z)
        # a lower bound on the share gives a prefix of the list: its moves
        # of share <= high
        for high in range(qmax + 1):
            part = _move_blocks(blocks, a, z, high)
            assert part == got[:len(part)] == [m for m in got if m[0] <= high], (a, z, high)


@pytest.mark.parametrize("qmax", range(13))
def test_moves_after_zero_counts_are_empty(qmax):
    # a block (x, y, 0) of color 1 count 0 ends every sequence: a next block
    # would need a' <= 0 and x <= 0, so it would be zero
    assert _move_blocks(_blocks(qmax), 0, 0, qmax) == []


def test_moves_at_qmax_zero():
    # no nonzero block has share 0, so no state is seeded and the sum is the
    # empty sequence's constant term alone
    assert _blocks(0) == []
    for spec in (S1, S2, S3, V):
        assert character_fermionic(spec, 0).terms == {(0, 0, 0): 1}


@pytest.mark.parametrize("spec", [S1, V])
def test_moves_at_qmax_one_clamp_the_closing_difference(spec):
    # the block (a, x, y, z) = (2, 1, 1, 1) has share 1; closing after it
    # takes 1/(q)_2 (q)_1, and 1/(q)_2 is read as 1/(q)_1 at qmax 1
    blocks = _blocks(1)
    assert (1, 2, 1, 1, 1) in blocks
    # a state after it holds q^1, so its pair's list is made to share 0,
    # and it may append no block
    assert _least(2, 1) == 1
    assert _move_blocks(blocks, 2, 1, 0) == []
    assert character_fermionic(spec, 1).coeff((1, 2, 3)) == 1


def _least(a, z):
    # the share of the cheapest block ending in (a, z): the share is
    # a^2/4 + (x - a/2)^2 + (y - a/2)^2 + (z - a/2)^2 with x >= y >= z, so
    # x = y = max(z, a // 2); for (0, 0) that is the zero block, which is no
    # block, and the cheapest is (0; 1, 0, 0)
    if (a, z) == (0, 0):
        return 1
    x = max(z, a // 2)
    return a * a + 2 * x * x + z * z - a * (2 * x + z)


def test_least_share_closed_form_matches_block_table():
    cheapest = {}
    for e, a, _x, _y, z in _blocks(40):
        cheapest[a, z] = min(e, cheapest.get((a, z), e))
    assert {pair: _least(*pair) for pair in cheapest} == cheapest


def _stepping_pairs(level, qmax):
    # the last counts (a, z) of every block sequence of total share <= qmax
    # with at least one and fewer than `level` blocks (any number without a
    # level): the pairs of the states a step is taken from.  `reach` maps
    # the pairs after j blocks to their least total share, from the first
    # blocks at j = 1.
    blocks = _blocks(qmax)
    reach, pairs, j = {}, set(), 1
    for e, a, _x, _y, z in blocks:
        reach[a, z] = min(e, reach.get((a, z), e))
    while reach and (level is None or j < level):
        pairs |= set(reach)
        after = {}
        for (a, z), s in reach.items():
            for e, a2, x, _y, w in blocks:
                if s + e <= qmax and a2 <= a and x <= z:
                    after[a2, w] = min(s + e, after.get((a2, w), s + e))
        reach, j = after, j + 1
    return pairs


@pytest.mark.parametrize("spec", [S1, S2, S3, ModuleSpec(6), V])
def test_move_lists_made_once_to_the_pair_floor(spec, monkeypatch):
    # each pair's move list is made once, at the first step from the pair,
    # to share qmax - least: no state of the pair holds a power below least.
    # At level 1 every state is one first block, so none steps.
    calls = []

    def spy(blocks, a, z, high):
        calls.append((a, z, high))
        return _move_blocks(blocks, a, z, high)

    monkeypatch.setattr(fermionic, "_move_blocks", spy)
    for qmax in range(13):
        calls.clear()
        character_fermionic(spec, qmax)
        pairs = [(a, z) for a, z, _high in calls]
        assert len(pairs) == len(set(pairs)), qmax
        assert set(pairs) == _stepping_pairs(spec.level, qmax), qmax
        if spec.level == 1:
            assert calls == [], qmax
        for a, z, high in calls:
            assert high == qmax - _least(a, z), (qmax, a, z)


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


# at qmax 20 the level-20 keys have a 21-value blocks-left field, the widest
# the tests reach
@pytest.mark.parametrize("qmax", [0, 1, 2, 3, 4, 12, 20])
def test_stabilization_iff_level_reaches_truncation(qmax):
    verma = character_fermionic(V, qmax)
    level = max(qmax, 1)
    assert character_fermionic(ModuleSpec(level), qmax) == verma
    if qmax >= 2:  # below that the level cannot drop under 1
        assert character_fermionic(ModuleSpec(qmax - 1), qmax) != verma


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


@pytest.mark.parametrize("qmax", [0, 1, 7, 12])
@pytest.mark.parametrize("level", [1, 2, 3, 6, None])
def test_top_corner_of_key_range(level, qmax):
    # q y1^2 y2^3 comes from the block (a, x, y, z) = (2, 1, 1, 1) of share
    # 1 alone, and q blocks of it give the corner q^q y1^(2q) y2^(3q), which
    # sits in the last layer, y1 + y2 = 5 qmax at q = qmax; at level k a
    # state may hold at most k blocks, so the corner is 0 past q = k.  A
    # layer list one short, a field L or P one short, or a blocks-left
    # field that never counts down, moves it.
    s = character_fermionic(ModuleSpec(level), qmax)
    for q in range(qmax + 1):
        assert s.coeff((q, 2 * q, 3 * q)) == (1 if level is None or q <= level else 0), q
    if level is None:
        assert max(u for (_q, u, _v) in s.terms) == 2 * qmax
        assert max(v for (_q, _u, v) in s.terms) == 3 * qmax
