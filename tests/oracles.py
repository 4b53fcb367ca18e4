"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: plain dict convolution, box searches
over provably sufficient finite ranges, one-variable DP recurrences.  None
of it reuses the library's enumeration or series machinery beyond the
validator `is_valid` (the mode-search oracle is by definition an exhaustive
scan within that validator's bounds) and the charge-list walk of
`qp_enum` (`_color1_dual_counts`, `_color2_charge_lists`), which
`dual_charge_types` turns into the index set behind `pair_sum_character`,
the pair-by-pair form of the fermionic sum that the block recursion
replaced.  That walk prunes color-2 charges by the exact floor
`_color2_floor`, which `enumerate_basis` reads too, so the oracle shares
that floor with the count; `weak_floor_charge_lists` is the walk as it
was before, pruned by a weaker floor of its own, with the color-2 cost
restated, and the tests require both walks to yield the same sequence.
`total_exponent`, the q-exponent of one term of that sum, lives here: only
the oracles and the tests evaluate the sum term by term.
`brute_pbw_multisets` is the leaf-by-leaf PBW multiset recursion that the
partition-table count in `pbw_enumerated` replaced.  `per_type_basis_count`
is the charge-type-by-charge-type basis count that the color-1-grouped
count in `enumerate_basis` replaced; it walks the library's per-monomial
path, `_charge_types`, whose color-1 dual counts come from the same
generator as `enumerate_basis`'s.  `list_basis_count` is `enumerate_basis`
as it was before its histograms were packed into ints: the same DP over
color-2 charge values, run on plain coefficient lists by double loops.  It
takes the color-1 lists and the slack tables T_l from the library, as
`enumerate_basis` does, so the two differ only in the packing.
"""

import itertools
from math import isqrt
from operator import mul

from qpchar.partitions import conjugate, diag_energy_from_charges
from qpchar.qp_enum import (
    QPMonomial,
    _charge_types,
    _color1_dual_counts,
    _color2_charge_lists,
    _run_slack,
    is_valid,
)
from qpchar.series import TruncatedSeries

def total_exponent(r1: tuple[int, ...], r2: tuple[int, ...]) -> int:
    """q-exponent of the character term indexed by the dual counts (r1, r2):

        sum r1^(s)^2 + sum r2^(s)^2 - sum_s r1^(s) * (three-block of r2).

    Always >= 0, and zero only for r1 = r2 = (): writing a = r1^(s) and
    x, y, z for its color-2 block, each block equals
    a^2/4 + (x-a/2)^2 + (y-a/2)^2 + (z-a/2)^2.

    Restated here rather than summed from `diag_energy_from_dual` and
    `mixed_energy_from_dual`, so the tests compare the library's energies
    with an independent formula; `brute_dual_charge_types` evaluates the
    same formula with its r2 sums precomputed.
    """
    mixed = sum(a * sum(r2[3 * s:3 * s + 3]) for s, a in enumerate(r1))
    return sum(a * a for a in r1) + sum(x * x for x in r2) - mixed


def brute_mul(a_terms: dict, b_terms: dict, trunc: int) -> dict:
    """Truncated Cauchy product by direct double loop over dicts."""
    out = {}
    for (q1, u1, v1), c1 in a_terms.items():
        for (q2, u2, v2), c2 in b_terms.items():
            if q1 + q2 > trunc:
                continue
            key = (q1 + q2, u1 + u2, v1 + v2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def brute_product_side(qmax: int) -> dict:
    """The six-root Euler product multiplied out: the truncated geometric
    series of every factor 1/(1 - q^m y1^a y2^b), written as an explicit
    dict, folded in one `brute_mul` at a time.  The root weights are
    restated here so the oracle shares nothing with `pbw_oracle`."""
    roots = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))
    out = {(0, 0, 0): 1}
    for a, b in roots:
        for m in range(1, qmax + 1):
            factor = {(j * m, j * a, j * b): 1 for j in range(qmax // m + 1)}
            out = brute_mul(out, factor, qmax)
    return out


def brute_pbw_multisets(qmax: int) -> dict:
    """Count PBW monomial multisets one recursion leaf at a time.

    Roots are taken in generator order; the energies of one root's factors
    form a partition of part of the remaining budget, grown with weakly
    decreasing parts so each multiset reaches exactly one leaf.  The root
    weights are restated here so the oracle shares nothing with
    `pbw_oracle`."""
    roots = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))
    terms: dict[tuple[int, int, int], int] = {}

    def next_root(i: int, budget: int, q: int, u: int, v: int) -> None:
        if i == len(roots):
            terms[q, u, v] = terms.get((q, u, v), 0) + 1
            return
        a, b = roots[i]

        def grow(top: int, left: int, q2: int, u2: int, v2: int) -> None:
            next_root(i + 1, left, q2, u2, v2)
            for part in range(1, min(top, left) + 1):
                grow(part, left - part, q2 + part, u2 + a, v2 + b)

        grow(budget, budget, q, u, v)

    next_root(0, qmax, 0, 0, 0)
    return terms


def _partitions_in_box(max_len: int, max_part: int):
    """Every weakly decreasing tuple with at most max_len parts <= max_part."""
    yield ()

    def rec(prefix, top):
        for v in range(1, top + 1):
            cur = prefix + (v,)
            yield cur
            if len(cur) < max_len:
                yield from rec(cur, v)

    if max_len > 0 and max_part > 0:
        yield from rec((), max_part)


def dual_box(level: int | None, qmax: int) -> tuple[int, int, int]:
    """(max_part, len1, len2) of the exhaustive box: r1 has at most len1
    parts and r2 at most len2 parts, each part <= max_part.

    Box sufficiency: write a = r1^(s) and x for an r2 entry of block s.  The
    exponent is a sum of blocks a^2/4 + sum of (x - a/2)^2, so exponent
    <= qmax forces ceil(a^2/4) <= qmax (a <= 2*sqrt(qmax)), at most qmax
    r1 parts (each costs >= 1), x <= a/2 + sqrt(qmax) <= 2*sqrt(qmax) + 1,
    and at most 3*len(r1) + qmax <= 4*qmax r2 parts (entries past the last
    block cost x^2 >= 1 each).
    """
    max_part = 2 * isqrt(qmax) + 1 if qmax > 0 else 0
    len1 = qmax if level is None else min(level, qmax)
    len2 = 4 * qmax if level is None else min(3 * level, 4 * qmax)
    return max_part, len1, len2


def brute_dual_charge_types(level: int | None, qmax: int) -> set[tuple]:
    """Filter the exhaustive box `dual_box` for pairs (r1, r2) with
    total_exponent <= qmax.

    The exponent is evaluated as in `total_exponent`, but each r2's square
    sum and three-block sums r2[3s:3s+3] (s < len1) are computed once and
    every r1 is filtered against that list: the box holds millions of
    pairs at the Verma module, qmax 4.
    """
    max_part, len1, len2 = dual_box(level, qmax)
    r2_sums = [
        (r2, sum(x * x for x in r2), [sum(r2[3 * s:3 * s + 3]) for s in range(len1)])
        for r2 in _partitions_in_box(len2, max_part)
    ]
    out = set()
    for r1 in _partitions_in_box(len1, max_part):
        square1 = sum(a * a for a in r1)
        for r2, square2, blocks in r2_sums:
            if square1 + square2 - sum(map(mul, r1, blocks)) <= qmax:
                out.add((r1, r2))
    return out


def weak_floor_charge_lists(n1, budget: int, cap):
    """`qp_enum._color2_charge_lists` as it was before it pruned by the
    exact floor of `_color2_floor`: the same walk and yields, pruned by a
    weaker floor of its own, with f_p(c) = c(1 + 2p) - sum over a in n1 of
    min(3a, c) restated here.

    Only the first len(n1) // 2 positions can cost < 0, and past
    c* = 3 max(n1) f_p grows with c, so floor[p], the sum over positions
    p <= p' < len(n1) // 2 of min(0, least f_p'(c) over c <= c*), bounds
    what positions >= p can still subtract.  A prefix takes charge c next
    only if its cost plus f_p(c) plus floor[p + 1] fits the budget; past c*
    a charge that does not fit ends the position's charges.
    """
    def cost(p: int, c: int) -> int:
        return c * (1 + 2 * p) - sum(min(3 * a, c) for a in n1)

    npos = len(n1) // 2
    cstar = 3 * n1[0] if n1 else 0
    floor = [0] * (npos + 1)
    for p in range(npos - 1, -1, -1):
        floor[p] = floor[p + 1] + min(0, min(cost(p, c) for c in range(1, cstar + 1)))
    n2: list[int] = []

    def grow(acc: int):
        if acc <= budget:
            yield tuple(n2), acc
        p = len(n2)
        after = floor[min(p + 1, npos)]
        top = n2[-1] if n2 else cap
        c = 1
        while top is None or c <= top:
            total = acc + cost(p, c)
            if total + after <= budget:
                n2.append(c)
                yield from grow(total)
                n2.pop()
            elif c >= cstar:
                break
            c += 1

    return grow(0)


def dual_charge_types(spec, qmax: int) -> list[tuple]:
    """The fermionic sum's index set: every pair (r1, r2) under the spec's
    caps with exponent <= qmax, read off the charge lists `qp_enum` walks.

    The index pairs are the conjugates of the charge types (n1, n2) whose
    least energy e1_min + e2_min is <= qmax, and the exponent of a pair is
    that least energy, so each charge type (n1, n2) of the walk, n1 the
    conjugate of an r1 from `_color1_dual_counts` and n2 from
    `_color2_charge_lists`, becomes the pair (r1, conjugate(n2)), in walk
    order.
    """
    out = []
    for r1 in _color1_dual_counts(spec, qmax):
        n1 = conjugate(r1)
        budget = qmax - diag_energy_from_charges(n1)
        for n2, _e2_min in _color2_charge_lists(n1, budget, spec.color2_cap):
            out.append((r1, conjugate(n2)))
    return out


def _difference_multiset(r) -> tuple[int, ...]:
    # nonzero consecutive differences, last entry taken against 0;
    # zero differences contribute (q)_0 = 1 and are dropped
    if not r:
        return ()
    diffs = [r[i] - r[i + 1] for i in range(len(r) - 1)]
    diffs.append(r[-1])
    return tuple(sorted(d for d in diffs if d))


def pair_sum_character(spec, qmax: int) -> TruncatedSeries:
    """The fermionic sum evaluated pair by pair over the explicit index set
    from `dual_charge_types`.

    The Pochhammer denominators of one index pair depend only on the multiset
    of consecutive differences of its count sequences, so their expansions
    are shared across pairs.  Each expansion is the coefficient list of
    prod_d 1/(q)_d, computed by the in-place geometric pass: one sweep
    c[j] += c[j-i] per factor 1/(1-q^i).
    """
    terms: dict[tuple[int, int, int], int] = {}
    cache: dict[tuple[int, ...], list[int]] = {}

    def poch_expansion(diffs: tuple[int, ...]) -> list[int]:
        coeffs = cache.get(diffs)
        if coeffs is None:
            coeffs = [1] + [0] * qmax
            for d in diffs:
                for i in range(1, d + 1):
                    for j in range(i, qmax + 1):
                        coeffs[j] += coeffs[j - i]
            cache[diffs] = coeffs
        return coeffs

    for r1, r2 in dual_charge_types(spec, qmax):
        e = total_exponent(r1, r2)
        y1, y2 = sum(r1), sum(r2)
        diffs = tuple(sorted(_difference_multiset(r1) + _difference_multiset(r2)))
        coeffs = poch_expansion(diffs)
        for i in range(qmax - e + 1):
            c = coeffs[i]
            if c:
                key = (e + i, y1, y2)
                terms[key] = terms.get(key, 0) + c
    return TruncatedSeries(qmax, terms)


def brute_basis_series(spec, qmax: int) -> dict:
    """Exhaustive mode search within the bounds of `is_valid`.

    Charge lists are conjugates of the dual-count pairs, so the same box
    bounds apply transposed: color-1 charges <= qmax with at most
    2*sqrt(qmax)+1 of them, color-2 charges <= 4*qmax with at most
    2*sqrt(qmax)+1 of them (tightened by the spec's caps).  For a fixed
    charge list every valid monomial has each mode m_p at most its
    single-particle bound B_p, and since the total energy -sum(m) is at most
    qmax while every other mode is at most its own bound,
    m_p >= -qmax - sum of the other bounds.  All mode tuples in that box are
    scanned and filtered through `is_valid` plus the energy budget.

    Only practical for qmax <= 3 or so; that is the point.
    """
    cnt = isqrt(qmax) * 2 + 1 if qmax > 0 else 0
    cap1 = qmax if spec.color1_cap is None else min(spec.color1_cap, qmax)
    cap2 = 4 * qmax if spec.color2_cap is None else min(spec.color2_cap, 4 * qmax)
    terms: dict[tuple[int, int, int], int] = {}
    for n1 in _partitions_in_box(cnt, cap1):
        for n2 in _partitions_in_box(cnt, cap2):
            bounds = []
            for p, n in enumerate(n1):
                bounds.append(-n - 2 * sum(min(n, n1[j]) for j in range(p)))
            for p, n in enumerate(n2):
                cross = sum(min(3 * c, n) for c in n1)
                bounds.append(-n + cross - 2 * sum(min(n, n2[j]) for j in range(p)))
            total_hi = sum(bounds)
            ranges = [
                range(-qmax - (total_hi - b), b + 1)
                for b in bounds
            ]
            r1len = len(n1)
            for modes in itertools.product(*ranges):
                energy = -sum(modes)
                if energy > qmax:
                    continue
                b = QPMonomial(
                    color1=tuple(zip(n1, modes[:r1len])),
                    color2=tuple(zip(n2, modes[r1len:])),
                )
                if is_valid(b, spec):
                    key = (energy, sum(n1), sum(n2))
                    terms[key] = terms.get(key, 0) + 1
    # the empty charge list contributes the empty monomial at (0, 0, 0)
    return terms


def per_type_basis_count(spec, qmax: int) -> TruncatedSeries:
    """Count the basis one charge type (n1, n2) at a time.

    Every mode vector of each color is walked by `_charge_types`; the pairs
    are counted, not built: the count at total energy e is the product of
    the two colors' energy histograms, summed over e1 + e2 = e.  Every
    charge type of one n1 gets the same `vecs1` list, so its histogram is
    built once per list.
    """
    terms: dict[tuple[int, int, int], int] = {}
    last_vecs1 = None
    for n1, n2, vecs1, vecs2 in _charge_types(spec, qmax):
        r1, r2 = sum(n1), sum(n2)
        if vecs1 is not last_vecs1:
            last_vecs1 = vecs1
            hist1: dict[int, int] = {}
            for e, _modes in vecs1:
                hist1[e] = hist1.get(e, 0) + 1
        hist2: dict[int, int] = {}
        for e, _modes in vecs2:
            hist2[e] = hist2.get(e, 0) + 1
        for e1, c1 in hist1.items():
            for e2, c2 in hist2.items():
                if e1 + e2 <= qmax:
                    key = (e1 + e2, r1, r2)
                    terms[key] = terms.get(key, 0) + c1 * c2
    return TruncatedSeries(qmax, terms)


def colored_partition_counts(qmax: int, colors: int = 6) -> list[int]:
    """Coefficients of prod_{m>=1} (1-q^m)^(-colors) by one-variable DP:
    entry m counts multisets of (color, positive energy) pairs totalling m."""
    dp = [1] + [0] * qmax
    for _ in range(colors):
        for part in range(1, qmax + 1):
            for j in range(part, qmax + 1):
                dp[j] += dp[j - part]
    return dp


def _list_color2_counts(n1, budget: int, cap, slack) -> tuple[int, dict[int, list[int]]]:
    """The color-2 DP of `qp_enum._color2_counts` on plain lists: returns
    (lo, counts) with counts[v][j] the number of color-2 mode vectors of
    total charge v and energy lo + j <= budget.  `slack(l)` is the list
    T_l.  See `_color2_counts` for the states, the floor `least` and the
    bound `top`."""
    npos = len(n1) // 2
    cstar = 3 * n1[0] if n1 else 0
    table = [[0] * (cstar + 1) for _ in range(npos + 1)]
    for p in range(npos - 1, -1, -1):
        row, after = table[p], table[p + 1]
        for c in range(1, cstar + 1):
            f = c * (1 + 2 * p) - sum(min(3 * a, c) for a in n1)
            row[c] = min(row[c - 1], f + after[c])

    def least(p: int, c: int) -> int:
        return table[p][min(c, cstar)] if p < npos else 0

    top = max(cstar, budget + 3 * sum(n1) - least(1, cstar))
    if cap is not None:
        top = min(top, cap)
    lo = least(0, top)
    width = budget - lo + 1
    if width <= 0:
        return lo, {}
    states: list[dict[int, list[int]]] = [{0: [1] + [0] * (width - 1)}]
    for c in range(top, 0, -1):
        x = sum(min(3 * a, c) for a in n1)
        for p in range(len(states) - 1, -1, -1):
            here = least(p, c)
            shift = least(p, c - 1) - here
            runs = []
            l = 1
            while True:
                d = c * l * (2 * p + l) - l * x - here + least(p + l, c - 1)
                if d < width:
                    runs.append((l, d))
                elif p + l >= npos:
                    break
                l += 1
            if not runs and not shift:
                continue
            while runs and len(states) <= p + runs[-1][0]:
                states.append({})
            row = states[p]
            for v in list(row):
                cnt = row[v]
                first = next(j for j, n in enumerate(cnt) if n)
                for l, d in runs:
                    if first + d >= width:
                        continue
                    dst = states[p + l].get(v + c * l)
                    if dst is None:
                        dst = states[p + l][v + c * l] = [0] * width
                    run = slack(l)
                    for j in range(first, width - d):
                        n = cnt[j]
                        if n:
                            base = j + d
                            for t in range(width - base):
                                dst[base + t] += n * run[t]
                if shift:
                    if first + shift >= width:
                        del row[v]
                    else:
                        cnt[shift:] = cnt[:width - shift]
                        cnt[:shift] = [0] * shift
    counts: dict[int, list[int]] = {}
    for row in states:
        for v, cnt in row.items():
            acc = counts.get(v)
            if acc is None:
                counts[v] = cnt
            else:
                for j, n in enumerate(cnt):
                    acc[j] += n
    return lo, counts


def list_basis_count(spec, qmax: int) -> TruncatedSeries:
    """`enumerate_basis` on coefficient lists: per color-1 charge list n1,
    the color-1 histogram as a list product of its runs' slack tables, the
    color-2 counts from `_list_color2_counts`, and their pairing by a
    double loop over the two histograms."""
    tables: dict[int, list[int]] = {}

    def slack(length: int) -> list[int]:
        run = tables.get(length)
        if run is None:
            run = tables[length] = _run_slack(length, qmax)
        return run

    terms: dict[tuple[int, int, int], int] = {}
    for r1 in _color1_dual_counts(spec, qmax):
        n1 = conjugate(r1)
        e1 = diag_energy_from_charges(n1)
        lo, counts2 = _list_color2_counts(n1, qmax - e1, spec.color2_cap, slack)
        room = qmax - e1 - lo
        hist1 = [1] + [0] * room
        for _charge, same in itertools.groupby(n1):
            run = slack(len(tuple(same)))
            hist1 = [
                sum(hist1[i] * run[s - i] for i in range(s + 1))
                for s in range(room + 1)
            ]
        y1, base = sum(n1), e1 + lo
        for v, cnt in counts2.items():
            for i, c1 in enumerate(hist1):
                if c1:
                    for j in range(room - i + 1):
                        c2 = cnt[j]
                        if c2:
                            key = (base + i + j, y1, v)
                            terms[key] = terms.get(key, 0) + c1 * c2
    return TruncatedSeries(qmax, terms)
