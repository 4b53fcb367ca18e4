"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: plain dict convolution, box searches
over provably sufficient finite ranges, one-variable DP recurrences.  None
of it reuses the library's enumeration or series machinery beyond the
validator `is_valid` (the mode-search oracle is by definition an exhaustive
scan within that validator's bounds) and the index-set enumerator behind
`pair_sum_character`, the pair-by-pair form of the fermionic sum that the
block recursion replaced.  `brute_pbw_multisets` is the leaf-by-leaf PBW
multiset recursion that the partition-table count in `pbw_enumerated`
replaced.  `per_type_basis_count` is the charge-type-by-charge-type basis
count that the color-1-grouped count in `enumerate_basis` replaced; it
walks the library's per-monomial path, `_charge_types`.
"""

import itertools
from math import isqrt

from qpchar.fermionic import enumerate_dual_charge_types
from qpchar.partitions import DualChargeType, total_exponent
from qpchar.qp_enum import QPMonomial, _charge_types, is_valid
from qpchar.series import TruncatedSeries


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


def brute_dual_charge_types(level: int | None, qmax: int) -> set[DualChargeType]:
    """Filter an exhaustive box for pairs with total_exponent <= qmax.

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
    out = set()
    for r1 in _partitions_in_box(len1, max_part):
        for r2 in _partitions_in_box(len2, max_part):
            d = DualChargeType(r1, r2)
            if total_exponent(d) <= qmax:
                out.add(d)
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
    from `enumerate_dual_charge_types`.

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

    for d in enumerate_dual_charge_types(spec, qmax):
        e = total_exponent(d)
        y1, y2 = sum(d.r1), sum(d.r2)
        diffs = tuple(sorted(_difference_multiset(d.r1) + _difference_multiset(d.r2)))
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
    the two colors' energy histograms, summed over e1 + e2 = e.
    """
    terms: dict[tuple[int, int, int], int] = {}
    for n1, n2, vecs1, vecs2 in _charge_types(spec, qmax):
        r1, r2 = sum(n1), sum(n2)
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
