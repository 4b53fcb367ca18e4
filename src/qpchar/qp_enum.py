"""Quasi-particle monomials, their difference conditions, and the count of
the resulting basis.

A quasi-particle carries a color (1 or 2, one per simple root), a positive
charge n, and a mode m; its energy is -m.  A monomial stores, per color, the
(charge, mode) pairs with charges weakly decreasing; within a run of equal
charges the admissible modes strictly decrease, so each sorted tuple
represents one basis element and nothing is double counted.

A monomial belongs to the basis iff its modes satisfy, per color, the
difference conditions checked by `is_valid`:

* charge caps -- at level k, color-1 charges are <= k and color-2 charges
  are <= 3k (no caps for the generalized Verma module);
* the p-th color-1 mode is at most -n_p - 2 * sum of min(n_p, n_p') over
  earlier (larger-charge) color-1 factors p';
* consecutive equal color-1 charges force a mode gap of at least 2n;
* the p-th color-2 mode gains, on top of the color-2 analogue of the bound
  above, a positive cross-color term: + sum over all color-1 charges c of
  min(3c, n_p).  This term can push the bound to 0 or above, so color-2
  modes need not be negative;
* consecutive equal color-2 charges force a gap of at least 2n.

Minimal-energy monomials take every mode at its bound, and their total
energy is exactly `total_exponent` of the monomial's dual counts.

Since charges weakly decrease, the p-th bound (0-based) of a particle of
charge n is -n(1 + 2p), plus the cross sum for color 2.  Inside a run of
equal charges each bound is therefore the previous one minus 2n, so the gap
rule is the binding condition there, and a run of l particles is its greedy
minimum plus a weakly increasing sequence of l slacks: the run's slack table
T_l (`_run_slack`), which counts partitions into at most l parts.

`enumerate_basis` counts the basis without listing charge types: it takes
each color-1 charge list n1 once (`_color1_charge_lists`), builds its
color-1 energy histogram from the slack tables of its runs, and counts every
color-2 charge list at once with a DP over charge values
(`_color2_counts`).  `iter_basis_monomials` builds the monomials themselves,
one charge type (n1, n2) at a time, by walking each color's mode vectors
(`_charge_types`, `_mode_vectors`); the tests check the two against each
other.
"""

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator

from .fermionic import ModuleSpec, enumerate_dual_charge_types, validate_spec
from .partitions import (
    Partition,
    conjugate,
    diag_energy_from_charges,
    mixed_energy_from_charges,
    validate_partition,
)
from .series import TruncatedSeries, validate_trunc

ChargedModes = tuple[tuple[int, int], ...]
ModeVectors = list[tuple[int, tuple[int, ...]]]  # (energy, modes), sorted by energy


@dataclass(frozen=True)
class QPMonomial:
    """A two-color quasi-particle monomial: (charge, mode) pairs per color,
    charges weakly decreasing."""

    color1: ChargedModes = ()
    color2: ChargedModes = ()

    def __post_init__(self):
        for pairs in (self.color1, self.color2):
            validate_partition(tuple(n for n, _m in pairs))
            for _n, m in pairs:
                if not isinstance(m, int):
                    raise ValueError(f"mode {m!r} is not an integer")

    @property
    def energy(self) -> int:
        return -sum(m for _n, m in self.color1) - sum(m for _n, m in self.color2)

    @property
    def color_type(self) -> tuple[int, int]:
        """Total charge per color; the (y1, y2) exponents in the character."""
        return (
            sum(n for n, _m in self.color1),
            sum(n for n, _m in self.color2),
        )


def _color1_bounds(n1: Partition) -> list[int]:
    out = []
    for p, np in enumerate(n1):
        out.append(-np - 2 * sum(min(np, n1[q]) for q in range(p)))
    return out


def _color2_bounds(n1: Partition, n2: Partition) -> list[int]:
    out = []
    for p, np in enumerate(n2):
        cross = sum(min(3 * c, np) for c in n1)
        out.append(-np + cross - 2 * sum(min(np, n2[q]) for q in range(p)))
    return out


def is_valid(b: QPMonomial, spec: ModuleSpec) -> bool:
    """Check the charge caps and all four mode difference conditions."""
    validate_spec(spec)
    n1 = tuple(n for n, _m in b.color1)
    n2 = tuple(n for n, _m in b.color2)
    if spec.color1_cap is not None and any(n > spec.color1_cap for n in n1):
        return False
    if spec.color2_cap is not None and any(n > spec.color2_cap for n in n2):
        return False
    for pairs, bounds in (
        (b.color1, _color1_bounds(n1)),
        (b.color2, _color2_bounds(n1, n2)),
    ):
        for p, (n, m) in enumerate(pairs):
            if m > bounds[p]:
                return False
            if p > 0 and pairs[p - 1][0] == n and m > pairs[p - 1][1] - 2 * n:
                return False
    return True


def _mode_vectors(charges: Partition, bounds: list[int], max_energy: int) -> ModeVectors:
    """All admissible mode tuples for one color, with total energy (-sum of
    modes) at most max_energy.  Returns (energy, modes) pairs sorted by
    energy.

    Modes are chosen left to right, each starting at its effective upper
    bound (the stated bound, or the gap rule under the previous equal charge)
    and stepping down while the greedy completion -- all later modes at their
    own effective bounds -- still fits the budget.  Lowering a mode only
    lowers later effective bounds, so the break is sound.

    Both colors' bounds fall by 2n from one position to the next inside a
    run of charge n, so after mode m at a position with `rest` later
    positions in its run, the greedy completion puts those at m - 2n,
    m - 4n, ... and every later run at its own bounds: the floor is
    -rest*m + n*rest*(rest+1) plus a constant per run, found in O(1).
    """
    r = len(charges)
    tail = [0] * (r + 1)  # tail[j]: greedy energy of positions j.. at their bounds
    for j in range(r - 1, -1, -1):
        tail[j] = tail[j + 1] - bounds[j]
    run_end = [r] * r  # one past the last position of j's run
    for j in range(r - 2, -1, -1):
        run_end[j] = run_end[j + 1] if charges[j + 1] == charges[j] else j + 1
    out: ModeVectors = []
    modes: list[int] = []

    def rec(p: int, prev: int, acc: int) -> None:
        if p == r:
            out.append((acc, tuple(modes)))
            return
        n = charges[p]
        if p > 0 and n == charges[p - 1]:
            u = min(bounds[p], prev - 2 * n)
        else:
            u = bounds[p]
        rest = run_end[p] - p - 1
        fixed = n * rest * (rest + 1) + tail[run_end[p]]
        m = u
        while acc - m - rest * m + fixed <= max_energy:
            modes.append(m)
            rec(p + 1, m, acc - m)
            modes.pop()
            m -= 1

    rec(0, 0, 0)
    out.sort(key=lambda t: t[0])
    return out


def iter_basis_monomials(spec: ModuleSpec, qmax: int) -> Iterator[QPMonomial]:
    """Yield every valid monomial of total energy <= qmax, each exactly once.

    For each charge type of `_charge_types` the two colors' mode vectors are
    paired under the shared energy budget.  `enumerate_basis` does not use
    this generator; it is kept for callers that want the monomials
    themselves, and the tests check it against the count.

    A bad spec or qmax raises here, at the call, not at the first item.
    """
    validate_spec(spec)
    validate_trunc(qmax)
    return _monomials(spec, qmax)


def _charge_types(spec: ModuleSpec, qmax: int) -> Iterator[tuple[Partition, Partition, ModeVectors, ModeVectors]]:
    """Per charge type (n1, n2) within budget, the two colors' mode vectors.

    Charge types are the conjugates of the dual count pairs within budget
    (a charge type admits a monomial of energy <= qmax iff the exponent of
    its dual counts is <= qmax).  The difference conditions tie the colors
    together only through the charges (`_color2_bounds` reads n1, never its
    modes), so the charge type's monomials are exactly the pairs of a
    color-1 and a color-2 vector with e1 + e2 <= qmax.  Color-2 energies
    can be negative, so each color's own budget is qmax minus the other
    color's minimal energy.
    """
    for d in enumerate_dual_charge_types(spec, qmax):
        n1 = conjugate(d.r1)
        n2 = conjugate(d.r2)
        e1_min = diag_energy_from_charges(n1)
        e2_min = diag_energy_from_charges(n2) - mixed_energy_from_charges(n1, n2)
        vecs1 = _mode_vectors(n1, _color1_bounds(n1), qmax - e2_min)
        vecs2 = _mode_vectors(n2, _color2_bounds(n1, n2), qmax - e1_min)
        yield n1, n2, vecs1, vecs2


def _monomials(spec: ModuleSpec, qmax: int) -> Iterator[QPMonomial]:
    for n1, n2, vecs1, vecs2 in _charge_types(spec, qmax):
        for e1, m1 in vecs1:
            budget = qmax - e1
            for e2, m2 in vecs2:
                if e2 > budget:
                    break  # vecs2 is sorted by energy
                yield QPMonomial(
                    color1=tuple(zip(n1, m1)),
                    color2=tuple(zip(n2, m2)),
                )


def _run_slack(length: int, tmax: int) -> list[int]:
    """The slack table T_l of a run of l = `length` equal charges: entry t
    counts the run's mode vectors whose energy is t above its greedy
    minimum, for t <= tmax.

    The run is walked by the gap rule itself, for charge 1 with the first
    mode at most 0: each later mode is at least 2 below the one before.
    A run of charge n whose first bound is B has the same table, since
    m_i -> B + m_i - 2(n-1)i maps one walk onto the other and keeps every
    energy's distance from the greedy minimum.  The i-th mode's slack, its
    drop below the greedy value -2i, is at least the previous mode's, so a
    mode whose slack already exceeds what the later positions can afford
    ends the step-down.  T_l counts partitions into at most l parts, the
    expansion of 1/(q)_l.
    """
    counts = [0] * (tmax + 1)

    def walk(i: int, top: int, excess: int) -> None:
        # top: the highest mode the gap rule leaves position i
        if i == length:
            counts[excess] += 1
            return
        m = top
        while excess + (-2 * i - m) * (length - i) <= tmax:
            walk(i + 1, m - 2, excess - 2 * i - m)
            m -= 1

    walk(0, 0, 0)
    return counts


def _color1_charge_lists(spec: ModuleSpec, qmax: int) -> Iterator[Partition]:
    """Every color-1 charge list n1 of a basis monomial of energy <= qmax.

    n1 is generated as the conjugate of its dual counts r1, weakly
    decreasing with at most k entries at level k.  The least energy of a
    monomial with these color-1 charges is the dual-count floor, the sum
    over r1 of ceil(a^2/4): each block of the dual-count exponent,
    a^2 + x^2 + y^2 + z^2 - a(x+y+z), is least with x, y, z as close to a/2
    as integers allow, and those choices weakly decrease with a.  The floor
    grows with each entry, so r1 is extended while it stays <= qmax.
    """
    cap = spec.color1_cap
    r1: list[int] = []

    def grow(floor: int) -> Iterator[Partition]:
        yield conjugate(tuple(r1))
        if cap is not None and len(r1) >= cap:
            return
        a = 1
        while not r1 or a <= r1[-1]:
            f = floor + (a * a + 3) // 4
            if f > qmax:
                break
            r1.append(a)
            yield from grow(f)
            r1.pop()
            a += 1

    return grow(0)


def _color2_counts(n1: Partition, budget: int, cap: int | None,
                   slack: Callable[[int], list[int]]) -> tuple[int, dict[int, list[int]]]:
    """Count the color-2 mode vectors of every color-2 charge list next to
    the color-1 charges n1, with energy at most `budget`.

    Returns (lo, counts): lo is the least color-2 energy, and counts[v][j]
    is the number of color-2 mode vectors of total charge v and energy
    lo + j.

    The p-th particle of charge c costs at least
    f_p(c) = c(1 + 2p) - X(c), X(c) = sum over a in n1 of min(3a, c),
    the negated bound.  A DP runs over charge values c from the largest to
    1 and appends a run of l >= 0 particles of charge c at positions
    p..p+l-1: greedy cost f_p(c) + ... + f_{p+l-1}(c) plus a slack counted
    by T_l (the gap rule binds inside the run).  Its states are (particles
    so far p, y2 degree v, energy).

    Energies can be negative, so pruning needs a floor on what the
    particles still to come can cost.  X(c) <= c * len(n1), so f_p(c) > 0
    for every c once 1 + 2p > len(n1), and f_p(c) >= 0 once
    1 + 2p >= len(n1): only the first len(n1) // 2 positions can cost less
    than 0.  `least(p, c)`, the exact least cost of particles at positions
    >= p with charges <= c (none at all allowed), is therefore 0 from
    p = len(n1) // 2 on and a small table before it.  X(c) = 3|n1| is
    constant for c >= c* = 3 max(n1), where f_p grows with c, so least(p, c)
    = least(p, c*) there.  A state is kept as its energy plus least(p, c)
    for the charges c still to come: a floor of every completion's final
    energy.  That value never falls from one charge value to the next,
    starts at lo = least(0, top), and ends as the energy itself, so a state
    above `budget` has no completion within it and every state lies in
    [lo, budget].  The first particle of a charge c > c* costs c - 3|n1|
    and the rest at least least(1, c*), so no charge above
    max(c*, budget + 3|n1| - least(1, c*)) fits, nor above the cap.
    """
    npos = len(n1) // 2  # positions where a particle can cost < 0
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
    # states[p][v][j]: count at state energy lo + j (energy + least(p, c))
    states: list[dict[int, list[int]]] = [{0: [1] + [0] * (width - 1)}]
    for c in range(top, 0, -1):
        x = sum(min(3 * a, c) for a in n1)
        # a run moves p up, so taking p downward never feeds a state twice
        for p in range(len(states) - 1, -1, -1):
            here = least(p, c)
            shift = least(p, c - 1) - here
            runs = []  # (l, state step) of each run a state at lo may take
            l = 1
            while True:
                d = c * l * (2 * p + l) - l * x - here + least(p + l, c - 1)
                if d < width:
                    runs.append((l, d))
                elif p + l >= npos:
                    break  # each further particle costs >= 0 more
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


def enumerate_basis(spec: ModuleSpec, qmax: int) -> TruncatedSeries:
    """Count the basis monomials: sum of q^energy y1^r1 y2^r2 over every
    monomial `iter_basis_monomials` yields.

    The conditions couple the colors only through the color-1 charges n1,
    so the count runs once per n1 from `_color1_charge_lists`, never per
    charge type (n1, n2).  The color-1 histogram of n1 is the product of
    its runs' slack tables T_l, shifted up to its greedy energy, the sum
    over p of n_p(1 + 2p); `_color2_counts` counts the color-2 vectors of
    every color-2 charge list at once.  Each color is budgeted against the
    other's least energy, and the count at total energy e is the product
    of the two histograms summed over e1 + e2 = e.
    """
    validate_spec(spec)
    validate_trunc(qmax)
    tables: dict[int, list[int]] = {}

    def slack(length: int) -> list[int]:
        run = tables.get(length)
        if run is None:
            run = tables[length] = _run_slack(length, qmax)
        return run

    terms: dict[tuple[int, int, int], int] = {}
    for n1 in _color1_charge_lists(spec, qmax):
        e1 = diag_energy_from_charges(n1)
        lo, counts2 = _color2_counts(n1, qmax - e1, spec.color2_cap, slack)
        room = qmax - e1 - lo  # slack the two colors share
        hist1 = [1] + [0] * room
        for _charge, same in groupby(n1):
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
