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
energy is exactly the q-exponent of the fermionic term at the monomial's dual
counts (`total_exponent` in the test oracles).

Since charges weakly decrease, the p-th bound (0-based) of a particle of
charge n is -n(1 + 2p), plus the cross sum for color 2.  Inside a run of
equal charges each bound is therefore the previous one minus 2n, so the gap
rule is the binding condition there, and a run of l particles is its greedy
minimum plus a weakly increasing sequence of l slacks: the run's slack table
T_l (`_run_slack`), which counts partitions into at most l parts.

`enumerate_basis` counts the basis without listing charge types: it takes
each color-1 charge list n1 once, builds its color-1 energy histogram from
the slack tables of its runs, and counts every color-2 charge list at once
with a DP over charge values (`_color2_counts`).  Each histogram is one
int with a fixed-width slot per energy, so adding a run or pairing two
histograms is one big-int multiply; the slot width comes from a bound on
every count, proved before packing (`_slot_width`).  The DP keeps one int
per DP row, the states of p particles so far with a block per y2 degree,
so a run acts on every y2 degree at once.  `iter_basis_monomials`
builds the monomials themselves, one charge type (n1, n2) at a time
(`_charge_types`).  It walks the charge lists directly: beside each n1,
`_color2_charge_lists` grows every color-2 list n2 whose least energy fits
the budget, and then each color's mode vectors are walked (`_mode_vectors`),
the color-1 vectors once per n1 at the budget of its cheapest n2.
The tests check the two against each other.  Both take their color-1 dual
counts r1 from `_color1_dual_counts` and their color-2 floor, the exact
least cost of the particles still to come, with the range of charges that
can fit, from `_color2_floor`, so these are checked against exhaustive
boxes and the fermionic sum, not between the two; `is_valid` states the
color-2 bound on its own.
"""

from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Callable, Iterator

from .fermionic import ModuleSpec, validate_spec
from .partitions import Partition, conjugate, diag_energy_from_charges, validate_partition
from .series import TruncatedSeries, _from_packed, _pack, _slot_width, _slots, validate_trunc

ChargedModes = tuple[tuple[int, int], ...]
ModeVectors = list[tuple[int, tuple[int, ...]]]  # (energy, modes), sorted by energy


@dataclass(frozen=True)
class QPMonomial:
    """A two-color quasi-particle monomial: (charge, mode) pairs per color,
    charges weakly decreasing.  Each color is a tuple of (charge, mode)
    tuples; anything else raises ValueError, as a one-shot iterator would
    be used up by the checks and a list would leave the value unhashable."""

    color1: ChargedModes = ()
    color2: ChargedModes = ()

    def __post_init__(self):
        for pairs in (self.color1, self.color2):
            if not isinstance(pairs, tuple) or not all(isinstance(pair, tuple) for pair in pairs):
                raise ValueError(f"a color must be a tuple of (charge, mode) tuples: {pairs!r}")
            validate_partition(tuple(n for n, _m in pairs))
            for _n, m in pairs:
                if not isinstance(m, int) or isinstance(m, bool):
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


def _bounds(n1: Partition, charges: Partition) -> list[int]:
    """The stated bound of each mode of `charges`, a color-2 list beside the
    color-1 charges n1 (-f_p(c) per position), or the color-1 list itself
    with n1 = (), since a color-1 mode has no cross term.  The validator's
    own statement of the bound, reading nothing of `_color2_floor`.  The
    charges weakly decrease, so the p earlier ones each add
    min(n_p, n_q) = n_p."""
    return [sum(min(3 * a, c) for a in n1) - c * (1 + 2 * p) for p, c in enumerate(charges)]


def is_valid(b: QPMonomial, spec: ModuleSpec) -> bool:
    """Check the charge caps and all four mode difference conditions.
    Raises TypeError unless b is a `QPMonomial` and spec a `ModuleSpec`."""
    if not isinstance(b, QPMonomial):
        raise TypeError(f"b must be a QPMonomial, got {b!r}")
    validate_spec(spec)
    n1 = tuple(n for n, _m in b.color1)
    n2 = tuple(n for n, _m in b.color2)
    if spec.color1_cap is not None and any(n > spec.color1_cap for n in n1):
        return False
    if spec.color2_cap is not None and any(n > spec.color2_cap for n in n2):
        return False
    for pairs, bounds in (
        (b.color1, _bounds((), n1)),
        (b.color2, _bounds(n1, n2)),
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
    bound (the stated bound, or the gap rule under the previous equal
    charge) and stepping down while the modes so far, with every later
    mode at its stated bound, still fit the budget.  That is sound: every
    later mode is at most its stated bound, and the condition only grows
    as the mode falls.
    """
    r = len(charges)
    tail = [0] * (r + 1)  # tail[j]: energy of positions j.. at their stated bounds
    for j in range(r - 1, -1, -1):
        tail[j] = tail[j + 1] - bounds[j]
    out: ModeVectors = []
    modes: list[int] = []

    def rec(p: int, prev: int, acc: int) -> None:
        if p == r:
            out.append((acc, tuple(modes)))
            return
        n = charges[p]
        m = min(bounds[p], prev - 2 * n) if p > 0 and n == charges[p - 1] else bounds[p]
        while acc - m + tail[p + 1] <= max_energy:
            modes.append(m)
            rec(p + 1, m, acc - m)
            modes.pop()
            m -= 1

    rec(0, 0, 0)
    out.sort(key=lambda t: t[0])
    return out


def _color1_dual_counts(spec: ModuleSpec, qmax: int) -> Iterator[Partition]:
    """Every color-1 dual count sequence r1 of a basis monomial of energy
    <= qmax; its conjugate is the monomial's color-1 charge list n1.

    r1 is weakly decreasing with at most k entries at level k.  The least
    energy of a monomial with these color-1 charges is the dual-count floor,
    the sum over r1 of ceil(a^2/4): each block of the dual-count exponent,
    a^2 + x^2 + y^2 + z^2 - a(x+y+z), is least with x, y, z as close to a/2
    as integers allow, and those choices weakly decrease with a.  The floor
    grows with each entry, so r1 is extended while it stays <= qmax.  Each
    prefix comes before its extensions, and those by increasing entry.
    """
    cap = spec.color1_cap
    r1: list[int] = []

    def grow(floor: int) -> Iterator[Partition]:
        yield tuple(r1)
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


def _color2_floor(n1: Partition, budget: int, cap: int | None) -> tuple[list[int], list[list[int]]]:
    """The color-2 cost floor beside the color-1 charges n1, and the range
    of charges that can fit the budget under the cap (None: uncapped):
    (X, least), both listed for every charge c <= top, the largest one that
    can fit.

    The p-th particle (0-based) of charge c costs at least f_p(c) =
    c(1 + 2p) - X(c), X(c) = sum over a in n1 of min(3a, c), the negated
    bound.  Past c* = 3 max(n1), X stays 3|n1| and f_p grows with c.
    X(c) - X(c - 1) counts the a in n1 with 3a >= c, so X is built step by
    step.  X(c) <= c * len(n1), so f_p(c) >= 0 once 1 + 2p >= len(n1): only
    the first len(n1) // 2 positions can cost < 0, and each position past
    len(n1) // 2 costs at least 2.  `least[c][p]`, the exact least cost of
    weakly decreasing particles at positions >= p with charges <= c (none
    at all costs 0), is thus 0 from p = len(n1) // 2 on, least[c*][p] past
    c*, and else min(least[c - 1][p], f_p(c) + least[c][p + 1]), as the
    particle at p, if any, has charge c or less.  It is exact, not only a lower bound, as
    `_color2_counts` needs: it completes partial vectors at their floor.

    Each row least[c] is padded with zeros to len(n1) // 2 + size + 3
    positions, size = max(budget - least[c*][0] + 1, 0), so that both
    callers, with this budget, read it without a test of the position.  By
    those costs of at least 2, p particles with a floor within the budget
    have p <= len(n1) // 2 + 1 + (size - 1) / 2.  `_color2_charge_lists`
    reads position p + 1 beside them.  `_color2_counts` reads p + l for
    the runs of l particles it tries from there; past max(p, len(n1) // 2)
    each particle of a run raises its floor step by at least 2, so the
    last position it reads is at most max(p, len(n1) // 2) + 2 +
    (size - 1) / 2.

    A list holding a charge c > c* leads with such a charge, which costs
    c - X(c*) at position 0, and the rest cost at least least[c*][1], so
    no charge above top = max(c*, budget + X(c*) - least[c*][1]) fits,
    nor above the cap.  Past c* each entry of X is X(c*) and each row of
    least is the row least[c*] itself; a cap below c* cuts both tables.
    """
    npos = len(n1) // 2  # positions where a particle can cost < 0
    cstar = 3 * n1[0] if n1 else 0
    xs = [0]
    above = len(n1)  # the a in n1 with 3a >= c
    for c in range(1, cstar + 1):
        while 3 * n1[above - 1] < c:
            above -= 1
        xs.append(xs[-1] + above)
    least = [[0] * (npos + 1)]
    for c in range(1, cstar + 1):
        row, prev = [0] * (npos + 1), least[c - 1]
        for p in range(npos - 1, -1, -1):
            row[p] = min(prev[p], c * (1 + 2 * p) - xs[c] + row[p + 1])
        least.append(row)
    pad = [0] * (max(budget - least[cstar][0] + 1, 0) + 2)
    for row in least:
        row += pad
    top = max(cstar, budget + xs[cstar] - least[cstar][1])
    if cap is not None:
        top = min(top, cap)
    more = top - cstar  # rows past c*, or < 0 for a cap below c*
    return xs[:top + 1] + [xs[cstar]] * more, least[:top + 1] + [least[cstar]] * more


def _color2_charge_lists(n1: Partition, budget: int, cap: int | None) -> Iterator[tuple[Partition, int]]:
    """Every color-2 charge list n2, charges <= cap (None: uncapped), whose
    least energy beside the color-1 charges n1, e2_min = sum over p of
    f_p(n2_p), is <= budget; yielded as (n2, e2_min).

    n2 grows weakly decreasing, each prefix before its extensions.  f_p(c)
    can be negative, so a prefix takes charge c at position p only if its
    cost plus f_p(c) plus the floor `least[c][p + 1]` of `_color2_floor`
    fits the budget.  The charges run through the range of the floor
    tables, each at most the one before.
    """
    xs, least = _color2_floor(n1, budget, cap)
    n2: list[int] = []

    def grow(acc: int) -> Iterator[tuple[Partition, int]]:
        if acc <= budget:
            yield tuple(n2), acc
        p = len(n2)
        for c in range(1, (n2[-1] if n2 else len(xs) - 1) + 1):
            cost = acc + c * (1 + 2 * p) - xs[c]
            if cost + least[c][p + 1] <= budget:
                n2.append(c)
                yield from grow(cost)
                n2.pop()

    return grow(0)


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

    A charge type admits a monomial of energy <= qmax iff its least energy,
    e1_min + e2_min with every mode at its bound, is <= qmax.  The color-1
    lists n1 are the conjugates of `_color1_dual_counts`, and beside each
    `_color2_charge_lists` walks every color-2 list n2 with e2_min <=
    qmax - e1_min, yielding that e2_min.  The difference conditions tie the
    colors together only through the charges: `_bounds` states each mode's
    bound from charges alone, a color-2 mode's from n1 and n2 and a
    color-1 mode's from n1 with no cross term, never from the other
    color's modes.  So the charge type's monomials are exactly the pairs
    of a color-1 and a color-2 vector with e1 + e2 <= qmax.  Color-2
    energies can be negative, so each color's own budget is qmax minus the
    other color's least energy.  The color-1 vectors are built once per
    n1, at the budget of the least e2_min beside it; those of any other n2
    are a prefix of that list, as it is sorted by energy, so every charge
    type of n1 yields the same list, which callers only read and cut off
    at their own budget.
    """
    for r1 in _color1_dual_counts(spec, qmax):
        n1 = conjugate(r1)
        e1_min = diag_energy_from_charges(n1)
        lists = list(_color2_charge_lists(n1, qmax - e1_min, spec.color2_cap))
        vecs1 = _mode_vectors(n1, _bounds((), n1), qmax - min(e2_min for _n2, e2_min in lists))
        for n2, _e2_min in lists:
            vecs2 = _mode_vectors(n2, _bounds(n1, n2), qmax - e1_min)
            yield n1, n2, vecs1, vecs2


def _monomials(spec: ModuleSpec, qmax: int) -> Iterator[QPMonomial]:
    # the walk builds weakly decreasing charges and int modes, so each
    # monomial is built without the checks of QPMonomial.__post_init__
    make, put = object.__new__, object.__setattr__
    for n1, n2, vecs1, vecs2 in _charge_types(spec, qmax):
        e2_min = vecs2[0][0]
        for e1, m1 in vecs1:
            budget = qmax - e1
            if e2_min > budget:
                break  # both lists are sorted by energy
            for e2, m2 in vecs2:
                if e2 > budget:
                    break
                b = make(QPMonomial)
                put(b, "color1", tuple(zip(n1, m1)))
                put(b, "color2", tuple(zip(n2, m2)))
                yield b


def _run_slack(length: int, tmax: int) -> list[int]:
    """The slack table T_l of a run of l = `length` equal charges: entry t
    counts the run's mode vectors whose energy is t above its greedy
    minimum, for t <= tmax.

    By the gap rule a run is its greedy minimum plus l weakly increasing
    slacks, so T_l counts partitions into at most l parts, the expansion of
    1/(q)_l.  Either the first slack is 0 and the other l - 1 form a run, or
    every slack is >= 1 and taking one from each leaves a run of l slacks
    with sum t - l: T_l(t) = T_(l-1)(t) + T_l(t - l), from T_0 = [1, 0, ...].
    """
    counts = [1] + [0] * tmax
    for l in range(1, length + 1):
        for t in range(l, tmax + 1):
            counts[t] += counts[t - l]
    return counts


def _color2_counts(n1: Partition, budget: int, cap: int | None,
                   slack: Callable[[int], int], width: int) -> tuple[int, dict[int, int]]:
    """Count the color-2 mode vectors of every color-2 charge list next to
    the color-1 charges n1, with energy at most `budget`.

    Returns (lo, counts): lo is the least color-2 energy, and counts[v]
    packs, `width` bits per slot, the numbers of color-2 mode vectors of
    total charge v: slot j holds those of energy lo + j, for
    lo + j <= budget.  `slack(l)` is the slack table T_l packed alike.

    Callers pass an n1 that `_color1_dual_counts` admits, with `budget` =
    qmax - e1, e1 its greedy color-1 energy.  Then lo <= budget and counts
    is never empty.  The walk admits r1 while its floor, the sum over r1 of
    ceil(a^2/4), is <= qmax, and that floor is e1 + lo: both are the least
    energy of a monomial with color-1 charges n1, once as the least
    exponent of the fermionic terms at r1 and once as e1 plus the least
    color-2 energy beside n1, lo = least[top][0] over the whole range of
    `_color2_floor`.

    The p-th particle of charge c costs at least f_p(c) = c(1 + 2p) - X(c),
    as in `_color2_floor`.  A DP runs over charge values c from the largest
    to 1 and appends a run of l >= 0 particles of charge c at positions
    p..p+l-1: greedy cost f_p(c) + ... + f_{p+l-1}(c) plus a slack counted
    by T_l (the gap rule binds inside the run).  Its states are (particles
    so far p, y2 degree v), each holding its energies packed, and the
    states of one p are one int, the DP row: a block of stride =
    2 * size * width bits per y2 degree v, size = budget - lo + 1 slots of
    state energy and a guard as wide.  A run of l particles of charge c
    that moves the state floor d slots up acts on every v at once: it
    multiplies the row by T_l cut to size - d slots, shifts the product by
    d slots, masks each block to its low `size` slots with one replicated
    mask, and shifts by c * l * stride, which adds c * l to every y2
    degree.

    Energies can be negative, so pruning needs a floor on what the
    particles still to come can cost: `least[c][p]` of `_color2_floor`.
    A run reaching past the first len(n1) // 2 positions only adds cost.
    A state is kept as its energy plus least[c][p] for the charges c still
    to come: a floor of every completion's final energy.  That value never
    falls from one charge value to the next, starts at lo, the least[c][0]
    of the largest charge c, and ends as the energy itself, so a state
    above `budget` has no completion within it and every state lies in
    [lo, budget].  No charge past the range of `_color2_floor` fits.

    The packing is exact because no slot at or below `budget` can reach
    2^width, `width` being `_slot_width(qmax)` from `enumerate_basis`.
    All counts are >= 0, so such a slot then holds its true count.  A
    slot j of a state, or of a run's product before it is added, counts
    distinct partial vectors (the particles placed so far, with their
    modes) whose floor is lo + j.  Complete each by the cheapest particles
    still to come, at their bounds, and put the color-1 particles of n1 at
    theirs (greedy energy e1, with e1 + budget = qmax).  That gives a
    basis monomial of energy e1 + lo + j <= qmax, and the partial vector
    is read back from it as the particles of the charges already placed.
    The map is injective, so the slot is at most the number of basis
    monomials at that energy.  That number is at most the cap-free one,
    the six-root product's coefficient at y1 = y2 = 1, and so at most
    `_coefficient_bound(qmax)`.  The packed T_l count partitions into at
    most l parts, which is smaller still.

    Two more steps keep the blocks of a row apart.  Block guard: a block
    is below 2^(size * width) and T_l cut to size - d slots is below
    2^((size - d) * width), so their product, shifted by d slots, stays
    below 2^stride.  All of them are >= 0, so the row's product is the
    blocks' products side by side, and none reaches the next block; the
    rows' final sum holds true counts in every slot, so it carries
    nowhere, its guards are 0, and its blocks of `stride` bits are the
    counts.  Row drop: a floor shift of s slots keeps a block below
    2^((size + s) * width), inside its stride while s <= size.  A shift
    of `size` slots or more leaves no slot within the budget, so it sets
    the row to 0 and never shifts it, since that would cross blocks.
    """
    npos = len(n1) // 2  # positions where a particle can cost < 0
    xs, least = _color2_floor(n1, budget, cap)
    lo = least[-1][0]  # the least over every charge that fits
    size = budget - lo + 1  # slots: state energies lo..budget
    stride = 2 * size * width  # bits per y2 degree: `size` slots and a guard as wide
    cuts = [(1 << width * j) - 1 for j in range(size + 1)]  # low j slots
    rep, rep_bits = cuts[size], stride  # `size` slots in each of the first rep_bits / stride blocks
    # rows[p]: the states of p particles so far, block v the packed counts of
    # y2 degree v, slot j at state energy lo + j; one row per position of least
    rows = [1] + [0] * (len(least[0]) - 1)
    for c in range(len(xs) - 1, 0, -1):
        x, now, nxt = xs[c], least[c], least[c - 1]
        # a run moves p up, so taking p downward never feeds a row twice
        for p in range(len(rows) - 1, -1, -1):
            row = rows[p]
            if not row:
                continue
            while rep_bits < row.bit_length():
                rep |= rep << rep_bits
                rep_bits *= 2
            here = now[p]
            l = 1
            while True:
                d = c * l * (2 * p + l) - l * x - here + nxt[p + l]
                if d < size:
                    run = (row * (slack(l) & cuts[size - d]) << d * width) & rep
                    rows[p + l] += run << c * l * stride
                elif p + l >= npos:
                    break  # each further particle costs >= 0 more
                l += 1
            shift = nxt[p] - here
            if shift >= size:
                rows[p] = 0  # shifting could carry a block into the next
            elif shift:
                rows[p] = (row << shift * width) & rep
    return lo, dict(_slots(sum(rows), stride))


def enumerate_basis(spec: ModuleSpec, qmax: int) -> TruncatedSeries:
    """Count the basis monomials: sum of q^energy y1^r1 y2^r2 over every
    monomial `iter_basis_monomials` yields.

    The conditions couple the colors only through the color-1 charges n1,
    so the count runs once per n1, the conjugate of each r1 from
    `_color1_dual_counts`, never per charge type (n1, n2).  The color-1
    histogram of n1 is the product of its runs' slack tables T_l, shifted
    up to its greedy energy, the sum over p of n_p(1 + 2p);
    `_color2_counts` counts the color-2 vectors of every color-2 charge
    list at once.  Each color is budgeted against the other's least
    energy, and the count at total energy e is the product of the two
    histograms summed over e1 + e2 = e.  Beside every n1 the walk admits,
    the color-2 count keeps at least one list (see `_color2_counts`).
    The packed tables T_l are built once per run length in each call.

    Every histogram is packed into one int (Kronecker substitution): slot
    j, `width` = `_slot_width(qmax)` bits wide, holds the count at energy
    j above the histogram's base.  The width is fixed before any packing.
    A pairing is then one multiply per (n1, y2 degree), shifted up to
    energy e1 + lo and added to a packed total per (y1, y2) degree.  The
    totals are turned into the series once (`_from_packed`).

    The packing is exact because no slot through q^qmax can reach
    2^width, and all counts are >= 0, so such a slot holds its true count.
    A slot of the color-1 histogram, partial or whole, counts distinct
    color-1 vectors; one of a pairing or a total counts distinct
    monomials.  Completing each by the cheapest particles still missing
    maps it injectively to a basis monomial at the slot's energy.  So the
    slot is at most a character coefficient summed over y1, y2, which
    `_coefficient_bound` bounds.  `_color2_counts` argues the same for its
    own slots.
    """
    validate_spec(spec)
    validate_trunc(qmax)
    width = _slot_width(qmax)

    @cache
    def slack(length: int) -> int:
        return _pack(_run_slack(length, qmax), width)

    totals: dict[tuple[int, int], int] = {}
    for r1 in _color1_dual_counts(spec, qmax):
        n1 = conjugate(r1)
        e1 = diag_energy_from_charges(n1)
        lo, counts2 = _color2_counts(n1, qmax - e1, spec.color2_cap, slack, width)
        # slack the two colors share: slots 0..qmax - e1 - lo
        mask = (1 << width * (qmax - e1 - lo + 1)) - 1
        hist1 = 1
        for _charge, same in groupby(n1):
            hist1 = hist1 * slack(len(tuple(same))) & mask
        y1, base = sum(n1), (e1 + lo) * width
        for v, cnt in counts2.items():
            totals[y1, v] = totals.get((y1, v), 0) + ((hist1 * cnt & mask) << base)
    return _from_packed(qmax, width, totals)
