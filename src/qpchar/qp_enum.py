"""Quasi-particle monomials, their difference conditions, and exhaustive
enumeration of the resulting basis.

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
energy is exactly `total_exponent` of the monomial's dual counts; the
enumeration walks modes downward from those bounds within the energy budget.

The conditions couple the two colors only through their charges, so for a
fixed charge type the monomials are all pairs of a color-1 and a color-2
mode vector within the budget.  `enumerate_basis` therefore enumerates every
mode vector of each color but counts the pairs as a product of per-color
energy histograms; `iter_basis_monomials` builds the pairs themselves, for
callers that need the monomials and for the tests that check the count.
"""

from dataclasses import dataclass
from typing import Iterator

from .fermionic import ModuleSpec, enumerate_dual_charge_types
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
    """
    r = len(charges)
    out: ModeVectors = []

    def completion_floor(p: int, prev: int) -> int:
        e = 0
        for pp in range(p, r):
            if pp > 0 and charges[pp] == charges[pp - 1]:
                u = min(bounds[pp], prev - 2 * charges[pp])
            else:
                u = bounds[pp]
            e += -u
            prev = u
        return e

    modes: list[int] = []

    def rec(p: int, prev: int, acc: int) -> None:
        if p == r:
            out.append((acc, tuple(modes)))
            return
        if p > 0 and charges[p] == charges[p - 1]:
            u = min(bounds[p], prev - 2 * charges[p])
        else:
            u = bounds[p]
        m = u
        while True:
            e2 = acc + (-m)
            if e2 + completion_floor(p + 1, m) > max_energy:
                break
            modes.append(m)
            rec(p + 1, m, e2)
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

    A bad qmax raises here, at the call, not at the first item.
    """
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


def _energy_histogram(vecs: ModeVectors) -> dict[int, int]:
    hist: dict[int, int] = {}
    for e, _modes in vecs:
        hist[e] = hist.get(e, 0) + 1
    return hist


def enumerate_basis(spec: ModuleSpec, qmax: int) -> TruncatedSeries:
    """Count the basis monomials: sum of q^energy y1^r1 y2^r2 over every
    monomial `iter_basis_monomials` yields.

    Per charge type every mode vector of each color is enumerated, but the
    pairs are counted, not built: the count at total energy e is the
    product of the two colors' energy histograms, summed over e1 + e2 = e.
    """
    validate_trunc(qmax)
    terms: dict[tuple[int, int, int], int] = {}
    for n1, n2, vecs1, vecs2 in _charge_types(spec, qmax):
        r1, r2 = sum(n1), sum(n2)
        hist2 = _energy_histogram(vecs2)
        for e1, c1 in _energy_histogram(vecs1).items():
            for e2, c2 in hist2.items():
                e = e1 + e2
                if e > qmax:
                    break  # hist2 keeps vecs2's increasing energy order
                key = (e, r1, r2)
                terms[key] = terms.get(key, 0) + c1 * c2
    return TruncatedSeries(qmax, terms)
