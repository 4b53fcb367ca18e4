"""Partitions, conjugation, and the quadratic energy bookkeeping.

A partition is a plain tuple of weakly decreasing positive integers (the
empty tuple is allowed).  Entries beyond the stored length read as zero.
Each public function here raises ValueError for an input that is not one
(`validate_partition`).

A quasi-particle monomial is described in two conjugate ways:

* by its *charge list* per color -- the weakly decreasing charges n_p of the
  individual quasi-particles;
* by its *dual counts* -- the conjugate partition, whose entry t counts the
  quasi-particles of charge >= t.

The minimal energy of a monomial is naturally a sum of per-particle mode
bounds over the charge list, but the character sum is indexed by dual counts.
The ``*_energy_*`` pairs below compute the same quantity from either side;
their agreement under conjugation is what makes the two indexings
interchangeable, and is checked property-style in the test suite.

For the cross-color interaction the dual-count expression groups the color-2
counts in threes: block s pairs the color-1 count r1^(s) with the color-2
counts r2^(3s-2), r2^(3s-1), r2^(3s).  The factor three is the number of
times the short simple root fits into the long one's pairing.  The q-exponent
of the character term indexed by (r1, r2) is the two diagonal energies from
the dual side minus the mixed one.
"""

from collections.abc import Iterator

Partition = tuple[int, ...]


def validate_partition(p: Partition) -> None:
    """Raise ValueError unless p is a weakly decreasing tuple of positive
    ints; bools are refused, and so is any other iterable, which the
    energies would read a second time."""
    if not isinstance(p, tuple):
        raise ValueError(f"a partition must be a tuple: {p!r}")
    prev = None
    for x in p:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"partition entries must be positive integers: {p!r}")
        if prev is not None and x > prev:
            raise ValueError(f"partition entries must be weakly decreasing: {p!r}")
        prev = x


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: entry t counts parts of size >= t.
    Raises ValueError unless p is a partition (`validate_partition`)."""
    validate_partition(p)
    if not p:
        return ()
    out = [0] * p[0]
    for x in p:
        for t in range(x):
            out[t] += 1
    return tuple(out)


def diag_energy_from_charges(n: Partition) -> int:
    """Same-color minimal energy from the charge list:

        sum_p ( n_p + 2 * sum_{p' < p} min(n_p, n_p') ).

    The charges weakly decrease, so each earlier charge n_p' is >= n_p and
    adds min(n_p, n_p') = n_p: the sum is one pass, sum_p n_p (1 + 2p).
    """
    validate_partition(n)
    return sum(c * (1 + 2 * p) for p, c in enumerate(n))


def diag_energy_from_dual(r: Partition) -> int:
    """Same quantity from the dual counts: the sum of squared entries."""
    validate_partition(r)
    return sum(x * x for x in r)


def mixed_energy_from_charges(n1: Partition, n2: Partition) -> int:
    """Cross-color interaction from the charge lists:

        sum over color-2 charges c2 and color-1 charges c1 of min(c2, 3*c1).
    """
    validate_partition(n1)
    validate_partition(n2)
    return sum(min(c2, 3 * c1) for c2 in n2 for c1 in n1)


def mixed_energy_from_dual(r1: Partition, r2: Partition) -> int:
    """Cross-color interaction from the dual counts r1 (color 1) and r2
    (color 2), grouping color-2 counts in threes:

        sum_s r1^(s) * (r2^(3s-2) + r2^(3s-1) + r2^(3s)).

    Counted from 0, block s pairs r1[s] with the slice r2[3s:3s + 3],
    which reads entries past the stored length as zero.
    """
    validate_partition(r1)
    validate_partition(r2)
    return sum(a * sum(r2[3 * s:3 * s + 3]) for s, a in enumerate(r1))


def _partitions_of(n: int) -> Iterator[Partition]:
    """Yield the partitions of n >= 0 in reverse lexicographic order,
    (n,) first and (1,) * n last; n = 0 yields ().

    Each step lowers the last part above 1 by one, then refills the rest
    (the ones after that part and the unit taken from it) greedily with
    parts of the lowered size.  The lister reads nothing of `conjugate` or
    the energies, since `verify --check conjugation` runs over its output.
    """
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        h = len(parts) - parts.count(1) - 1  # the index of the last part above 1
        if h < 0:
            return
        part = parts[h] - 1
        count, left = divmod(part + len(parts) - h, part)
        parts[h:] = [part] * count
        if left:
            parts.append(left)
