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

`_slot_width` sizes the slots of the packed q-coefficient lists in the
fermionic sum and the basis count, from a count of six-colored partitions
that bounds every character coefficient.
"""

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


def _entry(p: Partition, t: int) -> int:
    # 1-based read with zero padding beyond the stored length
    return p[t - 1] if 1 <= t <= len(p) else 0


def diag_energy_from_charges(n: Partition) -> int:
    """Same-color minimal energy from the charge list:

        sum_p ( n_p + 2 * sum_{p' < p} min(n_p, n_p') ).
    """
    validate_partition(n)
    total = 0
    for p, np in enumerate(n):
        total += np
        for q in range(p):
            total += 2 * min(np, n[q])
    return total


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
    """
    validate_partition(r1)
    validate_partition(r2)
    total = 0
    for s in range(1, len(r1) + 1):
        triple = _entry(r2, 3 * s) + _entry(r2, 3 * s - 1) + _entry(r2, 3 * s - 2)
        total += r1[s - 1] * triple
    return total


def _coefficient_bound(qmax: int) -> int:
    """The largest coefficient through q^qmax of prod_{m>=1} (1-q^m)^-6.

    Entry j of the one-variable DP below counts the multisets of (root,
    positive energy) pairs totalling j, over six roots: the six-root
    product's coefficients at q^j summed over y1 and y2, so at least each
    of them.  By the generalized Euler-Cauchy identity that product is the
    cap-free character.  A level-k character's coefficients are at most
    the cap-free ones: its fermionic sum keeps only some of the
    non-negative terms, its basis only some of the monomials.  So no
    character coefficient through q^qmax exceeds the bound.  The packed
    kernels of `character_fermionic` and `enumerate_basis` argue that each
    of their slots counts at most such a coefficient.
    """
    dp = [1] + [0] * qmax
    for _ in range(6):
        for part in range(1, qmax + 1):
            for j in range(part, qmax + 1):
                dp[j] += dp[j - part]
    return max(dp)


def _slot_width(qmax: int) -> int:
    """Bits per slot when a q-coefficient list truncated at q^qmax is
    packed into one int, slot j holding the coefficient of q^j (Kronecker
    substitution): the bit length of `_coefficient_bound(qmax)`.

    With all counts >= 0 and every true count through q^qmax below
    2^width, a carry can start only in a slot past the truncation, and it
    moves upward, into slots that are masked away; so the slots through
    q^qmax are exact.
    """
    return _coefficient_bound(qmax).bit_length()
