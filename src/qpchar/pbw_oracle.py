"""Independent oracle for the no-cap character: the PBW monomial basis over
the six positive roots of G2, computed two unrelated ways.

The positive roots, in the generator enumeration order used throughout, and
their (y1, y2) weights in the simple-root basis; `POSITIVE_ROOTS` holds the
weights in this table's order:

    alpha2            (0, 1)
    alpha1            (1, 0)
    alpha1 + alpha2   (1, 1)
    alpha1 + 2alpha2  (1, 2)
    alpha1 + 3alpha2  (1, 3)
    2alpha1 + 3alpha2 (2, 3)

`product_side` computes prod over roots, prod over m >= 1, of
1/(1 - q^m y1^a y2^b) by dividing the series 1 in place by each
1 - q^m y1^a y2^b in turn.  `pbw_enumerated` counts monomial multisets
directly.  A multiset picks, independently for each root, the partition
formed by the energies of that root's factors, so it lists the partitions
of every energy up to qmax once, with the lister `partitions._partitions_of`
that `verify --check conjugation` also runs over, as a table {(energy,
number of parts): count}, and folds that table over the six roots.  The
count never touches series arithmetic or the product's division sweep, so
the two agree only if both are right.

Both hold each q-layer as one int, each with its own arithmetic: the
coefficient of q^q y1^u y2^v is the `width`-bit slot u * stride + v of
layer q, so a monomial factor y1^a y2^b is one left shift of a layer by
(a * stride + b) * width bits.  The stride comes from `POSITIVE_ROOTS`: a
monomial within qmax has at most qmax factors, so v <= max(b) qmax < stride
and no slot spills into the next y1 row.  Each method's loop takes the
width as its argument, and the method sizes its slots by running that
loop at width 0, where every monomial of a layer falls in slot 0; it
argues in its docstring why no slot carries into the next.  Neither uses
the packed format of `series`.  Both split each layer into rows of stride
slots and the rows into slots once, at the end, and end in
`series._built`: their counts are positive and their keys int triples
within qmax.
"""

from collections import Counter

from .partitions import _partitions_of
from .series import TruncatedSeries, _built, validate_trunc


POSITIVE_ROOTS: tuple[tuple[int, int], ...] = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))


def product_side(qmax: int) -> TruncatedSeries:
    """The six-fold Euler product, one geometric factor per root and q-step.

    Each factor 1/(1 - t), t = q^m y1^a y2^b, is divided out of the series
    1 in place.  `layers[q]` is one int whose `width`-bit slot
    u * stride + v holds the coefficient of q^q y1^u y2^v; a term at q^q
    has at most q factors, so v <= max(b) q < stride.  Dividing by 1 - t is
    the single sweep c[q] += t * c[q - m] in increasing q, which shifts the
    layer it reads, already divided, by (a * stride + b) * width bits.

    The width is the bit length of the largest layer total, from the same
    sweep at width 0, where every monomial of a layer falls in slot 0.  It
    is enough: every coefficient is >= 0, and a slot holds a coefficient of
    a partial product, so at most the final coefficient at its key, because
    every factor still to come has constant term 1 and non-negative terms;
    a final coefficient is at most its layer's total.  So no slot carries
    into the next.
    """
    validate_trunc(qmax)
    stride = max(b for _a, b in POSITIVE_ROOTS) * qmax + 1

    def divided(width):
        layers = [1] + [0] * qmax
        for a, b in POSITIVE_ROOTS:
            shift = (a * stride + b) * width
            for m in range(1, qmax + 1):
                for q in range(m, qmax + 1):
                    layers[q] += layers[q - m] << shift
        return layers

    width = max(divided(0)).bit_length()
    layers = divided(width)
    row_bits = stride * width
    row_mask, slot_mask = (1 << row_bits) - 1, (1 << width) - 1
    terms = {}
    for q, layer in enumerate(layers):
        u = 0
        while layer:
            row, v = layer & row_mask, 0
            while row:
                c = row & slot_mask
                if c:
                    terms[q, u, v] = c
                row >>= width
                v += 1
            layer >>= row_bits
            u += 1
    return _built(qmax, terms)


def _partition_table(qmax: int) -> dict[tuple[int, int], int]:
    """{(e, n): number of partitions of e into n parts} for every e <= qmax,
    counted over the partitions of each e that `_partitions_of` lists one
    by one; keys in increasing e."""
    table = Counter((e, len(p)) for e in range(qmax + 1) for p in _partitions_of(e))
    return dict(sorted(table.items()))


def pbw_enumerated(qmax: int) -> TruncatedSeries:
    """Count multisets of (root, negative mode) pairs with total energy
    <= qmax.

    The energies of one root's factors form a partition, chosen
    independently of the other roots.  So the count takes the table of
    partitions by (energy e, number of parts n) once, and folds the roots in
    generator order over running states, a list by energy q whose entry is
    one int: its `width`-bit slot u * stride + v counts the multisets at
    q^q y1^u y2^v, and a multiset of energy q has at most q factors, so
    v <= max(b) q < stride.  A layer at q meets every (e, n) with
    q + e <= qmax, and n factors of root (a, b) add e to q and (n*a, n*b)
    to the color degrees: the layer times the table's count goes to
    layer q + e, shifted by (n*a * stride + n*b) * width bits.  Plain
    integer counting, no series arithmetic; one series is built at the end.

    The width is the bit length of the largest layer total, from the same
    fold at width 0, where every monomial of a layer falls in slot 0.  It
    is enough: every count is >= 0, and a slot holds a count over the roots
    folded so far, so at most the final count at its key, because every
    fold still to come has constant term 1 (the empty partition) and
    non-negative terms; a final count is at most its layer's total.  So no
    slot carries into the next.
    """
    validate_trunc(qmax)
    table = _partition_table(qmax)
    stride = max(b for _a, b in POSITIVE_ROOTS) * qmax + 1

    def folded(width):
        states = [1] + [0] * qmax
        for a, b in POSITIVE_ROOTS:
            steps = [(e, k, (n * a * stride + n * b) * width) for (e, n), k in table.items()]
            grown = [0] * (qmax + 1)
            for q, layer in enumerate(states):
                room = qmax - q
                for e, k, shift in steps:
                    if e > room:
                        break
                    grown[q + e] += layer * k << shift
            states = grown
        return states

    width = max(folded(0)).bit_length()
    states = folded(width)
    row_bits = stride * width
    row_mask, slot_mask = (1 << row_bits) - 1, (1 << width) - 1
    terms = {}
    for q, layer in enumerate(states):
        u = 0
        while layer:
            row, v = layer & row_mask, 0
            while row:
                c = row & slot_mask
                if c:
                    terms[q, u, v] = c
                row >>= width
                v += 1
            layer >>= row_bits
            u += 1
    return _built(qmax, terms)
