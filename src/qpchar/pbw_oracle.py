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

Both hold each q-layer as one int, in one format that `_from_layers` sizes
and decodes: the coefficient of q^q y1^u y2^v is the `width`-bit slot
u * stride + v of layer q, so a monomial factor y1^a y2^b is one left shift
of a layer by (a * stride + b) * width bits.  Each method writes only its
own loop over the layers, as a function of the stride and the width; the
two loops share no arithmetic.  Neither uses the packed format of `series`.
"""

from collections import Counter

from .partitions import _partitions_of
from .series import TruncatedSeries, _built, validate_trunc


POSITIVE_ROOTS: tuple[tuple[int, int], ...] = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))


def _from_layers(qmax: int, loop) -> TruncatedSeries:
    """The series whose q-layers `loop(stride, width)` returns packed.

    A monomial within qmax has at most qmax factors, so its y2 degree is
    v <= max(b) qmax < stride, the stride taken from `POSITIVE_ROOTS`, and
    no slot spills into the next y1 row.  The width is the bit length of
    the largest layer total, from the loop at width 0, where every monomial
    of a layer falls in slot 0.  It is enough when, as in both methods,
    every count is >= 0 and every step still to come has constant term 1
    and non-negative terms: then a slot is at most the final coefficient at
    its key, which is at most its layer's total, so no slot carries into
    the next.  Each layer is split into rows of stride slots, and each row
    into slots; the counts are positive and the keys int triples within
    qmax, so the series is built by `series._built`.
    """
    stride = max(b for _a, b in POSITIVE_ROOTS) * qmax + 1
    width = max(loop(stride, 0)).bit_length()
    row_bits = stride * width
    row_mask, slot_mask = (1 << row_bits) - 1, (1 << width) - 1
    terms = {}
    for q, layer in enumerate(loop(stride, width)):
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


def product_side(qmax: int) -> TruncatedSeries:
    """The six-fold Euler product, one geometric factor per root and q-step.

    Each factor 1/(1 - t), t = q^m y1^a y2^b, is divided out of the series
    1 in place, in the packed layers of `_from_layers`.  Dividing by 1 - t
    is the single sweep c[q] += t * c[q - m] in increasing q, which shifts
    the layer it reads, already divided, by (a * stride + b) * width bits.
    Every factor still to come, 1/(1 - t) = 1 + t + t^2 + ..., has
    constant term 1 and non-negative terms, as `_from_layers` asks.
    """
    validate_trunc(qmax)

    def divided(stride, width):
        layers = [1] + [0] * qmax
        for a, b in POSITIVE_ROOTS:
            shift = (a * stride + b) * width
            for m in range(1, qmax + 1):
                for q in range(m, qmax + 1):
                    layers[q] += layers[q - m] << shift
        return layers

    return _from_layers(qmax, divided)


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
    generator order over running states, a list by energy q of the packed
    layers of `_from_layers`: slot u * stride + v of layer q counts the
    multisets at q^q y1^u y2^v.  A layer at q meets every (e, n) with
    q + e <= qmax, and n factors of root (a, b) add e to q and (n*a, n*b)
    to the color degrees: the layer times the table's count goes to
    layer q + e, shifted by (n*a * stride + n*b) * width bits.  Plain
    integer counting, no series arithmetic.  Every fold still to come has
    constant term 1, the empty partition, and non-negative terms, as
    `_from_layers` asks.
    """
    validate_trunc(qmax)
    table = _partition_table(qmax)

    def folded(stride, width):
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

    return _from_layers(qmax, folded)
