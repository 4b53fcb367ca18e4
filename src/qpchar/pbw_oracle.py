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

Both key their working dicts by one int per monomial q^q y1^u y2^v, not by
a tuple, each with its own arithmetic: `product_side` keys a layer's
(u, v) as u * stride + v, `pbw_enumerated` a state's (q, u, v) as
(q * rows + u) * stride + v.  The bounds come from `POSITIVE_ROOTS`: a
monomial within qmax has at most qmax factors, so u <= max(a) qmax < rows
and v <= max(b) qmax < stride.  Neither uses the packed format of
`series`.  Both turn their keys back into (q, u, v) triples once and end
in `series._built`: their counts are positive and their keys int triples
within qmax.
"""

from collections import Counter

from .partitions import _partitions_of
from .series import TruncatedSeries, _built, validate_trunc


POSITIVE_ROOTS: tuple[tuple[int, int], ...] = ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3))


def product_side(qmax: int) -> TruncatedSeries:
    """The six-fold Euler product, one geometric factor per root and q-step.

    Each factor 1/(1 - t), t = q^m y1^a y2^b, is divided out of the series
    1 in place.  `layers[q]` maps the int u * stride + v to the coefficient
    of q^q y1^u y2^v; a term at q^q has at most q factors, so v <= max(b) q
    < stride.  Dividing by 1 - t is the single sweep c[q] += t * c[q - m]
    in increasing q, which adds a * stride + b to each key of the layer it
    reads: that layer has already been divided.
    """
    validate_trunc(qmax)
    stride = max(b for _a, b in POSITIVE_ROOTS) * qmax + 1
    layers: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(qmax)]
    for a, b in POSITIVE_ROOTS:
        shift = a * stride + b
        for m in range(1, qmax + 1):
            for q in range(m, qmax + 1):
                dst = layers[q]
                get = dst.get
                for key, c in layers[q - m].items():
                    key += shift
                    dst[key] = get(key, 0) + c
    return _built(
        qmax,
        {(q, *divmod(key, stride)): c for q, layer in enumerate(layers) for key, c in layer.items()},
    )


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
    generator order over running states {key: count}, where the int
    (q * rows + u) * stride + v stands for q^q y1^u y2^v: a multiset of
    energy q has at most q factors, so u <= max(a) q < rows and
    v <= max(b) q < stride.  A state at q meets every (e, n) with
    q + e <= qmax, and n factors of root (a, b) add e to q and (n*a, n*b)
    to the color degrees, one shift of the key made once per root and
    table entry.  Plain integer counting, no series arithmetic; one series
    is built at the end.
    """
    validate_trunc(qmax)
    table = _partition_table(qmax)
    rows = max(a for a, _b in POSITIVE_ROOTS) * qmax + 1
    stride = max(b for _a, b in POSITIVE_ROOTS) * qmax + 1
    block = rows * stride
    states: dict[int, int] = {0: 1}
    for a, b in POSITIVE_ROOTS:
        steps = [(e, (e * rows + n * a) * stride + n * b, k) for (e, n), k in table.items()]
        folded: dict[int, int] = {}
        get = folded.get
        for key, c in states.items():
            room = qmax - key // block
            for e, shift, k in steps:
                if e > room:
                    break
                dst = key + shift
                folded[dst] = get(dst, 0) + c * k
        states = folded
    terms = {}
    for key, c in states.items():
        q, rest = divmod(key, block)
        terms[q, rest // stride, rest % stride] = c
    return _built(qmax, terms)
