"""Independent oracle for the no-cap character: the PBW monomial basis over
the six positive roots of G2, computed two unrelated ways.

The positive roots, in the generator enumeration order used throughout, and
their (y1, y2) weights in the simple-root basis:

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
of every energy up to qmax once, as a table {(energy, number of parts):
count}, and folds that table over the six roots.  The count never touches
series arithmetic or `divide_geometric`, so the two agree only if both are
right.
"""

from typing import NamedTuple

from .series import TruncatedSeries, divide_geometric, validate_trunc


class PositiveRoot(NamedTuple):
    name: str
    y1: int
    y2: int


POSITIVE_ROOTS: tuple[PositiveRoot, ...] = (
    PositiveRoot("alpha2", 0, 1),
    PositiveRoot("alpha1", 1, 0),
    PositiveRoot("alpha1+alpha2", 1, 1),
    PositiveRoot("alpha1+2alpha2", 1, 2),
    PositiveRoot("alpha1+3alpha2", 1, 3),
    PositiveRoot("2alpha1+3alpha2", 2, 3),
)


def product_side(qmax: int) -> TruncatedSeries:
    """The six-fold Euler product, one geometric factor per root and q-step,
    each divided out of the q-layers of 1 by one `divide_geometric` sweep."""
    validate_trunc(qmax)
    layers: list[dict[tuple[int, int], int]] = [{(0, 0): 1}] + [{} for _ in range(qmax)]
    for root in POSITIVE_ROOTS:
        for m in range(1, qmax + 1):
            divide_geometric(layers, m, root.y1, root.y2)
    return TruncatedSeries(
        qmax, {(q, u, v): c for q, layer in enumerate(layers) for (u, v), c in layer.items()}
    )


def _partition_table(qmax: int) -> dict[tuple[int, int], int]:
    """{(e, n): number of partitions of e into n parts} for every e <= qmax,
    listed one by one with weakly decreasing parts; keys in increasing e."""
    table: dict[tuple[int, int], int] = {}

    def grow(top: int, left: int, e: int, n: int) -> None:
        table[e, n] = table.get((e, n), 0) + 1
        for part in range(1, min(top, left) + 1):
            grow(part, left - part, e + part, n + 1)

    grow(qmax, qmax, 0, 0)
    return dict(sorted(table.items()))


def pbw_enumerated(qmax: int) -> TruncatedSeries:
    """Count multisets of (root, negative mode) pairs with total energy
    <= qmax.

    The energies of one root's factors form a partition, chosen
    independently of the other roots.  So the count takes the table of
    partitions by (energy e, number of parts n) once, and folds the roots in
    generator order over running {(q, y1_deg, y2_deg): count} states: a
    state at q meets every (e, n) with q + e <= qmax, and n factors of root
    (a, b) add (n*a, n*b) to the color degrees.  Plain integer counting,
    no series arithmetic; one `TruncatedSeries` is built at the end.
    """
    validate_trunc(qmax)
    table = _partition_table(qmax)
    states: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for root in POSITIVE_ROOTS:
        a, b = root.y1, root.y2
        folded: dict[tuple[int, int, int], int] = {}
        get = folded.get
        for (q, u, v), c in states.items():
            for (e, n), k in table.items():
                if q + e > qmax:
                    break
                key = (q + e, u + n * a, v + n * b)
                folded[key] = get(key, 0) + c * k
        states = folded
    return TruncatedSeries(qmax, states)
