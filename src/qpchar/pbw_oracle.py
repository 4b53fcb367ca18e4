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
directly, never touching series arithmetic, so the two agree only if both
are right.
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


def pbw_enumerated(qmax: int) -> TruncatedSeries:
    """Count multisets of (root, negative mode) pairs with total energy
    <= qmax by direct recursive enumeration.

    Roots are processed in generator order; for each root the energies of
    its factors form a partition of part of the remaining budget, generated
    with weakly decreasing parts so each multiset appears once.
    """
    validate_trunc(qmax)
    terms: dict[tuple[int, int, int], int] = {}

    def next_root(i: int, budget: int, q: int, u: int, v: int) -> None:
        if i == len(POSITIVE_ROOTS):
            key = (q, u, v)
            terms[key] = terms.get(key, 0) + 1
            return
        root = POSITIVE_ROOTS[i]

        def grow(top: int, left: int, q2: int, u2: int, v2: int) -> None:
            next_root(i + 1, left, q2, u2, v2)
            for part in range(1, min(top, left) + 1):
                grow(part, left - part, q2 + part, u2 + root.y1, v2 + root.y2)

        grow(budget, budget, q, u, v)

    next_root(0, qmax, 0, 0, 0)
    return TruncatedSeries(qmax, terms)
