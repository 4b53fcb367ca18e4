"""Exact truncated power series in the energy variable q and two color
variables y1, y2.

Every character computed by this package is a value of this type.
Coefficients are plain Python integers, so arithmetic is exact at any size;
no floating point is used anywhere.  A series carries a uniform truncation
order ``trunc``: the coefficient of q^m is tracked exactly for m <= trunc
and discarded beyond that.  Combining two series therefore requires equal
truncations; a mismatch is always a caller bug and raises instead of being
silently reconciled.

Zero coefficients are never stored, so structural equality of the term maps
is semantic equality of the truncated series.

`divide_geometric` works instead on a mutable form, one {(y1_deg, y2_deg):
coeff} dict per q-degree, so a long chain of divisions builds a single
`TruncatedSeries` at the end.
"""

from typing import Iterator, Mapping, NamedTuple


class SeriesError(ValueError):
    """Contract violation in series arithmetic."""


class TruncationMismatch(SeriesError):
    """Binary operation applied to series with different truncation orders."""


class NonPositiveExponent(SeriesError):
    """A geometric factor with q-step < 1 would not truncate to a polynomial."""


class OutOfTruncation(SeriesError):
    """The requested q-degree is beyond the truncation: unknown, not zero."""


class SeriesKey(NamedTuple):
    """Exponent triple (q_deg, y1_deg, y2_deg) of one term."""

    q_deg: int
    y1_deg: int
    y2_deg: int


KeyLike = SeriesKey | tuple[int, int, int]


def validate_trunc(trunc) -> None:
    """Raise unless `trunc` is a truncation order: an int (not a bool) >= 0."""
    if not isinstance(trunc, int) or isinstance(trunc, bool):
        raise TypeError(f"truncation order must be an int, got {trunc!r}")
    if trunc < 0:
        raise ValueError(f"truncation order must be >= 0, got {trunc}")


class TruncatedSeries:
    """Sparse integer series truncated at q^trunc.

    Instances are immutable after construction and safe to share; all
    operations return new series.
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms: Mapping[KeyLike, int] | None = None):
        validate_trunc(trunc)
        clean: dict[SeriesKey, int] = {}
        if terms:
            for key, c in terms.items():
                q, u, v = key
                if q < 0 or u < 0 or v < 0:
                    raise ValueError(f"negative exponent in key {key!r}")
                if q > trunc:
                    raise OutOfTruncation(
                        f"key {key!r} has q_deg beyond truncation {trunc}"
                    )
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an exact integer")
                if c:
                    clean[SeriesKey(q, u, v)] = c
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def coeff(self, key: KeyLike) -> int:
        """Coefficient at `key`, 0 if absent.  Raises OutOfTruncation when the
        q-degree exceeds the truncation order (the value is unknown there)."""
        q = key[0]
        if q > self.trunc:
            raise OutOfTruncation(f"q^{q} is beyond truncation {self.trunc}")
        return self.terms.get(SeriesKey(*key), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return TruncatedSeries(self.trunc, merged)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        trunc = self.trunc
        # iterate the smaller factor in the outer loop
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, int, int], int] = {}
        for (q1, u1, v1), c1 in a.items():
            for (q2, u2, v2), c2 in b.items():
                q = q1 + q2
                if q > trunc:
                    continue
                key = (q, u1 + u2, v1 + v2)
                out[key] = out.get(key, 0) + c1 * c2
        return TruncatedSeries(trunc, out)

    def first_mismatch(self, other: "TruncatedSeries") -> tuple[SeriesKey, int, int] | None:
        """The lexicographically first key where the two series differ, with
        this series' and the other's coefficient there; None if equal."""
        self._check_compatible(other)
        for key in sorted(self.terms.keys() | other.terms.keys()):
            ca, cb = self.terms.get(key, 0), other.terms.get(key, 0)
            if ca != cb:
                return key, ca, cb
        return None

    def _check_compatible(self, other) -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"truncation orders differ: {self.trunc} != {other.trunc}"
            )

    def sorted_terms(self) -> list[tuple[SeriesKey, int]]:
        """Terms sorted lexicographically by (q_deg, y1_deg, y2_deg); this is
        the canonical serialization order."""
        return sorted(self.terms.items())

    def counts_by_q(self) -> list[int]:
        """Specialize y1 = y2 = 1: entry m is the total coefficient at q^m."""
        out = [0] * (self.trunc + 1)
        for (q, _u, _v), c in self.terms.items():
            out[q] += c
        return out

    def __iter__(self) -> Iterator[tuple[SeriesKey, int]]:
        return iter(self.sorted_terms())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"TruncatedSeries(trunc={self.trunc}, {len(self.terms)} terms)"


def divide_geometric(layers: list[dict[tuple[int, int], int]], m: int, a: int, b: int) -> None:
    """Divide, in place, the series held in `layers` by (1 - q^m y1^a y2^b).

    `layers[q]` maps (y1_deg, y2_deg) to the coefficient at q^q, so the
    truncation is len(layers) - 1.  With t = q^m y1^a y2^b, dividing by
    1 - t is the single sweep c[q] += t * c[q - m] in increasing q: each
    layer read has already been divided.  A cancellation may leave a zero
    entry behind; `TruncatedSeries` drops those when built from the layers.
    The exponents must be ints (not bools), as truncation orders must.
    """
    for name, value in (("m", m), ("a", a), ("b", b)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"exponent {name} must be an int, got {value!r}")
    if m < 1:
        raise NonPositiveExponent(f"geometric factor needs q-step >= 1, got {m}")
    if a < 0 or b < 0:
        raise ValueError("color exponents must be non-negative")
    for q in range(m, len(layers)):
        dst = layers[q]
        get = dst.get
        for (u, v), c in layers[q - m].items():
            key = (u + a, v + b)
            dst[key] = get(key, 0) + c
