"""Exact truncated power series in the energy variable q and two color
variables y1, y2.

Every character computed by this package is a value of this type.
Coefficients are plain Python integers, so arithmetic is exact at any size;
no floating point is used anywhere.  A series carries a uniform truncation
order ``trunc``: the coefficient of q^m is tracked exactly for m <= trunc
and discarded beyond that.  Comparing two series with `first_mismatch`
requires equal truncations; a mismatch is always a caller bug and raises
instead of being silently reconciled.

Terms are keyed by plain (q_deg, y1_deg, y2_deg) triples of ints; the
constructor checks each key and stores it as given.  Zero coefficients are
never stored, and `terms` is a read-only view, so structural equality of
the term maps is semantic equality of the truncated series.
"""

from collections.abc import Mapping
from types import MappingProxyType


class SeriesError(ValueError):
    """Contract violation in series arithmetic."""


class TruncationMismatch(SeriesError):
    """Two series with different truncation orders were compared."""


class OutOfTruncation(SeriesError):
    """The requested q-degree is beyond the truncation: unknown, not zero."""


def validate_trunc(trunc) -> None:
    """Raise unless `trunc` is a truncation order: an int (not a bool) >= 0."""
    if not isinstance(trunc, int) or isinstance(trunc, bool):
        raise TypeError(f"truncation order must be an int, got {trunc!r}")
    if trunc < 0:
        raise ValueError(f"truncation order must be >= 0, got {trunc}")


def _check_keys(keys, trunc: int) -> None:
    """Raise, naming the key, ValueError for a key of other than three
    entries or with a negative exponent, TypeError for one that is not
    iterable or has entries other than ints (bools refused), and
    OutOfTruncation for a q-degree beyond `trunc`."""
    for key in keys:
        try:
            q, u, v = key
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"key {key!r} is not a triple (q, y1, y2)") from None
        if type(q) is not int or type(u) is not int or type(v) is not int:
            raise TypeError(f"exponents in key {key!r} must be ints")
        if q < 0 or u < 0 or v < 0:
            raise ValueError(f"negative exponent in key {key!r}")
        if q > trunc:
            raise OutOfTruncation(f"key {key!r} has q_deg beyond truncation {trunc}")


class TruncatedSeries:
    """Sparse integer series truncated at q^trunc.

    Instances are immutable after construction and safe to share: `terms`
    is a read-only view of the nonzero terms.  Pickling and copying
    rebuild a series through the constructor.  `terms` is a mapping or
    None; anything else raises TypeError.  Keys are triples of ints >= 0
    and coefficients are ints; bools are refused for both.
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms: Mapping[tuple[int, int, int], int] | None = None):
        validate_trunc(trunc)
        if terms is not None and not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a mapping, got {type(terms).__name__}")
        clean: dict[tuple[int, int, int], int] = {}
        if terms:
            _check_keys(terms, trunc)
            for key, c in terms.items():
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficient {c!r} is not an exact integer")
                if c:
                    clean[key] = c
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, since the
        # default slot restore would go through __setattr__
        return TruncatedSeries, (self.trunc, dict(self.terms))

    def coeff(self, key: tuple[int, int, int]) -> int:
        """Coefficient at `key`, 0 if absent.  The key is checked as the
        constructor checks keys: OutOfTruncation when the q-degree exceeds
        the truncation order (the value is unknown there), ValueError when
        it has other than three entries or one below 0, and TypeError when
        it is not iterable or an entry is not an int; each names the key."""
        _check_keys((key,), self.trunc)
        return self.terms.get(key, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def first_mismatch(self, other: "TruncatedSeries") -> tuple[tuple[int, int, int], int, int] | None:
        """The lexicographically first key where the two series differ, with
        this series' and the other's coefficient there; None if equal."""
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.trunc != other.trunc:
            raise TruncationMismatch(f"truncation orders differ: {self.trunc} != {other.trunc}")
        if self.terms == other.terms:
            return None
        for key in sorted(self.terms.keys() | other.terms.keys()):
            ca, cb = self.terms.get(key, 0), other.terms.get(key, 0)
            if ca != cb:
                return key, ca, cb

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], int]]:
        """Terms sorted lexicographically by (q_deg, y1_deg, y2_deg); this is
        the canonical serialization order."""
        return sorted(self.terms.items())

    def counts_by_q(self) -> list[int]:
        """Specialize y1 = y2 = 1: entry m is the total coefficient at q^m."""
        out = [0] * (self.trunc + 1)
        for (q, _u, _v), c in self.terms.items():
            out[q] += c
        return out

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"TruncatedSeries(trunc={self.trunc}, {len(self.terms)} terms)"
