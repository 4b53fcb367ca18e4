"""Exact truncated power series in the energy variable q and two color
variables y1, y2.

Every character computed by this package is a value of this type.
Coefficients are plain Python integers, so arithmetic is exact at any size;
no floating point is used anywhere.  A series carries a uniform truncation
order ``trunc``: the coefficient of q^m is tracked exactly for m <= trunc
and discarded beyond that.  Comparing two series with `first_mismatch`
requires equal truncations; a mismatch is always a caller bug and raises
instead of being silently reconciled.

Terms are keyed by plain (q_deg, y1_deg, y2_deg) tuples of three ints.
Zero coefficients are never stored, and `terms` is a read-only view, so
structural equality of the term maps is semantic equality of the truncated
series.

Every series is made by one private function, `_built`, which stores its
terms as given.  The public constructor, which pickling and copying also
go through, checks outside input (each key and coefficient) and then ends
in `_built`.  The four methods end in `_built` too, without that check
(the two packed kernels through `_from_packed`): their keys are int
triples within the truncation and their coefficients nonzero ints by
construction.

The two packed kernels, the fermionic sum and the basis count, hold a
truncated q-coefficient list as one int with a fixed-width slot per power
of q (Kronecker substitution).  That format lives here: `_slot_width` sizes
the slots, `_pack` and `_slots` convert, and `_from_packed` builds a series
from packed totals.  Most of a kernel's packed int is empty low slots, so
`_slots` and `_from_packed` start their walk at the lowest nonzero slot,
found from the lowest set bit, and pass the empty ones with one shift.
"""

from collections.abc import Iterator, Mapping
from operator import itemgetter
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
    """Raise, naming the key, TypeError for a key that is not a tuple or has
    entries other than ints (bools refused), ValueError for one of other
    than three entries or with a negative exponent, and OutOfTruncation for
    a q-degree beyond `trunc`."""
    for key in keys:
        if not isinstance(key, tuple):
            raise TypeError(f"key {key!r} is not a tuple (q, y1, y2)")
        if len(key) != 3:
            raise ValueError(f"key {key!r} is not a triple (q, y1, y2)")
        q, u, v = key
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
    None; anything else raises TypeError.  Keys are tuples of three
    ints >= 0 and coefficients are ints; bools are refused for both.
    Each key is stored as given, and zero coefficients are dropped.
    """

    __slots__ = ("trunc", "terms")

    def __new__(cls, trunc: int, terms: Mapping[tuple[int, int, int], int] | None = None):
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
        return _built(trunc, clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the checking constructor: pickle
        # data is outside input, and the default slot restore would go
        # through __setattr__
        return TruncatedSeries, (self.trunc, dict(self.terms))

    def coeff(self, key: tuple[int, int, int]) -> int:
        """Coefficient at `key`, 0 if absent.  The key is checked as the
        constructor checks keys: OutOfTruncation when the q-degree exceeds
        the truncation order (the value is unknown there), ValueError when
        it has other than three entries or one below 0, and TypeError when
        it is not a tuple or an entry is not an int; each names the key."""
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
        the canonical serialization order.  Keys are unique, so sorting by
        key alone gives the same order without comparing coefficients."""
        return sorted(self.terms.items(), key=itemgetter(0))

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


def _built(trunc: int, terms: dict[tuple[int, int, int], int]) -> TruncatedSeries:
    """The series truncated at q^trunc with these terms, stored as given.

    The one place a series is made.  The caller vouches for what the
    constructor would check: `trunc` an int >= 0, and `terms` a dict of
    nonzero ints keyed by triples of ints >= 0 with q-degree <= trunc.
    """
    series = object.__new__(TruncatedSeries)
    object.__setattr__(series, "trunc", trunc)
    object.__setattr__(series, "terms", MappingProxyType(terms))
    return series


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


def _pack(coeffs, width: int) -> int:
    """The coefficients packed into one int: slot j, bits j * width up to
    (j + 1) * width, holds `coeffs[j]`.  Each must be >= 0 and below
    2^width."""
    return sum(c << j * width for j, c in enumerate(coeffs))


def _slots(packed: int, width: int) -> Iterator[tuple[int, int]]:
    """Yield (j, slot j) for each nonzero `width`-bit slot of `packed`,
    lowest first; `packed` must be >= 0.  The walk starts at the lowest
    nonzero slot, found from the lowest set bit, so the empty slots below
    it cost one shift in all."""
    if not packed:
        return
    slot = (1 << width) - 1
    j = ((packed & -packed).bit_length() - 1) // width
    packed >>= j * width
    while packed:
        c = packed & slot
        if c:
            yield j, c
        packed >>= width
        j += 1


def _from_packed(trunc: int, width: int, totals: Mapping[tuple[int, int], int]) -> TruncatedSeries:
    """The series whose terms at q^j y1^u y2^v are the slots j of
    `totals[u, v]`, each packed at `width` bits a slot.

    The kernels make every key from ints and every stored slot is an
    int > 0, so the series goes to `_built` without the constructor's
    per-key checks.  A total with a bit past slot `trunc` would make a key
    beyond the truncation (a carry that escaped the mask), so it raises
    OutOfTruncation.  Each nonzero total is shifted down to its lowest
    nonzero slot once, found from the lowest set bit, and walked slot by
    slot from there; a zero total stores nothing.
    """
    bits = width * (trunc + 1)
    slot = (1 << width) - 1
    terms: dict[tuple[int, int, int], int] = {}
    for (u, v), total in totals.items():
        if total.bit_length() > bits:
            raise OutOfTruncation(f"packed total at y1^{u} y2^{v} has bits past slot {trunc}")
        if not total:
            continue
        q = ((total & -total).bit_length() - 1) // width
        total >>= q * width
        while total:
            c = total & slot
            if c:
                terms[q, u, v] = c
            total >>= width
            q += 1
    return _built(trunc, terms)
