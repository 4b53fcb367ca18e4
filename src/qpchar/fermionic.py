"""The character as a fermionic sum over dual charge counts.

Both graded characters computed by this package have the shape

    sum over pairs of weakly decreasing count sequences (r1, r2) of

        q^(sum_s r1^(s)^2 + sum_t r2^(t)^2
           - sum_s r1^(s) (r2^(3s-2) + r2^(3s-1) + r2^(3s)))
        / prod_t (q)_{r1^(t) - r1^(t+1)} / prod_t (q)_{r2^(t) - r2^(t+1)}
        * y1^(sum r1) * y2^(sum r2)

where (q)_r = (1-q)(1-q^2)...(1-q^r) and the last difference in each product
is taken against zero.  For the level-k standard module the sequence lengths
are capped at k (color 1) and 3k (color 2) -- equivalently, quasi-particle
charges are capped at k and 3k.  The generalized Verma module has no caps.

The sum is evaluated block by block, never listing the index set.  Block s
pairs the color-1 count a = r1^(s) with the color-2 counts
x >= y >= z = r2^(3s-2), r2^(3s-1), r2^(3s) (zero past the end of either
sequence).  Its share of the exponent, a^2 + x^2 + y^2 + z^2 - a(x+y+z), and
every Pochhammer difference involve only the block and its predecessor's
a and z, so the whole sum is a recursion that appends one nonzero block at a
time.  A pair (r1, r2) has at most k blocks iff len(r1) <= k and
len(r2) <= 3k, so the level-k caps become "at most k blocks".
"""

from bisect import bisect
from dataclasses import dataclass
from functools import cache
from math import isqrt

from .series import TruncatedSeries, _from_packed, _pack, _slot_width, validate_trunc


@dataclass(frozen=True)
class ModuleSpec:
    """Selects which vacuum module's principal subspace is graded.

    ModuleSpec(k), k >= 1, selects the level-k standard module; ModuleSpec()
    (level None) selects the generalized Verma module (no charge caps).
    """

    level: int | None = None

    def __post_init__(self):
        if self.level is None:
            return
        if not isinstance(self.level, int) or isinstance(self.level, bool):
            raise TypeError(f"level must be an int or None, got {self.level!r}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")

    @property
    def color1_cap(self) -> int | None:
        """Max charge of a color-1 quasi-particle; also the max length of the
        dual count sequence r1.  None means unbounded."""
        return self.level

    @property
    def color2_cap(self) -> int | None:
        """Max charge of a color-2 quasi-particle (three times the level);
        also the max length of r2.  None means unbounded."""
        return None if self.level is None else 3 * self.level

    def describe(self) -> str:
        if self.level is None:
            return "generalized Verma module"
        return f"level-{self.level} standard module"


def validate_spec(spec) -> None:
    """Raise TypeError unless `spec` is a `ModuleSpec`."""
    if not isinstance(spec, ModuleSpec):
        raise TypeError(f"spec must be a ModuleSpec, got {spec!r}")


def _blocks(qmax: int) -> list[tuple[int, int, int, int, int]]:
    """Every nonzero block (e, a, x, y, z), with color-1 count a, color-2
    counts x >= y >= z and exponent share
    e = a^2 + x^2 + y^2 + z^2 - a(x+y+z) <= qmax, sorted.

    The share is a^2/4 + (x - a/2)^2 + (y - a/2)^2 + (z - a/2)^2, so it is
    at least a^2/4 and at least (x - a/2)^2: every such block has
    a <= 2 sqrt(qmax) and x <= a/2 + sqrt(qmax), inside the box filtered.
    """
    blocks = []
    for a in range(isqrt(4 * qmax) + 1):
        for x in range(a // 2 + isqrt(qmax) + 2):
            for y in range(x + 1):
                for z in range(y + 1):
                    e = a * a + x * x + y * y + z * z - a * (x + y + z)
                    if e <= qmax and (a or x):
                        blocks.append((e, a, x, y, z))
    return sorted(blocks)


def _move_blocks(blocks, a: int, z: int, high: int) -> list[tuple[int, int, int, int, int]]:
    """The blocks (e, a', x, y, z') of `blocks` with share e <= high that a
    step may append to a state whose last block has color-1 count a and
    last color-2 count z: those with a' <= a and x <= z, in the order of
    `blocks`."""
    return [b for b in blocks[:bisect(blocks, (high + 1,))] if b[1] <= a and b[2] <= z]


def character_fermionic(spec: ModuleSpec, qmax: int) -> TruncatedSeries:
    """Evaluate the fermionic character sum, truncated at q^qmax.

    A state is (a, z, y1 degree u, y2 degree v, blocks left) after one or
    more nonzero blocks: a and z are the last block's color-1 count and
    last color-2 count, and blocks left is k less the blocks so far at
    level k (0 throughout without a cap).  It holds the
    q-series of the sum over every block sequence reaching it, with the
    Pochhammer factors of the differences inside that sequence.  A step
    appends a block (a', x, y, z') with a' <= a and x <= z, multiplying by
    q^(its exponent share) and by 1/(q)_d for the new differences
    a - a', z - x, x - y, y - z'.  Closing a state multiplies by
    1/(q)_a (q)_z, the last differences taken against zero, and adds it to
    the total of its (y1, y2) degree.  The first block of a sequence has no
    block before it, so each one is seeded straight into its state with
    q^e / (q)_{x-y} (q)_{y-z} alone; the empty sequence is the constant
    term 1, the total of degree (0, 0).

    Every nonzero block raises y1 + y2, so taking states in increasing
    y1 + y2 closes each one after everything that feeds it.  The factors
    1/(q)_d for d <= qmax are expanded once, by one list sweep in which
    c[j] += c[j-d] takes 1/(q)_{d-1} to 1/(q)_d.  A difference d > qmax
    reads 1/(q)_qmax, which agrees with 1/(q)_d through q^qmax.  Each
    product prod_d 1/(q)_d is multiplied out of that table the first time
    its differences occur and looked up by them after that.

    The states are held in layers by y1 + y2 degree n, so a state's y2
    degree is n - u.  Within its layer a state is keyed by one int,
    (u L + left) P + pair, with L = k + 1 at level k (1 without a cap),
    pair = a Z + z for Z one more than the largest x of a block, and
    P = Z (1 + the largest a of a block).  L and P bound their fields by
    construction and u is the top field, so the fields never carry into
    each other.  Once a layer is processed, its place in the list holds
    the layer's totals, keyed by u.  Every state lies on a path of total
    share <= qmax, and a block of share e climbs a + x + y + z layers, so
    a path climbs at most qmax times the steepest climb per share: the
    list runs through that many layers, read from the blocks.  A longer
    climb would index past the list and raise, not merge keys.

    Each last-counts pair (a, z) has its own move list: the blocks a step
    from it may append (`_move_blocks`), sorted by share, each with its
    share e, its layer step a' + x + y + z, its key delta
    (a' L - 1) P + a' Z + z' (without the - 1 uncapped), and
    its factor q^e prod_d 1/(q)_d, already shifted and masked, so a step
    adds the delta to the key less its pair.  A state stops at the first
    move over qmax less its lowest power.  A pair's list is made once, at
    the first step from the pair, and holds the moves of share
    e <= qmax - least, where least is the share of the cheapest block
    ending in (a, z).
    That is every move a state of the pair may take: each move's factor is
    q^e times a series with constant term 1 and no negative coefficient,
    so a state's lowest power is the smallest sum of shares over the block
    sequences reaching it, and each such sum is at least its last block's
    share, so at least `least`.  A pair no state steps from gets no list:
    at level 1 no state steps, so no list is made.  From level 2 on, each
    pair of a block is reached by a first-block state that may still step.

    States, totals, the factors and their products are held in the packed
    form of `series` (`_pack`), `_slot_width(qmax)` bits per power of q,
    and the totals are turned into the series once (`_from_packed`).  A
    step is then one multiply and a mask to the truncation, and the lowest
    power a state holds is its lowest set bit.  The multiplies start at
    that power m: with low = coeffs >> m * width, the state shifted down
    to its lowest slot, and rmasks[m] = mask >> m * width, the integer
    identity

        coeffs * f & mask == (low * f & rmasks[m]) << m * width

    holds for every f >= 0, since coeffs = low << m * width and mask is
    the low width * (qmax + 1) bits.  So the close and each step add the
    right side, and skip the empty low slots of the state in the multiply
    and the mask; no slot argument below changes.  Masking a move's factor
    drops only its terms past q^qmax, which reach no slot through q^qmax
    of a product.  The packing is exact because no slot through q^qmax can
    reach 2^width, and every count is >= 0, so such a slot holds its true
    value:
    * a product prod_d 1/(q)_d, finished or partial, has at most four
      factors, so its coefficients are at most those of
      prod_{m>=1} (1-q^m)^-4, below those of the six-root product;
    * a step's coefficient at q^j is part of its target state's, since a
      state only sums non-negative series.  Closing a state multiplies it
      by a series with constant term 1 and non-negative coefficients and
      adds it to its total, so the state's coefficient at q^j is at most
      the total's: the character's coefficient at q^j and the state's
      (y1, y2) degree;
    * `_coefficient_bound(qmax)` bounds every character coefficient
      through q^qmax.
    """
    validate_spec(spec)
    validate_trunc(qmax)
    width = _slot_width(qmax)
    mask = (1 << width * (qmax + 1)) - 1
    # rmasks[m] keeps the slots through q^(qmax - m)
    rmasks = [mask >> m * width for m in range(qmax + 1)]
    # inv[d] is 1/(q)_d through q^qmax, packed
    coeffs = [1] + [0] * qmax
    inv = [1]
    for d in range(1, qmax + 1):
        for j in range(d, qmax + 1):
            coeffs[j] += coeffs[j - d]
        inv.append(_pack(coeffs, width))

    @cache
    def product(diffs: tuple[int, ...]) -> int:
        # prod_d 1/(q)_d through q^qmax, packed
        poch = 1
        for d in diffs:
            poch = poch * inv[min(d, qmax)] & mask
        return poch

    blocks = _blocks(qmax)
    # a state's key in its layer is (u * L + left) * P + pair, pair = a * Z + z
    Z = 1 + max((x for _e, _a, x, _y, _z in blocks), default=0)
    P = Z * (1 + max((a for _e, a, _x, _y, _z in blocks), default=0))
    capped = spec.level is not None
    L = spec.level + 1 if capped else 1
    # the share of the cheapest block ending in each pair, the first in `blocks`
    least = {a * Z + z: e for e, a, _x, _y, z in reversed(blocks)}
    # by pair: the closing factor 1/(q)_a (q)_z, and the moves (e, layer step,
    # key delta, factor) sorted by share, None before the first step from it
    closes = [product(divmod(pair, Z)) for pair in range(P)]
    moves: list[list | None] = [None] * P
    # states by y1 + y2 degree, through the steepest climb a path of total
    # share <= qmax can make
    layers = [{} for _ in range(1 + max((qmax * (a + x + y + z) // e for e, a, x, y, z in blocks), default=0))]
    # the first blocks: u = a, k - 1 blocks left at level k (0 uncapped), and
    # no block before, so only the differences x - y and y - z
    for e, a, x, y, z in blocks:
        target = layers[a + x + y + z]
        key = (a * L + L - 1 - capped) * P + a * Z + z
        target[key] = target.get(key, 0) + (product((x - y, y - z)) << e * width & mask)
    for n in range(len(layers)):
        layer = layers[n]
        totals = layers[n] = {}
        for key, coeffs in layer.items():
            pair = key % P
            base = key - pair
            u, left = divmod(base // P, L)
            # multiply from the state's lowest slot m up: see the docstring
            m = ((coeffs & -coeffs).bit_length() - 1) // width
            low, rmask, shift = coeffs >> m * width, rmasks[m], m * width
            totals[u] = totals.get(u, 0) + ((low * closes[pair] & rmask) << shift)
            if capped and not left:
                continue
            steps = moves[pair]
            if steps is None:
                a, pz = divmod(pair, Z)
                steps = moves[pair] = []
                for e, a2, x, y, z in _move_blocks(blocks, a, pz, qmax - least[pair]):
                    delta = (a2 * L - capped) * P + a2 * Z + z
                    steps.append((e, a2 + x + y + z, delta, product((a - a2, pz - x, x - y, y - z)) << e * width & mask))
            cap = qmax - m
            for e, step, delta, factor in steps:
                if e > cap:
                    break
                target = layers[n + step]
                nkey = base + delta
                target[nkey] = target.get(nkey, 0) + ((low * factor & rmask) << shift)
    # the empty sequence: the constant term
    layers[0] = {0: 1}
    return _from_packed(qmax, width, {(u, n - u): t for n, totals in enumerate(layers) for u, t in totals.items()})
