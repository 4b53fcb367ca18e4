"""The character as a fermionic sum over dual charge counts.

Both graded characters computed by this package have the shape

    sum over pairs of weakly decreasing count sequences (r1, r2) of

        q^total_exponent(r1, r2)
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

`enumerate_dual_charge_types` lists the index set explicitly; the
per-monomial quasi-particle walk (`iter_basis_monomials`) builds on it, the
fermionic sum and the basis count do not.
"""

from dataclasses import dataclass

from .partitions import DualChargeType
from .series import TruncatedSeries, validate_trunc


@dataclass(frozen=True)
class ModuleSpec:
    """Selects which vacuum module's principal subspace is graded.

    level k >= 1 selects the level-k standard module; level None selects the
    generalized Verma module (no charge caps).
    """

    level: int | None = None

    def __post_init__(self):
        if self.level is None:
            return
        if not isinstance(self.level, int) or isinstance(self.level, bool):
            raise TypeError(f"level must be an int or None, got {self.level!r}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")

    @classmethod
    def standard(cls, k: int) -> "ModuleSpec":
        return cls(level=k)

    @classmethod
    def verma(cls) -> "ModuleSpec":
        return cls(level=None)

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


def _min_block(a: int) -> int:
    # minimal exponent contribution of a block with color-1 count a, i.e.
    # min over integers x,y,z >= 0 of a^2 + x^2 + y^2 + z^2 - a(x+y+z)
    return (a * a + 3) // 4


def enumerate_dual_charge_types(spec: ModuleSpec, qmax: int) -> list[DualChargeType]:
    """All pairs (r1, r2) with total_exponent <= qmax under the spec's caps.

    The search is recursive descent, first over r1 entries then over r2
    entries, both weakly decreasing.  Pruning is by exact lower bounds on the
    exponent of any completion:

    * an r1 prefix with entries a_s can always be completed at cost exactly
      sum_s ceil(a_s^2/4) (take each color-2 block entry as close to a_s/2 as
      integers allow; the choices are weakly decreasing because the a_s are),
      so prefixes are extended iff that floor stays within budget;
    * an r2 prefix is extended with entry x at flattened position j only if
      the accumulated exponent plus sum over remaining positions of
      min_{0 <= x' <= x} (x'^2 - a x') still fits.  Those per-position minima
      are <= 0, so the bound is valid, and positions past the last r1 block
      contribute x'^2 >= 0, so the recursion terminates.

    Every emitted pair is checked against the budget before inclusion, hence
    the returned set is exactly the stated one, without duplicates.
    """
    validate_spec(spec)
    validate_trunc(qmax)
    cap1 = spec.color1_cap
    cap2 = spec.color2_cap
    out: list[DualChargeType] = []

    def descend_r2(r1: tuple[int, ...]) -> None:
        a = r1
        nblocks = len(a)
        total_a2 = sum(x * x for x in a)
        a_head = a[0] if a else 1

        def block_charge(j: int) -> int:
            s = (j + 2) // 3  # 1-based position j sits in block ceil(j/3)
            return a[s - 1] if s <= nblocks else 0

        def suffix_floor(j: int, cap: int) -> int:
            # minimal possible sum of x^2 - a*x over positions j..3*nblocks,
            # each entry capped at `cap`; entries past 3*nblocks add >= 0
            tot = 0
            for jj in range(j, 3 * nblocks + 1):
                aa = block_charge(jj)
                t = min(cap, aa // 2)
                tot += t * t - aa * t
            return tot

        xs: list[int] = []

        def rec(j: int, cap: int | None, acc: int) -> None:
            if total_a2 + acc <= qmax:
                out.append(DualChargeType(a, tuple(xs)))
            if cap2 is not None and j > cap2:
                return
            aa = block_charge(j)
            x = 1
            while cap is None or x <= cap:
                acc2 = acc + x * x - aa * x
                if total_a2 + acc2 + suffix_floor(j + 1, x) <= qmax:
                    xs.append(x)
                    rec(j + 1, x, acc2)
                    xs.pop()
                elif cap is None and x >= a_head:
                    # past every parabola vertex: larger x only costs more
                    break
                x += 1

        rec(1, None, 0)

    prefix: list[int] = []

    def descend_r1(cost: int) -> None:
        descend_r2(tuple(prefix))
        if cap1 is not None and len(prefix) >= cap1:
            return
        top = prefix[-1] if prefix else None
        val = 1
        while top is None or val <= top:
            c = cost + _min_block(val)
            if c > qmax:
                break  # the block floor grows with the entry
            prefix.append(val)
            descend_r1(c)
            prefix.pop()
            val += 1

    descend_r1(0)
    return out


def _next_blocks(a: int | None, pz: int | None, budget: int):
    """Yield (a2, x, y, z, e) for every nonzero block that may follow a block
    with color-1 count a and last color-2 count pz (both None before the
    first block: no bound), where e = a2^2 + x^2 + y^2 + z^2 - a2(x+y+z) is
    the block's exponent share and e <= budget.

    With f(t) = t^2 - a2*t the share is a2^2 + f(x) + f(y) + f(z).  f falls
    to its minimum at t = a2 // 2 and rises after it, so the entries still
    to choose, each at most the last one chosen, cost at least f at the
    smaller of that entry and a2 // 2.  Every prefix is pruned with that
    bound, which also ends the unbounded loops.
    """
    a2 = 0
    while a is None or a2 <= a:
        h = a2 // 2
        fh = h * h - a2 * h
        room = budget - a2 * a2  # what f(x) + f(y) + f(z) may add up to
        if 3 * fh > room:
            break  # the cheapest block, ceil(a2^2 / 4), grows with a2
        x = 0 if a2 else 1
        while pz is None or x <= pz:
            fx = x * x - a2 * x
            t = min(x, h)
            if fx + 2 * (t * t - a2 * t) > room:
                if x >= h:
                    break
                x += 1
                continue
            for y in range(x + 1):
                fy = y * y - a2 * y
                t = min(y, h)
                if fx + fy + t * t - a2 * t > room:
                    continue
                for z in range(y + 1):
                    e = a2 * a2 + fx + fy + z * z - a2 * z
                    if e <= budget:
                        yield a2, x, y, z, e
            x += 1
        a2 += 1


def character_fermionic(spec: ModuleSpec, qmax: int) -> TruncatedSeries:
    """Evaluate the fermionic character sum, truncated at q^qmax.

    A state is (a, z, y1 degree, y2 degree, blocks left) after one or more
    nonzero blocks: a and z are the last block's color-1 count and last
    color-2 count, and blocks left is None without a cap.  It holds the
    q-coefficient list of the sum over every block sequence reaching it,
    with the Pochhammer factors of the differences inside that sequence.  A
    step appends a block (a', x, y, z') with a' <= a and x <= z, multiplying
    by q^(its exponent share) and by 1/(q)_d for the new differences
    a - a', z - x, x - y, y - z'.  Closing a state multiplies by
    1/(q)_a (q)_z, the last differences taken against zero.

    Every nonzero block raises y1 + y2, so taking states in increasing
    y1 + y2 closes each one after everything that feeds it.  Each product
    prod_d 1/(q)_d is expanded once per sorted multiset of differences, by
    the in-place geometric pass: one sweep c[j] += c[j-i] per factor
    1/(1-q^i).
    """
    validate_spec(spec)
    validate_trunc(qmax)
    cache: dict[tuple[int, ...], list[int]] = {}

    def add_product(dst: list[int], src: list[int], lo: int, shift: int,
                    diffs: tuple[int, ...]) -> None:
        # dst += q^shift * src * prod_d 1/(q)_d through q^qmax; src[:lo] is 0
        key = tuple(sorted(d for d in diffs if d))
        poch = cache.get(key)
        if poch is None:
            poch = [1] + [0] * qmax
            for d in key:
                for i in range(1, d + 1):
                    for j in range(i, qmax + 1):
                        poch[j] += poch[j - i]
            cache[key] = poch
        top = qmax - shift
        for j in range(lo, top + 1):
            c = src[j]
            if c:
                base = j + shift
                for i in range(top - j + 1):
                    dst[base + i] += c * poch[i]

    # states keyed by y1 + y2 degree; the start state has no block yet
    layers = {0: {(None, None, 0, 0, spec.level): [1] + [0] * qmax}}
    totals: dict[tuple[int, int], list[int]] = {}
    while layers:
        for (a, pz, u, v, left), coeffs in layers.pop(min(layers)).items():
            lo = next(j for j, c in enumerate(coeffs) if c)
            total = totals.setdefault((u, v), [0] * (qmax + 1))
            add_product(total, coeffs, lo, 0, () if a is None else (a, pz))
            if left == 0:
                continue
            nleft = None if left is None else left - 1
            for a2, x, y, z, e in _next_blocks(a, pz, qmax - lo):
                if a is None:
                    diffs = (x - y, y - z)
                else:
                    diffs = (a - a2, pz - x, x - y, y - z)
                nu, nv = u + a2, v + x + y + z
                layer = layers.setdefault(nu + nv, {})
                key = (a2, z, nu, nv, nleft)
                dst = layer.get(key)
                if dst is None:
                    dst = layer[key] = [0] * (qmax + 1)
                add_product(dst, coeffs, lo, e, diffs)
    terms = {
        (q, u, v): c
        for (u, v), total in totals.items()
        for q, c in enumerate(total)
        if c
    }
    return TruncatedSeries(qmax, terms)
