"""Acceptance suite: every criterion is an exact integer identity (tolerance
zero).  Each test prints one PASS line with its runtime; run with ``pytest -s``
to see them live.
"""

import time

from qpchar.cli import verify_conjugation
from qpchar.fermionic import ModuleSpec, character_fermionic
from qpchar.pbw_oracle import pbw_enumerated, product_side
from qpchar.qp_enum import enumerate_basis

V = ModuleSpec()


class _Clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _ok(num: int, msg: str, clock: _Clock) -> None:
    print(f"[PASS] criterion {num} ({clock.elapsed:.2f}s): {msg}")


def test_criterion_1_euler_cauchy_identity():
    with _Clock() as c:
        prod = product_side(12)
        ferm = character_fermionic(V, 12)
        assert prod == ferm
    _ok(1, f"six-root product == cap-free fermionic sum at qmax=12 "
           f"({len(prod)} coefficients)", c)


def test_criterion_2_pbw_oracle():
    with _Clock() as c:
        assert pbw_enumerated(8) == product_side(8)
    _ok(2, "PBW multiset enumeration == product at qmax=8", c)


def test_criterion_3_standard_module_basis():
    with _Clock() as c:
        for k, qmax in ((1, 10), (2, 8), (3, 6)):
            spec = ModuleSpec(k)
            assert enumerate_basis(spec, qmax) == character_fermionic(spec, qmax), \
                f"level {k}, qmax {qmax}"
    _ok(3, "quasi-particle enumeration == fermionic sum at "
           "(level, qmax) = (1,10), (2,8), (3,6)", c)


def test_criterion_4_verma_basis():
    with _Clock() as c:
        basis = enumerate_basis(V, 8)
        ferm = character_fermionic(V, 8)
        prod = product_side(8)
        assert basis == ferm == prod
    _ok(4, "cap-free enumeration == fermionic sum == product at qmax=8", c)


def test_criterion_5_exponent_conversions():
    with _Clock() as c:
        code, report = verify_conjugation(12)
        assert code == 0, report
        assert report == "conjugation: ok (qmax=12, 272 partitions, 3132 pairs)"
    _ok(5, "conjugation energy identities on every partition of size <= 12 "
           "and every pair of total size <= 12", c)


def test_criterion_6_stabilization():
    with _Clock() as c:
        verma = character_fermionic(V, 8)
        assert character_fermionic(ModuleSpec(8), 8) == verma
        level1 = character_fermionic(ModuleSpec(1), 8)
        mismatch = level1.first_mismatch(verma)
        assert mismatch is not None
        key, c1, cv = mismatch
        assert key[0] <= 2
        # the first divergence: q^2 y1 y2^4 needs four color-2 quasi-particles
        # of charge 1, which the level-1 cap of three forbids
        assert mismatch == ((2, 1, 4), 0, 1)
        # at q^1 the two characters still agree, including the coefficient 1
        # at y1^2 y2^3 carried by the highest-root vector at every level
        assert level1.coeff((1, 2, 3)) == verma.coeff((1, 2, 3)) == 1
    _ok(6, "level-8 == cap-free at qmax=8; level-1 first differs at "
           "q^2 y1 y2^4 (0 vs 1)", c)


def test_criterion_7_monotonicity():
    with _Clock() as c:
        chain = [character_fermionic(ModuleSpec(k), 6) for k in (1, 2, 3)]
        chain.append(character_fermionic(V, 6))
        for lo, hi in zip(chain, chain[1:]):
            assert all(v <= hi.terms.get(k, 0) for k, v in lo.terms.items())
    _ok(7, "coefficientwise level-1 <= level-2 <= level-3 <= cap-free at qmax=6", c)


def test_criterion_8_spot_values():
    with _Clock() as c:
        s1 = ModuleSpec(1)
        for series in (character_fermionic(s1, 2), enumerate_basis(s1, 2)):
            assert series.coeff((1, 1, 1)) == 1
            assert series.coeff((2, 0, 2)) == 1
        for series in (
            character_fermionic(V, 2),
            enumerate_basis(V, 2),
            product_side(2),
            pbw_enumerated(2),
        ):
            assert series.coeff((1, 2, 3)) == 1
            assert series.coeff((2, 1, 1)) == 2
    _ok(8, "four spot values reproduced by every applicable method", c)
