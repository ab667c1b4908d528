"""Base-field arithmetic, embeddings, gcd, and the fundamental predicate."""

from fractions import Fraction
from math import isqrt

import pytest

from conftest import BASE_TAGS, QM2, QM3, random_int_element

from qfc import (
    NotIntegral,
    Q,
    SquareInput,
    ZeroArgument,
    canonical_associate,
    field,
    gcd_k,
    is_fundamental,
    is_qr_mod4,
    k_sqrt,
    make_extension,
    sqrt_mod4,
)


QS2 = field("q_sqrt2")
QS5 = field("q_sqrt5")
QS13 = field("q_sqrt13")
QI = field("q_i")


class TestArithmetic:
    def test_omega_squares(self):
        assert QS2.omega * QS2.omega == QS2(2)
        assert QI.omega * QI.omega == QI(-1)
        # (1+sqrt5)/2 squared is itself plus one
        assert QS5.omega * QS5.omega == QS5.omega + 1

    def test_division_by_rationalization(self):
        # 1 / (1 + sqrt2) = -1 + sqrt2, by hand
        assert QS2.one / (QS2(1, 1)) == QS2(-1, 1)

    def test_conjugate_sum(self):
        # (1/2 + (1/2)sqrt5) + (1/2 - (1/2)sqrt5) = 1; in the {1, w} basis
        # the two halves are w - (w - 1) hmm: use coordinates directly
        half = Fraction(1, 2)
        x = QS5(0, 1)  # (1+sqrt5)/2
        assert x + x.conj() == QS5(1)

    def test_div_rational(self):
        assert Q(7) / Q(2) == Q(Fraction(7, 2))
        with pytest.raises(ZeroDivisionError):
            Q(1) / Q(0)

    def test_norm_and_conj(self):
        # conj is the nontrivial automorphism of K/Q (identity on Q itself)
        assert Q(3).conj() == Q(3)
        for tag in ("q_i", "q_sqrt2", "q_sqrt5", "q_sqrt13"):
            f = field(tag)
            x = f(3, 2)
            assert x.conj().conj() == x
            prod = x * x.conj()
            assert prod.c1 == 0 and prod.c0 == x.norm()

    def test_pow(self):
        eps = QS2.fundamental_unit
        assert eps**0 == QS2.one
        assert eps**3 == eps * eps * eps
        assert eps**-1 == QS2.one / eps


class TestEmbeddings:
    def test_rational_positive(self):
        assert QS2(1).signs() == (1, 1)

    def test_sqrt2_signs(self):
        # sigma_2(sqrt2) = -sqrt2 < 0
        assert QS2.omega.signs() == (1, -1)

    def test_rational_field(self):
        assert Q(-5).signs() == (-1,)

    def test_zero_raises(self):
        with pytest.raises(ZeroArgument):
            Q(0).signs()

    def test_qi_empty(self):
        assert QI(3, 4).signs() == ()
        assert QI(3, 4).is_totally_positive()

    def test_totally_positive_examples(self):
        # 3 - sqrt5: 9 > 5 so both embeddings positive
        x = QS5(3) - (2 * QS5.omega - 1)  # 3 - sqrt5
        assert x.is_totally_positive()
        assert not QS2.omega.is_totally_positive()
        assert not QS2.zero.is_totally_positive()

    def test_sign_multiplicative(self, rng):
        for tag in ("q", "q_sqrt2", "q_sqrt5", "q_sqrt13"):
            f = field(tag)
            for _ in range(60):
                x = random_int_element(f, rng, 6, nonzero=True)
                y = random_int_element(f, rng, 6, nonzero=True)
                expected = tuple(a * b for a, b in zip(x.signs(), y.signs()))
                assert (x * y).signs() == expected

    def test_exact_sign_near_tie(self):
        # 7/5 - sqrt2 is negative although 7/5 is close to sqrt2
        x = QS2(Fraction(7, 5), -1)
        assert x.sign_at(0) == -1
        y = QS2(Fraction(3, 2), -1)  # 3/2 > sqrt2
        assert y.sign_at(0) == 1


class TestGcd:
    def test_rational(self):
        assert gcd_k(Q(4), Q(6)) == Q(2)
        assert gcd_k(Q(0), Q(-7)) == Q(7)

    def test_sqrt2(self):
        g = gcd_k(QS2(2), QS2.omega)
        # 2 = (sqrt2)^2, so the gcd is sqrt2 up to a unit
        assert (g / QS2.omega).is_unit()

    def test_gaussian(self):
        g = gcd_k(QI(1, 1), QI(2))
        assert (g / QI(1, 1)).is_unit()

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            gcd_k(Q(Fraction(1, 2)), Q(3))

    def test_zero_pair(self):
        with pytest.raises(ZeroArgument):
            gcd_k(Q(0), Q(0))

    def test_divides_and_common_divisors(self, rng):
        for tag in BASE_TAGS:
            f = field(tag)
            for _ in range(40):
                d0 = random_int_element(f, rng, 3, nonzero=True)
                x = d0 * random_int_element(f, rng, 4, nonzero=True)
                y = d0 * random_int_element(f, rng, 4, nonzero=True)
                g = gcd_k(x, y)
                assert (x / g).is_integral() and (y / g).is_integral()
                assert (g / d0).is_integral()

    def test_canonical_associate_idempotent(self, rng):
        for tag in BASE_TAGS:
            f = field(tag)
            units = [f.one, -f.one]
            if f.fundamental_unit is not None:
                units += [f.fundamental_unit, f.one / f.fundamental_unit]
            if f.r == 0:
                units += [f.omega, -f.omega]
            for _ in range(25):
                x = random_int_element(f, rng, 5, nonzero=True)
                base = canonical_associate(x)
                for u in units:
                    assert canonical_associate(x * u) == base


class TestUnits:
    def test_fundamental_unit_norms(self):
        for tag in ("q_sqrt2", "q_sqrt5", "q_sqrt13"):
            f = field(tag)
            eps = f.fundamental_unit
            prod = eps * eps.conj()
            assert prod == f(f.unit_norm_sign)

    def test_unit_with_signs_all_patterns(self):
        for tag in ("q_sqrt2", "q_sqrt5", "q_sqrt13"):
            f = field(tag)
            for pattern in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
                u = f.unit_with_signs(pattern)
                assert u.is_unit() and u.signs() == pattern
        assert Q.unit_with_signs((-1,)) == Q(-1)


class TestResiduesMod4:
    def test_rational_brute_force(self):
        # over Q: d is a QR mod 4 iff d = 0, 1 (mod 4)
        for d in range(-30, 31):
            expected = d % 4 in (0, 1)
            assert is_qr_mod4(Q(d)) == expected

    def test_examples(self):
        assert is_qr_mod4(Q(-23))
        assert is_qr_mod4(Q(-8))
        assert not is_qr_mod4(Q(2))

    def test_gaussian(self):
        # the imaginary part of any square is even, so i is not a residue
        assert not is_qr_mod4(QI(0, 1))
        assert is_qr_mod4(QI(0, 4))

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            is_qr_mod4(Q(Fraction(1, 2)))
        with pytest.raises(NotIntegral):
            sqrt_mod4(QS5(0, Fraction(1, 3)))

    def test_sqrt_mod4_is_the_extension_w(self):
        assert sqrt_mod4(Q(-23)) == Q(1) and sqrt_mod4(Q(-8)) == Q(0)
        assert sqrt_mod4(Q(2)) is None
        for tag, d in (("q_i", (-5, 0)), ("q_sqrt2", (-1, 2)), ("q_sqrt13", (-5, 1))):
            f = field(tag)
            assert sqrt_mod4(f(*d)) == make_extension(f, f(*d)).w


class TestSqrt:
    def test_rational_square(self):
        assert k_sqrt(Q(Fraction(9, 4))) == Q(Fraction(3, 2))
        assert k_sqrt(Q(2)) is None

    def test_quadratic_squares(self):
        x = QS2(1, 1)
        sq = x * x
        root = k_sqrt(sq)
        assert root is not None and root * root == sq
        assert k_sqrt(QS2(2)) is not None  # sqrt(2) = w
        assert k_sqrt(QS2(3)) is None

    def test_unit_square_detected(self):
        eps = QS2.fundamental_unit
        assert k_sqrt(eps * eps) is not None


class TestFundamental:
    def test_rational_examples(self):
        assert is_fundamental(Q(-23))
        assert is_fundamental(Q(-4))
        assert not is_fundamental(Q(-12))
        assert is_fundamental(Q(-8))
        assert is_fundamental(Q(12))
        assert is_fundamental(Q(40))

    def test_rational_matches_classical(self):
        # classical characterization of fundamental discriminants
        def classical(d):
            if d % 4 == 1:
                return _squarefree(d)
            if d % 4 == 0:
                m = d // 4
                return m % 4 in (2, 3) and _squarefree(m)
            return False

        def _squarefree(n):
            n = abs(n)
            k = 2
            while k * k <= n:
                if n % (k * k) == 0:
                    return False
                k += 1
            return True

        for d in range(-60, 61):
            if d == 0 or _is_square(d):
                continue
            assert is_fundamental(Q(d)) == classical(d), d

    def test_square_raises(self):
        with pytest.raises(SquareInput):
            is_fundamental(Q(9))
        with pytest.raises(SquareInput):
            is_fundamental(Q(0))
        with pytest.raises(SquareInput):
            is_fundamental(QS2(1, 1) * QS2(1, 1))

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            is_fundamental(Q(Fraction(1, 2)))

    def test_unit_square_twist(self, rng):
        # u^2 d is fundamental whenever d is, for any unit u
        for tag in ("q_sqrt2", "q_sqrt5"):
            f = field(tag)
            eps = f.fundamental_unit
            found = 0
            for c0 in range(-6, 7):
                for c1 in range(-6, 7):
                    d = f(c0, c1)
                    if d.is_zero() or k_sqrt(d) is not None:
                        continue
                    if not is_fundamental(d):
                        continue
                    found += 1
                    assert is_fundamental(eps * eps * d)
                    if found >= 5:
                        break
                if found >= 5:
                    break
            assert found >= 1

    def test_gaussian_4i(self):
        assert is_fundamental(QI(0, 4))
        assert not is_fundamental(QI(8))


class TestFactorInt:
    """`_factor_int`: trial division below 1000, then exact k-th roots,
    Miller-Rabin and Pollard-Brent rho on the cofactor."""

    def test_against_trial_division(self):
        from qfc.base_field import _factor_int

        limit = 10**5
        spf = list(range(limit))  # smallest prime factor, by a sieve
        for p in range(2, 317):
            if spf[p] == p:
                for k in range(p * p, limit, p):
                    if spf[k] == k:
                        spf[k] = p
        for n in range(1, limit):
            expected, m = {}, n
            while m > 1:
                expected[spf[m]] = expected.get(spf[m], 0) + 1
                m //= spf[m]
            got = _factor_int(n)
            assert got == expected and list(got) == sorted(got), n
            assert _factor_int(-n) == got

    def test_against_sympy(self):
        import random

        sympy = pytest.importorskip("sympy")
        from qfc.base_field import _factor_int

        rng = random.Random(1801)
        digits = range(3, 10)
        primes = [sympy.nextprime(rng.randrange(10**k, 10 ** (k + 1))) for k in digits]
        for _ in range(200):
            n = rng.randrange(1, 10 ** rng.randint(6, 18))
            if rng.random() < 0.5:  # a product of larger primes
                n = rng.choice(primes) * rng.choice(primes) * rng.randint(1, 999)
            got = _factor_int(n)
            assert got == sympy.factorint(n) and list(got) == sorted(got), n

    def test_large_factors_are_fast(self):
        from time import perf_counter

        from qfc.base_field import _factor_int

        cases = [
            (10000000000000000097, {10000000000000000097: 1}),  # 20-digit prime
            (3000000019 * 7000000103, {3000000019: 1, 7000000103: 1}),
            # above the Miller-Rabin bound, split down to proven primes
            (4 * (2**61 - 1) * 1000000007, {2: 2, 1000000007: 1, 2**61 - 1: 1}),
        ]
        for n, expected in cases:
            start = perf_counter()
            assert _factor_int(n) == expected
            assert is_fundamental(Q(n)) == (n % 4 == 1)
            assert perf_counter() - start < 1.0, n

    def test_prime_squares_are_fast(self):
        from time import perf_counter

        from qfc.base_field import _factor_int

        # the norm of a rational d over a quadratic base is d^2, on which
        # rho alone needs about d^(1/2) steps
        for p in (10000000000000000381, 10000000000000000097):
            start = perf_counter()
            assert _factor_int(p * p) == {p: 2}
            assert _factor_int(12 * p**2 * 1000000007**2) == {
                2: 2, 3: 1, 1000000007: 2, p: 2
            }
            assert perf_counter() - start < 1.0, p

    def test_perfect_powers(self):
        from qfc.base_field import _factor_int

        # a k-th root is taken before rho, which needs about p^(1/2) steps
        # on p^k; the exponents 6 and 10 take a square root first
        p, q = 10**19 + 381, 10000000000000000097
        assert _factor_int(p**3) == {p: 3}
        assert _factor_int(-(p**3)) == {p: 3}
        assert _factor_int(p**6) == {p: 6}
        assert _factor_int(8 * 1009**5 * q**10) == {2: 3, 1009: 5, q: 10}
        assert _factor_int((1000003 * p) ** 3) == {1000003: 3, p: 3}
        assert _factor_int(1009**7 * 1013**7) == {1009: 7, 1013: 7}

    def test_unprovable_cofactor_raises(self):
        from qfc import DomainError
        from qfc.base_field import _factor_int

        # 2^89 - 1 is prime, above the bound where the 13 bases are proven
        with pytest.raises(DomainError):
            _factor_int(2**89 - 1)
        with pytest.raises(DomainError):
            is_fundamental(Q(4 * (2**89 - 1)))


class TestRegistryConfig:
    def test_readable_config(self):
        from qfc.base_field import registry_config

        cfg = registry_config()
        assert set(cfg) == set(BASE_TAGS)
        assert cfg["q"]["m"] is None and cfg["q"]["real_embeddings"] == 1
        assert cfg["q_sqrt5"]["omega_kind"] == "half"
        assert cfg["q_sqrt2"]["fundamental_unit"] == ["1", "1"]
        assert cfg["q_sqrt13"]["unit_norm_sign"] == -1

    def test_values_immutable(self):
        x = Q(3)
        with pytest.raises(AttributeError):
            x.c0 = 5
        e = field("q_sqrt2")(1, 1)
        with pytest.raises(AttributeError):
            e.c1 = 0


def _is_square(d):
    from math import isqrt

    return d >= 0 and isqrt(d) ** 2 == d


class TestPrimesAbove:
    @staticmethod
    def _scan(f, ell):
        """primes_above by scanning every residue a < ell for a root of w's
        minimal polynomial, ascending in a."""
        tr, nm = f.omega_trace, f.omega_norm
        roots = [a for a in range(ell) if (a * a - tr * a + nm) % ell == 0]
        if not roots:
            return [f(ell)]
        return [gcd_k(f(ell), f.omega - f(a)) for a in roots]

    def test_equals_the_scan(self):
        from qfc.base_field import primes_above

        primes = [p for p in range(2, 5000) if all(p % d for d in range(2, isqrt(p) + 1))]
        for f in (QI, QS2, QS5, QS13, QM2, QM3):
            for ell in primes:
                assert primes_above(f, ell) == self._scan(f, ell), (f, ell)

    def test_twenty_digit_primes_are_fast(self):
        from time import perf_counter

        from qfc.base_field import primes_above

        # inert (5 mod 8) and split (1 mod 8) in Q(sqrt 2)
        for ell, count in ((10000000000000000381, 1), (10000000000000000097, 2)):
            start = perf_counter()
            above = primes_above(QS2, ell)
            assert len(above) == count
            assert all(abs(p.norm()) == ell ** (3 - count) for p in above)
            assert perf_counter() - start < 1.0, ell
