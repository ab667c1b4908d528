"""Shared generators for randomized (seeded) tests, and the CM decision in
elements of K and L that the integer path is checked against.

Everything is exact; "random" inputs are drawn from seeded `random.Random`
instances so failures reproduce.
"""

import random
from fractions import Fraction
from math import floor, lcm

import pytest

from qfc import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    EquivalenceResult,
    IdealBasis,
    OrientedIdeal,
    QuadraticForm,
    is_fundamental,
    k_sqrt,
    psi,
)
from qfc.base_field import Field, _unit_slide
from qfc.ideals import _quotient_module
from qfc.lattice import lll_gram

BASE_TAGS = ("q", "q_i", "q_sqrt2", "q_sqrt5", "q_sqrt13")

# two bases outside the registry, defined by m alone: Q(sqrt -2), whose roots
# of unity are +-1, and Q(sqrt -3), where w = zeta_6
QM2 = Field("q_m2", -2)
QM3 = Field("q_m3", -3)


@pytest.fixture
def rng():
    return random.Random(20260808)


def random_int_element(f, rng, span=4, nonzero=False):
    while True:
        c0 = rng.randint(-span, span)
        c1 = 0 if f.is_rational else rng.randint(-span, span)
        x = f(c0, c1)
        if not (nonzero and x.is_zero()):
            return x


def random_fundamental_form(f, rng, span=4, totally_negative=False):
    """A random primitive form over f whose discriminant is fundamental."""
    while True:
        a = random_int_element(f, rng, span, nonzero=True)
        b = random_int_element(f, rng, span)
        c = random_int_element(f, rng, span, nonzero=True)
        q = QuadraticForm(f, a, b, c)
        d = q.disc()
        if d.is_zero() or k_sqrt(d) is not None:
            continue
        if not is_fundamental(d):
            continue
        if totally_negative and f.r > 0 and any(s == 1 for s in d.signs()):
            continue
        if not q.is_primitive():
            continue
        return q


def forms_with_disc(f, d, span=5):
    """All primitive forms of discriminant exactly d with coordinates in a
    small box; deterministic seed material for ideal generators."""
    out = []
    coords = range(-span, span + 1)
    elements = (
        [f(c0) for c0 in coords if c0]
        if f.is_rational
        else [f(c0, c1) for c0 in coords for c1 in coords if c0 or c1]
    )
    small = [x for x in elements if abs(x.norm()) <= span * span]
    for a in small:
        for b in small + [f.zero]:
            num = b * b - d
            c = num / (4 * a)
            if not c.is_integral() or c.is_zero():
                continue
            q = QuadraticForm(f, a, b, c)
            if q.is_primitive():
                out.append(q)
    return out


def random_unimodular(f, rng, steps=3, torsion=True):
    """(p, q, r, s) over O_K with unit determinant, via random shears and an
    optional unit row-scaling."""
    p, q, r, s = f.one, f.zero, f.zero, f.one
    for _ in range(steps):
        k = random_int_element(f, rng, 2)
        if rng.random() < 0.5:
            p, q = p + k * r, q + k * s
        else:
            r, s = r + k * p, s + k * q
    if torsion:
        units = [f.one, -f.one]
        if f.fundamental_unit is not None:
            units += [f.fundamental_unit]
        if len(f.roots) > 2:  # i over Q(i), zeta_6 over Q(sqrt -3)
            units += [f.roots[1]]
        u = rng.choice(units)
        p, q = u * p, u * q
    return p, q, r, s


def random_gamma(ext, rng, span=3):
    """A random nonzero element of L with half-integral coordinates,
    occasionally divided by a small rational integer."""
    f = ext.base
    while True:
        x = random_int_element(f, rng, span)
        y = random_int_element(f, rng, span)
        g = ext.element(x / 2, y / 2)
        if not g.is_zero():
            if rng.random() < 0.3:
                g = g / rng.choice([2, 3])
            return g


def transformed_ideal(a: OrientedIdeal, rng, scale=True) -> OrientedIdeal:
    """A different representative of a class equal or unit-scaled to a's."""
    f = a.ext.base
    p, q, r, s = random_unimodular(f, rng)
    alpha, beta = a.basis.alpha, a.basis.beta
    fp, fq, fr, fs = (a.ext.from_base(v) for v in (p, q, r, s))
    basis = IdealBasis(fp * alpha + fr * beta, fq * alpha + fs * beta)
    out = OrientedIdeal(basis, a.eps)
    if scale:
        out = out.scale(random_gamma(a.ext, rng))
    return out


def random_oriented_ideal(ext, rng, seed_forms):
    """Random oriented ideal over ext, built from a seed form's psi image by
    unimodular basis changes, scalings, and a random orientation flip."""
    q = rng.choice(seed_forms)
    a = transformed_ideal(psi(q, ext), rng)
    if ext.base.r > 0 and rng.random() < 0.5:
        flip = tuple(rng.choice((1, -1)) for _ in range(ext.base.r))
        a = OrientedIdeal(a.basis, tuple(e * s for e, s in zip(a.eps, flip)))
    return a


# -- the CM decision in elements of K and L and in Fractions, kept as the
# reference of the integer path: J * I^-1 by `_quotient_module`, the Gram
# matrix of its O_K basis from products in L, and Fincke-Pohst on the LDL^T
# form in Fractions


def reference_trace_gram(module: IdealBasis):
    """(G, den): den * Tr_{K/Q}(N_{L/K}(gamma)) = v^T G v for gamma =
    v0*alpha + v1*w*alpha + v2*beta + v3*w*beta in the module."""
    ext = module.ext
    w = ext.base.omega
    basis = (module.alpha, module.alpha * w, module.beta, module.beta * w)
    gram = [[(u.x * v.x - u.y * v.y * ext.d).trace() for v in basis] for u in basis]
    den = lcm(*(g.denominator for row in gram for g in row))
    return [[g.numerator * (den // g.denominator) for g in row] for row in gram], den


def _reference_ldl(gram):
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[k][i] * q[i][m]
    return q


def _reference_outward(centre, diag, budget):
    lo = floor(centre)
    hi = lo + 1
    lo_rest = budget - diag * (lo - centre) ** 2
    hi_rest = budget - diag * (hi - centre) ** 2
    while lo_rest >= 0 or hi_rest >= 0:
        if lo_rest >= hi_rest:
            yield lo, lo_rest
            lo -= 1
            lo_rest = budget - diag * (lo - centre) ** 2
        else:
            yield hi, hi_rest
            hi += 1
            hi_rest = budget - diag * (hi - centre) ** 2


def reference_short_vectors(gram, bound):
    """Fincke-Pohst in Fractions: (x, x^T gram x) for every nonzero x with
    x^T gram x <= bound, each coordinate nearest its centre first."""
    q = _reference_ldl(gram)
    n = len(q)
    x = [0] * n

    def walk(i, budget):
        centre = -sum(q[i][j] * x[j] for j in range(i + 1, n))
        for xi, rest in _reference_outward(centre, q[i][i], budget):
            x[i] = xi
            if i:
                yield from walk(i - 1, rest)
            elif any(x):
                yield tuple(x), bound - rest

    yield from walk(n - 1, Fraction(bound))


def cm_reference(a: OrientedIdeal, b: OrientedIdeal) -> EquivalenceResult:
    """oriented_equivalent over a real quadratic base with D totally
    negative, as it was decided in elements of K and L."""
    target = tuple(x * y for x, y in zip(a.eps, b.eps))
    if any(s == -1 for s in target):
        return EquivalenceResult(NOT_EQUIVALENT, None)
    module = _quotient_module(a, b)
    f = module.ext.base
    n0 = module.det_m()
    eps2 = f.fundamental_unit * f.fundamental_unit
    n_star = _unit_slide(n0 * f.unit_with_signs(n0.signs()), eps2, f.one / eps2)[0]
    gram, den = reference_trace_gram(module)
    reduced, h = lll_gram(gram)
    bound = n_star.trace() * den
    for x, value in reference_short_vectors(reduced, bound):
        if value != bound:
            continue
        v = [sum(hij * xj for hij, xj in zip(row, x)) for row in h]
        gamma = module.alpha * f(v[0], v[1]) + module.beta * f(v[2], v[3])
        if (gamma.norm() / n0).is_unit():
            if gamma.norm().signs() != target:
                raise AssertionError("a generator of the wrong signs")
            if not a.basis.scale(gamma).same_module(b.basis):
                raise AssertionError("a generator that does not map I to J")
            return EquivalenceResult(EQUIVALENT, gamma)
    return EquivalenceResult(NOT_EQUIVALENT, None)
