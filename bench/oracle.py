"""Reference computations for the benchmark's output checks.

Nothing here calls into ``qfc``: the checks must not share a code path with
the code they judge.  Elements of K are pairs (c0, c1) over the integral
basis {1, w}; elements of L are pairs (x, y) of such pairs, meaning
x + y*sqrt(D).  The only thing read from a ``qfc`` object is its stored
coordinates.
"""

from fractions import Fraction
from math import gcd, isqrt

# w^2 = TRACE*w - NORM for each registry field, and m with K = Q(sqrt m);
# copied from the field definitions in the paper, not read from qfc
FIELDS = {
    "q": (0, 0, None),
    "q_i": (0, 1, -1),
    "q_sqrt2": (0, -2, 2),
    "q_sqrt5": (1, -1, 5),
    "q_sqrt13": (1, -3, 13),
}


# -- K arithmetic on coordinate pairs ---------------------------------------


def k_of(x):
    """Coordinates (c0, c1) of a qfc BaseElement."""
    return (x.c0, x.c1)


def k_mul(tag, u, v):
    tr, nm, _ = FIELDS[tag]
    cross = u[1] * v[1]
    return (u[0] * v[0] - cross * nm, u[0] * v[1] + u[1] * v[0] + cross * tr)


def k_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def k_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def k_sign(tag, u, i):
    """Exact sign of u under the i-th real embedding (sqrt m > 0 first)."""
    tr, _, m = FIELDS[tag]
    if m is None:
        return (u[0] > 0) - (u[0] < 0)
    # u = a + b*sqrt(m) with w = (tr + sqrt m)/2
    a = u[0] + Fraction(u[1] * tr, 2)
    b = Fraction(u[1], 2) if tr else u[1]
    if i == 1:
        b = -b
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    bigger_a = a * a > b * b * m
    return sa if bigger_a else sb


def k_signs(tag, u):
    r = {"q": 1, "q_i": 0}.get(tag, 2)
    return tuple(k_sign(tag, u, i) for i in range(r))


def k_integral(u):
    return Fraction(u[0]).denominator == 1 and Fraction(u[1]).denominator == 1


# -- forms --------------------------------------------------------------------


def form_disc(tag, a, b, c):
    ac = k_mul(tag, a, c)
    return k_sub(k_mul(tag, b, b), (4 * ac[0], 4 * ac[1]))


def is_primitive(tag, a, b, c):
    """Whether the O_K-ideal (a, b, c) is O_K: the Z-lattice spanned by
    x and x*w for x in {a, b, c} has index 1 in Z^2."""
    if tag == "q":
        return gcd(int(a[0]), int(b[0]), int(c[0])) == 1
    vecs = []
    for x in (a, b, c):
        vecs.append(x)
        vecs.append(k_mul(tag, x, (0, 1)))
    vecs = [(int(v[0]), int(v[1])) for v in vecs]
    g = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            g = gcd(g, vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0])
    return g == 1


def check_form(tag, coeffs, d_star):
    """Discriminant equals d_star, coefficients integral, form primitive."""
    a, b, c = coeffs
    if not all(k_integral(x) for x in coeffs):
        return False
    return form_disc(tag, a, b, c) == d_star and is_primitive(tag, a, b, c)


def gauss_reduce(a, b, c):
    """The reduced representative of a positive definite form over Z."""
    if not (b * b - 4 * a * c < 0 and a > 0):
        raise ValueError("expected a positive definite form")
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            a, b, c = a, b + 2 * r * a, a * r * r + b * r + c
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
            continue
        return a, b, c


def _xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def dirichlet_compose(f1, f2):
    """Gauss composition of two primitive forms of one discriminant, by
    Dirichlet's united forms (Cohen GTM 138, Lemma 5.4.5), then reduced."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    disc = b1 * b1 - 4 * a1 * c1
    if b2 * b2 - 4 * a2 * c2 != disc:
        raise ValueError("discriminants differ")
    s = (b1 + b2) // 2
    g1, x1, y1 = _xgcd(a1, a2)
    e, x2, y2 = _xgcd(g1, s)
    lam, mu, nu = x1 * x2, y1 * x2, y2
    a3 = a1 * a2 // (e * e)
    b3 = (lam * a1 * b2 + mu * a2 * b1 + nu * (b1 * b2 + disc) // 2) // e
    b3 %= 2 * a3
    c3 = (b3 * b3 - disc) // (4 * a3)
    return gauss_reduce(a3, b3, c3)


def reduced_forms_neg(d):
    """The reduced primitive positive definite forms of disc d < 0."""
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and not (a == c and b < 0) and gcd(a, b, c) == 1:
                    out.append((a, b, c))
    return out


# -- L arithmetic and ideal lattices -----------------------------------------


def l_of(z):
    """Coordinates ((x0, x1), (y0, y1)) of a qfc ExtElement."""
    return (k_of(z.x), k_of(z.y))


def l_mul(tag, d, u, v):
    (ux, uy), (vx, vy) = u, v
    x = k_add(k_mul(tag, ux, vx), k_mul(tag, k_mul(tag, uy, vy), d))
    y = k_add(k_mul(tag, ux, vy), k_mul(tag, uy, vx))
    return (x, y)


def l_norm(tag, d, u):
    x, y = u
    return k_sub(k_mul(tag, x, x), k_mul(tag, k_mul(tag, y, y), d))


def _z_basis(tag, gens):
    """Z-basis vectors of the O_K-module spanned by two L elements."""
    rows = []
    for g in gens:
        for mult in ((1, 0), (0, 1)) if tag != "q" else ((1, 0),):
            x = k_mul(tag, g[0], mult)
            y = k_mul(tag, g[1], mult)
            rows.append(
                [Fraction(v) for v in ((x[0], y[0]) if tag == "q" else (*x, *y))]
            )
    return rows


def _solve_rows(rows, target):
    """Coefficients c with sum c_i rows[i] = target (rows independent)."""
    n = len(rows)
    # columns are the coordinates; solve M^T c = target
    mat = [[rows[j][i] for j in range(n)] + [target[i]] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[i][n] for i in range(n)]


def same_lattice(tag, gens1, gens2):
    """Whether two pairs of L elements span the same O_K-module: every
    Z-basis vector of each is an integral combination of the other's."""
    r1, r2 = _z_basis(tag, gens1), _z_basis(tag, gens2)
    for a, b in ((r1, r2), (r2, r1)):
        for vec in a:
            if any(c.denominator != 1 for c in _solve_rows(b, vec)):
                return False
    return True


def witness_ok(tag, d, basis_i, eps_i, basis_j, eps_j, gamma):
    """gamma * I = J as modules and the signs of N(gamma) bridge the
    orientations: the definition of oriented equivalence."""
    if gamma == ((0, 0), (0, 0)):
        return False
    target = tuple(x * y for x, y in zip(eps_i, eps_j))
    if k_signs(tag, l_norm(tag, d, gamma)) != target:
        return False
    scaled = [l_mul(tag, d, gamma, g) for g in basis_i]
    return same_lattice(tag, scaled, basis_j)


# -- canonical JSON and CLI text, as the README documents them ---------------


def k_json(u):
    return {"c0": str(Fraction(u[0])), "c1": str(Fraction(u[1]))}


def k_text(u):
    c0, c1 = Fraction(u[0]), Fraction(u[1])
    if c1 == 0:
        return str(c0)
    if c0 == 0:
        return f"{c1}w"
    return f"{c0}{'+' if c1 > 0 else '-'}{abs(c1)}w"


def l_json(z):
    return {"x": k_json(z[0]), "y": k_json(z[1])}


def form_json(coeffs):
    return dict(zip("abc", (k_json(x) for x in coeffs)))


def form_text(coeffs):
    return ",".join(k_text(x) for x in coeffs)
