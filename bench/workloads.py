"""Seeded inputs, operations and output checks of the three workloads.

A workload is a deck of rounds.  Every round of one workload has the same
composition (how many operations of each kind) and differs only in the
seeded inputs, so a run that covers whole rounds sees the same mix under
every seed.  An operation is timed alone; its check runs afterwards and
uses only ``oracle`` or library calls on other code paths.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import oracle

from qfc import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    OrientedIdeal,
    Q,
    QuadraticForm,
    Transformation,
    compose,
    field,
    identity_form,
    inverse_form,
    make_extension,
    ocl_structure_q,
    oriented_equivalent,
    phi,
    psi,
)
from qfc.base_field import prime_divisors
from qfc.errors import DomainError, ParseError
from qfc import serialize

# canonical fundamental discriminants (coordinates c0, c1) with small
# coefficients: the representative canonical_disc picks in each orbit
QUADRATIC_DISCS = {
    "q_i": {"neg": [(3, 0), (0, 4), (1, -4), (1, 4), (4, -2), (4, 2), (5, 0), (7, 0)]},
    "q_sqrt2": {
        "neg": [(-6, -4), (-2, 0), (-9, -6), (-3, 0), (-7, -4), (-7, 4), (-5, -2), (-5, 2)],
        "mixed": [(-1, -2), (-1, 2), (5, -4), (5, 4), (-4, -4), (-4, 4), (-3, -4), (-3, 4)],
    },
    "q_sqrt5": {
        "neg": [(-3, 1), (-2, -1), (-6, 3), (-3, 0), (-8, 4), (-4, 0), (-7, 1), (-6, -1)],
        "mixed": [(-2, 3), (1, -3), (1, 4), (5, -4), (-4, 4), (0, -4), (0, 4), (4, -4)],
    },
    "q_sqrt13": {
        "neg": [(-3, 0), (-8, 3), (-5, -3), (-4, 0), (-5, 1), (-4, -1), (-11, 4), (-7, -4)],
        "mixed": [(-1, 1), (0, -1), (5, 4), (9, -4), (-8, 4), (-4, -4), (4, 4), (8, -4)],
    },
}
# real quadratic Q(sqrt D) whose fundamental unit has norm +1, so the two
# orientations of one ideal are distinct oriented classes (checked against
# a Pell solver); all have units small enough for the complete search
NORM_PLUS_ONE = [12, 21, 24, 28, 33, 44, 56, 57, 60, 69, 76, 77, 88, 92, 93,
                 105, 120, 124, 133, 136, 140, 141, 152, 156]
NORM_MINUS_ONE = [5, 8, 13, 17, 29, 37, 40, 41, 53, 61, 65, 73, 85, 89, 101,
                  104, 109, 113, 137, 145, 149, 157]
# totally negative D (from QUADRATIC_DISCS) at which no associate of the
# multiplier from _large_gamma has coordinates inside the search box: at
# the other D of the lists, L has units beyond those of K and the search
# finds a small associate
BOX_EXHAUSTING = {
    "q_i": [(4, -2), (7, 0)],
    "q_sqrt2": [(-6, -4), (-7, -4), (-7, 4), (-5, -2), (-5, 2)],
    "q_sqrt5": [(-6, 3), (-7, 1), (-6, -1)],
    "q_sqrt13": [(-8, 3), (-5, -3), (-5, 1), (-4, -1), (-11, 4), (-7, -4)],
}
# equivalence search bound on quadratic bases; at 3 an exhausted box takes
# about four times as long, which no run of this size can afford
SEARCH_BOUND = 2


def fundamental_int(d):
    """The classical fundamental-discriminant test over Z."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and (d // 4) % 4 in (2, 3):
        m = d // 4
    else:
        return False
    m = abs(m)
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        p += 1
    return True


def random_fundamental(rng, lo, hi):
    while True:
        d = rng.randrange(lo, hi)
        if fundamental_int(d):
            return d


class Op:
    """One timed call and the check of its result."""

    __slots__ = ("kind", "call", "check", "known_defect", "inprocess")

    def __init__(self, kind, call, check, known_defect=False, inprocess=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.known_defect = known_defect
        self.inprocess = inprocess


# -- form pools ---------------------------------------------------------------


def _small(f, rng, span):
    return f(rng.randint(-span, span), 0 if f.is_rational else rng.randint(-span, span))


def _unimodular(f, rng):
    """A product of elementary matrices with small O_K entries."""
    p, q, r, s = f.one, f.zero, f.zero, f.one
    for _ in range(2):
        t = _small(f, rng, 1)
        if rng.random() < 0.5:
            q, s = q + p * t, s + r * t
        else:
            p, r = p + q * t, r + s * t
    return p, q, r, s


def form_pool(f, d, rng, size=6):
    """Primitive forms of discriminant d (or u^2 d for a totally positive
    unit u): the identity form, forms (p, b, (b^2 - d)/4p) for primes p,
    each moved by a random unimodular transform."""
    ext = make_extension(f, d)
    bases = [identity_form(ext)]
    tries = 0
    while len(bases) < size and tries < 200:
        tries += 1
        b = ext.w + 2 * _small(f, rng, 3)
        n = (b * b - ext.d) / 4
        if n.is_zero() or n.is_unit():
            continue
        p = rng.choice(prime_divisors(n))
        q = QuadraticForm(f, p, b, n / p)
        if q.is_primitive():
            bases.append(q)
    if f.is_rational:
        units = [f.one]
    elif f.r == 0:
        units = [f.one, f.omega]
    else:
        units = [f.one, f.fundamental_unit ** 2]
    pool = []
    for i, q in enumerate(bases):
        u = units[i % len(units)] if i else f.one
        pool.append(q.transform(Transformation(f, *_unimodular(f, rng), u=u)))
    return ext, pool


def _coeffs(q):
    return tuple(oracle.k_of(x) for x in (q.a, q.b, q.c))


def _int_form(q):
    return tuple(int(x.c0) for x in (q.a, q.b, q.c))


# -- compose_mix ----------------------------------------------------------------


def _compose_orbits(rng):
    qneg = [d for d in range(-300, -2) if fundamental_int(d)]
    qpos = [d for d in range(5, 300) if fundamental_int(d)]
    orbits = [(Q, Q(d)) for d in rng.sample(qneg, 2) + rng.sample(qpos, 2)]
    for tag, kinds in QUADRATIC_DISCS.items():
        f = field(tag)
        for kind, discs in kinds.items():
            for c0, c1 in rng.sample(discs, 2 if tag == "q_i" else 1):
                orbits.append((f, f(c0, c1)))
    return orbits


def _form_op(kind, f, d, call, reduced):
    """A call that returns a form of the canonical discriminant d.  Over Q
    with d < 0, `reduced` gives the reduced form of the right class."""
    tag, d_star = f.tag, oracle.k_of(d)
    if f.is_rational and d.c0 < 0:
        want = reduced()

        def check(r):
            return oracle.gauss_reduce(*_int_form(r)) == want
    else:
        def check(r):
            return oracle.check_form(tag, _coeffs(r), d_star)
    return Op(f"{kind}.{tag}", call, check)


def build_compose_mix(seed, rounds=10):
    """Per round and orbit: three compositions and one Phi(Psi(q)) round
    trip, over twelve (field, D) orbits."""
    rng = random.Random(f"compose_mix:{seed}")
    pools = []
    for f, d in _compose_orbits(rng):
        _, pool = form_pool(f, d, rng)
        pools.append((f, d, pool))
    deck = []
    for _ in range(rounds):
        ops = []
        for f, d, pool in pools:
            for _ in range(3):
                q1, q2 = rng.choice(pool), rng.choice(pool)
                ops.append(_form_op(
                    "compose", f, d, lambda q1=q1, q2=q2: compose(q1, q2),
                    lambda: oracle.dirichlet_compose(_int_form(q1), _int_form(q2))))
            q = rng.choice(pool)
            ops.append(_form_op("roundtrip", f, d, lambda q=q: phi(psi(q).align()),
                                lambda: oracle.gauss_reduce(*_int_form(q))))
        rng.shuffle(ops)
        deck.append(ops)
    return deck


# -- decide -----------------------------------------------------------------------


def _gamma(ext, rng, lo, hi):
    """A nonzero s + t*W with s, t in O_K and coordinates in [lo, hi]."""
    f = ext.base

    def coord():
        return rng.choice((-1, 1)) * rng.randint(lo, hi)

    while True:
        s = f(coord(), 0 if f.is_rational else coord())
        t = f(coord(), 0 if f.is_rational else coord())
        g = ext.from_module_coords(s, t)
        if not g.is_zero():
            return g


def _large_gamma(ext, rng):
    """1 + t*W with |N(t)| >= 40: no unit of K brings t inside the box."""
    f = ext.base
    while True:
        t = f(*(rng.choice((-1, 1)) * rng.randint(3, 9) for _ in range(2)))
        if abs(t.norm()) >= 40:
            return ext.from_module_coords(f.one, t)


def _flip(ideal):
    return OrientedIdeal(ideal.basis, tuple(-e for e in ideal.eps))


def _equiv_op(kind, a, b, expect):
    """oriented_equivalent(a, b); `expect` is EQUIVALENT when the pair was
    built equivalent and NOT_EQUIVALENT when built from distinct classes."""
    ext = a.ext
    tag, d = ext.base.tag, oracle.k_of(ext.d)
    ia = [oracle.l_of(a.basis.alpha), oracle.l_of(a.basis.beta)]
    ib = [oracle.l_of(b.basis.alpha), oracle.l_of(b.basis.beta)]
    forbidden = NOT_EQUIVALENT if expect == EQUIVALENT else EQUIVALENT

    def check(r):
        if r.status == forbidden or (r.status == EQUIVALENT) != (r.gamma is not None):
            return False
        if r.gamma is None:
            return True
        return oracle.witness_ok(tag, d, ia, a.eps, ib, b.eps, oracle.l_of(r.gamma))

    return Op(kind, lambda: oriented_equivalent(a, b, SEARCH_BOUND), check)


def _ocl_op(kind, d):
    if d < 0:
        h = []

        def check(r):
            if not h:
                h.append(len(oracle.reduced_forms_neg(d)))
            return (r.case, r.h, r.ocl_order, r.unit, r.unit_norm) == (1, h[0], 2 * h[0], None, None)
    else:
        def check(r):
            x, y = 2 * r.unit.x.c0, 2 * r.unit.y.c0
            if x.denominator != 1 or y.denominator != 1 or x <= 0 or y <= 0:
                return False
            if x * x - d * y * y != 4 * r.unit_norm or r.h < 1:
                return False
            case = 3 if r.unit_norm == -1 else 2
            return r.case == case and r.ocl_order == r.h * (1 if case == 3 else 2)
    return Op(kind, lambda: ocl_structure_q(d), check)


def build_decide(seed, rounds=5):
    """Per round: 27 decisions; see README.md for the composition."""
    rng = random.Random(f"decide:{seed}")
    qneg = [d for d in range(-400, -19) if fundamental_int(d)
            and len(oracle.reduced_forms_neg(d)) >= 2]
    quad = [(field(tag), kinds) for tag, kinds in QUADRATIC_DISCS.items()]
    pools = {}

    def ideal(f, d, size):
        """Psi of a random form from the pool of (f, d), made once."""
        if (f.tag, d) not in pools:
            pools[(f.tag, d)] = form_pool(f, d, rng, size)
        ext, pool = pools[(f.tag, d)]
        return ext, psi(rng.choice(pool), ext)

    deck = []
    for _ in range(rounds):
        ops = []
        # Q, D < 0: ideals of reduced forms, equal and distinct classes
        for i in range(3):
            d = rng.choice(qneg)
            forms = rng.sample(oracle.reduced_forms_neg(d), 2)
            ext = make_extension(Q, d)
            a = psi(QuadraticForm(Q, *forms[0]), ext)
            b = psi(QuadraticForm(Q, *forms[1]), ext).scale(_gamma(ext, rng, 0, 3))
            ops.append(_equiv_op("equiv.q_neg", a, a.scale(_gamma(ext, rng, 0, 3)), EQUIVALENT))
            ops.append(_equiv_op("distinct.q_neg", a, _flip(b) if i == 0 else b, NOT_EQUIVALENT))
        # Q, D > 0: principal multiples; a flipped orientation is another
        # class when no unit has norm -1
        for i in range(3):
            ext, a = ideal(Q, Q(rng.choice(NORM_PLUS_ONE + NORM_MINUS_ONE)), 3)
            ops.append(_equiv_op("equiv.q_pos", a, a.scale(_gamma(ext, rng, 0, 3)), EQUIVALENT))
            if i < 2:
                ext, a = ideal(Q, Q(rng.choice(NORM_PLUS_ONE)), 3)
                b = _flip(a.scale(_gamma(ext, rng, 0, 3)))
                ops.append(_equiv_op("distinct.q_pos", a, b, NOT_EQUIVALENT))
        # quadratic bases: a small multiplier lies inside the box; a large
        # one is found only where L has units beyond those of K, so over
        # BOX_EXHAUSTING the search exhausts the box and answers unknown;
        # flipped orientations over a totally negative D are distinct
        for f, kinds in quad:
            ext, a = ideal(f, f(*rng.choice(kinds["neg"])), 2)
            ops.append(_equiv_op("equiv.quad_small", a, a.scale(_gamma(ext, rng, 0, 1)), EQUIVALENT))
            ext, b = ideal(f, f(*rng.choice(BOX_EXHAUSTING[f.tag])), 2)
            ops.append(_equiv_op("equiv.quad_box", b, b.scale(_large_gamma(ext, rng)), EQUIVALENT))
        for f, kinds in rng.sample(quad[1:], 2):
            ext, a = ideal(f, f(*rng.choice(kinds["neg"])), 2)
            b = _flip(a.scale(_gamma(ext, rng, 0, 3)))
            ops.append(_equiv_op("distinct.quad_neg", a, b, NOT_EQUIVALENT))
        # class-group reports
        for lo, hi in ((-3000, -3), (-30000, -3000), (-300000, -30000), (-1000000, -300000)):
            ops.append(_ocl_op("ocl.neg", random_fundamental(rng, lo, hi)))
        for lo, hi in ((5, 240), (240, 480)):
            ops.append(_ocl_op("ocl.pos", random_fundamental(rng, lo, hi)))
        rng.shuffle(ops)
        deck.append(ops)
    return deck


# -- cli ------------------------------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(report, fmt):
    """stdout of a successful command, as the README documents it."""
    if fmt == "json":
        return _dumps(report) + "\n"
    lines = []
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            value = _dumps(value)
        lines.append(f"{key}: {value}\n")
    return "".join(lines)


def _form_report(q):
    c = _coeffs(q)
    return {"form": oracle.form_json(c), "text": oracle.form_text(c)}


def _ideal_json(ideal):
    b = ideal.basis
    return {
        "alpha": oracle.l_json(oracle.l_of(b.alpha)),
        "beta": oracle.l_json(oracle.l_of(b.beta)),
        "eps": list(ideal.eps),
    }


def _expected(build, fmt):
    """(exit code, stdout) for a command whose report `build` computes by
    library calls; a library error becomes the documented error object."""
    try:
        report = build()
    except ParseError as exc:
        return 1, _dumps({"error": "parse_error", "message": str(exc)}) + "\n"
    except DomainError as exc:
        return 2, _dumps({"error": exc.code, "message": str(exc)}) + "\n"
    return 0, _emit(report, fmt)


class CliRunner:
    """Runs `python -m qfc.cli` from source, or ``qfc.cli.main`` in-process."""

    def __init__(self, root):
        self.root = root
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("QFC_BOUND", None)
        self.env = env

    def spawn(self, argv, env_extra):
        proc = subprocess.run(
            [sys.executable, "-m", "qfc.cli", *argv],
            cwd=self.root,
            env=dict(self.env, **env_extra),
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def inprocess(argv, env_extra):
        import qfc.cli

        saved = {k: os.environ.get(k) for k in env_extra}
        os.environ.update(env_extra)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = qfc.cli.main(list(argv))
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return code, out.getvalue().encode(), b""


def _cli_op(runner, kind, argv, expect, env_extra=None, known_defect=False):
    """One CLI call; `expect` returns (exit code, stdout) or, for a known
    defect, None: then any documented parse-error object passes."""
    env_extra = env_extra or {}
    want = []

    def check(r):
        code, out, err = r
        if b"Traceback" in err:
            return False
        if known_defect:
            try:
                obj = json.loads(out)
            except ValueError:
                return False
            return (code == 1 and isinstance(obj, dict) and obj.get("error") == "parse_error"
                    and isinstance(obj.get("message"), str) and out == (_dumps(obj) + "\n").encode())
        if not want:
            want.append(expect())
        wcode, wout = want[0]
        return code == wcode and out == wout.encode()

    return Op(
        kind,
        lambda: runner.spawn(argv, env_extra),
        check,
        known_defect=known_defect,
        inprocess=lambda: runner.inprocess(argv, env_extra),
    )


def build_cli(seed, root, tmpdir, rounds=4):
    """Per round: 32 commands, four of them the known-defect inputs."""
    rng = random.Random(f"cli:{seed}")
    runner = CliRunner(root)
    qneg = [d for d in range(-200, -2) if fundamental_int(d)]
    qpos = [d for d in range(5, 100) if fundamental_int(d)]
    orbits = [(Q, Q(d)) for d in rng.sample(qneg, 3) + rng.sample(qpos, 2)]
    for tag in ("q_sqrt2", "q_sqrt5", "q_sqrt13"):
        f = field(tag)
        orbits.append((f, f(*rng.choice(QUADRATIC_DISCS[tag]["neg"]))))
    pools = [(f, d) + form_pool(f, d, rng, size=4) for f, d in orbits]
    neg_pools = [p for p in pools if p[0].is_rational and p[1].c0 < 0]
    tn_pools = [p for p in pools if not p[0].is_rational]
    nfile = [0]

    def write(text):
        nfile[0] += 1
        path = os.path.join(tmpdir, f"ideal-{nfile[0]}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def fmt():
        return rng.choice(("text", "json"))

    def ktext(x):
        return oracle.k_text(oracle.k_of(x))

    def ftext(q):
        return oracle.form_text(_coeffs(q))

    def itext(coeffs):
        return oracle.form_text([(v, 0) for v in coeffs])

    def base_args(cmd, f, fm, d=None):
        args = [cmd, f"--base={f.tag}", f"--format={fm}"]
        return args if d is None else args + [f"--d={ktext(d)}"]

    def op_compose(pool, with_d):
        f, d, ext, forms = pool
        q1, q2, fm = rng.choice(forms), rng.choice(forms), fmt()
        argv = base_args("compose", f, fm, d if with_d else None)
        argv += [f"--f1={ftext(q1)}", f"--f2={ftext(q2)}"]

        def build():
            r = compose(q1, q2)
            report = _form_report(r)
            if f.is_rational and d.c0 < 0:
                report["reduced"] = itext(oracle.gauss_reduce(*_int_form(r)))
            return report
        return _cli_op(runner, "cli.compose", argv, lambda: _expected(build, fm))

    def op_psi(pool):
        f, d, ext, forms = pool
        q, fm = rng.choice(forms), fmt()
        argv = base_args("psi", f, fm) + [f"--form={ftext(q)}"]

        def build():
            ideal = psi(q)
            e = ideal.ext
            return {
                "extension": {"base": f.tag, "D": oracle.k_json(oracle.k_of(e.d)),
                              "w": oracle.k_json(oracle.k_of(e.w)),
                              "z": oracle.k_json(oracle.k_of(e.z))},
                "ideal": _ideal_json(ideal),
            }
        return _cli_op(runner, "cli.psi", argv, lambda: _expected(build, fm))

    def ideal_arg(ideal, as_file):
        blob = _dumps(_ideal_json(ideal))
        return "@" + write(blob) if as_file else blob

    def op_phi(pool, as_file):
        f, d, ext, forms = pool
        ideal, fm = psi(rng.choice(forms), ext).scale(_gamma(ext, rng, 0, 2)), fmt()
        argv = base_args("phi", f, fm, d) + [f"--ideal={ideal_arg(ideal, as_file)}"]
        return _cli_op(runner, "cli.phi", argv,
                       lambda: _expected(lambda: _form_report(phi(ideal.align())), fm))

    def op_tpdcheck(pool, as_file):
        f, d, ext, forms = pool
        ideal, fm = psi(rng.choice(forms), ext), fmt()
        argv = base_args("tpdcheck", f, fm, d) + [f"--ideal={ideal_arg(ideal, as_file)}"]

        def build():
            from qfc import tpd_sign_check

            triples = [list(tpd_sign_check(ideal, i)) for i in range(f.r)]
            return {
                "embeddings": triples,
                "consistent": all(len(set(t)) == 1 for t in triples),
                "is_tpd": phi(ideal.align()).is_tpd(),
                "eps": list(ideal.eps),
            }
        return _cli_op(runner, "cli.tpdcheck", argv, lambda: _expected(build, fm))

    def op_identity(f, d):
        fm = fmt()
        return _cli_op(runner, "cli.identity", base_args("identity", f, fm, d),
                       lambda: _expected(lambda: _form_report(identity_form(make_extension(f, d))), fm))

    def op_inverse(pool):
        f, d, ext, forms = pool
        q, fm = rng.choice(forms), fmt()
        argv = base_args("inverse", f, fm) + [f"--form={ftext(q)}"]
        return _cli_op(runner, "cli.inverse", argv,
                       lambda: _expected(lambda: _form_report(inverse_form(q)), fm))

    def op_classtable(d):
        fm = fmt()

        def build():
            classes = oracle.reduced_forms_neg(d)
            return {"d": oracle.k_json((d, 0)), "count": len(classes),
                    "classes": [itext(c) for c in classes]}
        return _cli_op(runner, "cli.classtable", base_args("classtable", Q, fm, Q(d)),
                       lambda: _expected(build, fm))

    def op_oclcheck(d):
        fm = fmt()

        def build():
            rep = ocl_structure_q(d)
            report = {"case": rep.case, "h": rep.h, "ocl_order": rep.ocl_order}
            if rep.unit is not None:
                report["fundamental_unit"] = oracle.l_json(oracle.l_of(rep.unit))
                report["unit_norm"] = rep.unit_norm
            return report
        return _cli_op(runner, "cli.oclcheck", base_args("oclcheck", Q, fm, Q(d)),
                       lambda: _expected(build, fm))

    def op_fundcheck(f, d):
        fm = fmt()

        def build():
            from qfc import is_fundamental

            return {"d": oracle.k_json(oracle.k_of(d)), "fundamental": is_fundamental(d)}
        return _cli_op(runner, "cli.fundcheck", base_args("fundcheck", f, fm, d),
                       lambda: _expected(build, fm))

    def op_bad_form():
        f, d, ext, forms = rng.choice(pools)
        q, fm = rng.choice(forms), fmt()
        text = ",".join(ftext(q).split(",")[:2])
        argv = base_args(rng.choice(("psi", "inverse")), f, fm) + [f"--form={text}"]
        return _cli_op(runner, "cli.exit1", argv,
                       lambda: _expected(lambda: _form_report(serialize.parse_form_text(f, text)), fm))

    def op_not_fundamental():
        f, d, ext, forms = rng.choice(pools)
        d4, fm = d * 4, fmt()
        return _cli_op(runner, "cli.exit2", base_args("identity", f, fm, d4),
                       lambda: _expected(lambda: _form_report(identity_form(make_extension(f, d4))), fm))

    def op_imprimitive():
        f, d, ext, forms = rng.choice(pools)
        q, fm = rng.choice(forms), fmt()
        q2 = QuadraticForm(f, q.a * 2, q.b * 2, q.c * 2)
        argv = base_args("psi", f, fm) + [f"--form={ftext(q2)}"]
        return _cli_op(runner, "cli.exit2", argv, lambda: _expected(lambda: psi(q2), fm))

    def known_defects():
        f, d, ext, forms = rng.choice(neg_pools)
        ideal = psi(rng.choice(forms), ext)
        blob = _dumps(_ideal_json(ideal))
        bad = blob[: rng.randint(1, len(blob) - 1)]
        numeric = json.loads(blob)
        numeric["alpha"]["x"]["c0"] = int(ideal.basis.alpha.x.c0)
        head = base_args("phi", f, fmt(), d)
        return [
            _cli_op(runner, "defect.missing_file",
                    head + [f"--ideal=@{os.path.join(tmpdir, f'missing-{rng.randrange(10**6)}.json')}"],
                    None, known_defect=True),
            _cli_op(runner, "defect.bad_json_file", head + [f"--ideal=@{write(bad)}"],
                    None, known_defect=True),
            _cli_op(runner, "defect.numeric_c0", head + [f"--ideal={_dumps(numeric)}"],
                    None, known_defect=True),
            _cli_op(runner, "defect.bad_env_bound", base_args("identity", f, fmt(), d),
                    None, env_extra={"QFC_BOUND": "abc"}, known_defect=True),
        ]

    deck = []
    for _ in range(rounds):
        ops = known_defects()
        ops += [op_compose(rng.choice(neg_pools), i == 0) for i in range(3)]
        ops.append(op_compose(rng.choice(tn_pools), False))
        ops += [op_psi(rng.choice(pools)) for _ in range(3)]
        ops += [op_phi(rng.choice(pools), i == 0) for i in range(3)]
        ops += [op_identity(*rng.choice(orbits)) for _ in range(3)]
        ops += [op_inverse(rng.choice(pools)) for _ in range(3)]
        ops += [op_classtable(random_fundamental(rng, -2000, -3)) for _ in range(2)]
        ops.append(op_oclcheck(random_fundamental(rng, -2000, -3)))
        ops.append(op_oclcheck(random_fundamental(rng, 5, 100)))
        ops += [op_tpdcheck(rng.choice(neg_pools), False), op_tpdcheck(rng.choice(tn_pools), True)]
        ops += [op_fundcheck(*rng.choice(orbits)), op_fundcheck(Q, Q(rng.choice((-1, 1)) * rng.randint(2, 500)))]
        ops += [op_bad_form(), op_bad_form(), op_not_fundamental(), op_imprimitive()]
        rng.shuffle(ops)
        deck.append(ops)
    return deck
