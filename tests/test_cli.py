"""CLI surface: commands, exit codes, output determinism."""

import json
from time import perf_counter

import pytest

from qfc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestCommands:
    def test_compose_d23(self, capsys):
        code, report = run_json(
            capsys, "compose", "--base", "q", "--d", "-23", "--f1", "2,1,3",
            "--f2", "2,1,3",
        )
        assert code == 0
        assert report["reduced"] == "2,-1,3"

    def test_classtable_minus4(self, capsys):
        code, report = run_json(capsys, "classtable", "--base", "q", "--d", "-4")
        assert code == 0
        assert report["count"] == 1 and report["classes"] == ["1,0,1"]

    def test_identity_d23(self, capsys):
        code, report = run_json(capsys, "identity", "--base", "q", "--d", "-23")
        assert code == 0
        assert report["text"] == "1,1,6"

    def test_inverse(self, capsys):
        code, report = run_json(
            capsys, "inverse", "--base", "q", "--form", "2,1,3"
        )
        assert code == 0
        assert report["text"] == "2,-1,3"

    def test_leading_minus_attached(self, capsys):
        code, report = run_json(capsys, "inverse", "--base", "q", "--form=-1,1,-1")
        assert code == 0
        assert report["text"] == "-1,-1,-1"

    def test_psi_phi_roundtrip(self, capsys):
        code, report = run_json(capsys, "psi", "--base", "q", "--form", "2,1,3")
        assert code == 0
        ideal_blob = json.dumps(report["ideal"])
        code2, report2 = run_json(
            capsys, "phi", "--base", "q", "--d", "-23", "--ideal", ideal_blob
        )
        assert code2 == 0
        assert report2["text"] == "2,1,3"

    def test_phi_from_file(self, capsys, tmp_path):
        code, report = run_json(capsys, "psi", "--base", "q", "--form", "1,0,1")
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(report["ideal"]))
        code2, report2 = run_json(
            capsys, "phi", "--base", "q", "--d", "-4", "--ideal", f"@{path}"
        )
        assert code2 == 0 and report2["text"] == "1,0,1"

    def test_oclcheck(self, capsys):
        code, report = run_json(capsys, "oclcheck", "--base", "q", "--d", "40")
        assert code == 0
        assert report["case"] == 3 and report["h"] == 2 and report["ocl_order"] == 2
        assert report["unit_norm"] == -1

    def test_tpdcheck(self, capsys):
        code, report = run_json(capsys, "psi", "--base", "q", "--form", "2,1,3")
        ideal_blob = json.dumps(report["ideal"])
        code2, report2 = run_json(
            capsys, "tpdcheck", "--base", "q", "--d", "-23", "--ideal", ideal_blob
        )
        assert code2 == 0
        assert report2["consistent"] is True
        assert report2["is_tpd"] is True

    def test_fundcheck(self, capsys):
        code, report = run_json(capsys, "fundcheck", "--base", "q", "--d", "-23")
        assert code == 0 and report["fundamental"] is True
        code, report = run_json(capsys, "fundcheck", "--base", "q", "--d", "-12")
        assert code == 0 and report["fundamental"] is False

    def test_fundcheck_twenty_digit_primes(self, capsys):
        # over Q(sqrt 2) the first is inert (5 mod 8) and the second splits
        # (1 mod 8); their primes above come from a square root mod ell
        for d in ("10000000000000000381", "10000000000000000097"):
            start = perf_counter()
            code, report = run_json(capsys, "fundcheck", "--base", "q_sqrt2", "--d", d)
            assert code == 0 and report["fundamental"] is True
            assert perf_counter() - start < 1.0, d

    def test_quadratic_base(self, capsys):
        code, report = run_json(
            capsys, "identity", "--base", "q_sqrt2", "--d", "-2"
        )
        assert code == 0
        assert report["text"] == "1,1w,1"


class TestTextOutput:
    """Byte-exact stdout of the text format, the default."""

    def test_compose_without_d(self, capsys):
        code, out = run_cli(
            capsys, "compose", "--base", "q", "--f1", "2,1,3", "--f2", "2,1,3"
        )
        assert code == 0
        assert out == (
            'form: {"a":{"c0":"4","c1":"0"},"b":{"c0":"5","c1":"0"},'
            '"c":{"c0":"3","c1":"0"}}\n'
            "text: 4,5,3\n"
            "reduced: 2,-1,3\n"
        )

    def test_compose_negative_definite(self, capsys):
        # (2, 1, 3) with (-2, 1, -3) composes to the negative definite
        # (-4, 5, -3), which reduces like a positive definite form
        expected = (
            'form: {"a":{"c0":"-4","c1":"0"},"b":{"c0":"5","c1":"0"},'
            '"c":{"c0":"-3","c1":"0"}}\n'
            "text: -4,5,-3\n"
            "reduced: -2,-1,-3\n"
        )
        for d_args in ((), ("--d", "-23")):
            code, out = run_cli(
                capsys, "compose", "--base", "q", *d_args,
                "--f1", "2,1,3", "--f2=-2,1,-3", "--format", "text",
            )
            assert (code, out) == (0, expected), d_args

    def test_classtable_non_discriminant(self, capsys):
        # d = 2, 3 (mod 4) is no discriminant: no forms
        code, out = run_cli(
            capsys, "classtable", "--base", "q", "--d", "-21", "--format", "text"
        )
        assert code == 0
        assert out == 'd: {"c0":"-21","c1":"0"}\ncount: 0\nclasses: []\n'
        code, out = run_cli(
            capsys, "classtable", "--base", "q", "--d", "-6", "--format", "json"
        )
        assert code == 0
        assert out == '{"classes":[],"count":0,"d":{"c0":"-6","c1":"0"}}\n'


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, out = run_cli(capsys, "compose", "--base", "q", "--f1", "2,1,3",
                            "--f2", "nope")
        assert code == 1
        assert json.loads(out)["error"] == "parse_error"

    def test_domain_error(self, capsys):
        code, out = run_cli(capsys, "identity", "--base", "q", "--d", "-21")
        assert code == 2
        assert json.loads(out)["error"] == "not_fundamental"

    def test_unknown_base(self, capsys):
        code, out = run_cli(capsys, "identity", "--base", "q_sqrt7", "--d", "-4")
        assert code == 1

    def test_square_input(self, capsys):
        code, out = run_cli(capsys, "fundcheck", "--base", "q", "--d", "9")
        assert code == 2
        assert json.loads(out)["error"] == "square_input"

    def test_inverse_square_discriminant(self, capsys):
        code, out = run_cli(capsys, "inverse", "--base", "q", "--form", "0,1,0")
        assert code == 2
        assert json.loads(out)["error"] == "square_input"

    def test_zero_leading_coefficients(self, capsys):
        # (0, 0, 1) is primitive with discriminant 0, as compose reports
        for cmd in ("psi", "inverse"):
            code, report = run_json(capsys, cmd, "--base", "q", "--form=0,0,1")
            assert code == 2 and report["error"] == "square_input", cmd
        code, report = run_json(
            capsys, "compose", "--base", "q", "--f1=0,0,1", "--f2=0,0,1"
        )
        assert code == 2 and report["error"] == "square_input"
        code, report = run_json(capsys, "psi", "--base", "q", "--form=0,0,0")
        assert code == 2 and report["error"] == "not_primitive"

    def test_classtable_non_integral(self, capsys):
        # -47/2 must not be answered with the classes of -23
        code, out = run_cli(capsys, "classtable", "--base", "q", "--d=-47/2")
        assert code == 2
        assert json.loads(out)["error"] == "not_integral"

    def test_output_past_the_int_print_limit(self, capsys):
        # the ideal of Psi(2, 1, 3) at D = -23 in the basis [alpha + k beta,
        # beta]: its form is correct but has integers of about 6,000 digits,
        # past sys.get_int_max_str_digits(), which str() refuses
        from qfc import IdealBasis, OrientedIdeal, Q, QuadraticForm, phi, psi
        from qfc import OutputTooLarge, make_extension, serialize

        a = psi(QuadraticForm(Q, 2, 1, 3), make_extension(Q, -23))
        k = 10**3000 + 1
        basis = IdealBasis(a.basis.alpha + k * a.basis.beta, a.basis.beta)
        ideal = OrientedIdeal(basis, a.eps)
        blob = json.dumps(serialize.ideal_to_json(ideal))
        for fmt in ("json", "text"):
            code, out = run_cli(
                capsys, "phi", "--base=q", "--d=-23", "--ideal", blob, "--format", fmt
            )
            assert code == 2
            assert json.loads(out)["error"] == "output_too_large"
        q = phi(ideal.align())
        for encode in (serialize.form_to_json, serialize.form_to_text):
            with pytest.raises(OutputTooLarge):
                encode(q)

    def test_fundcheck_prime_cube(self, capsys):
        # p^3 is divided by p^2, so it is not fundamental; rho alone would
        # need about p^(1/2) steps to split it
        code, report = run_json(
            capsys, "fundcheck", "--base", "q", "--d", str((10**19 + 381) ** 3)
        )
        assert code == 0 and report["fundamental"] is False


class TestErrorContract:
    """Unreadable or malformed input ends in the parse_error object, exit 1."""

    def assert_parse_error(self, code, out):
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "parse_error"
        assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"

    def test_missing_ideal_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        self.assert_parse_error(*run_cli(
            capsys, "phi", "--base", "q", "--d", "-4", "--ideal", f"@{path}"
        ))

    def test_bad_json_in_ideal_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text('{"alpha": {"x": ')
        self.assert_parse_error(*run_cli(
            capsys, "phi", "--base", "q", "--d", "-4", "--ideal", f"@{path}"
        ))

    def test_deeply_nested_ideal(self, capsys, tmp_path):
        # json.loads raises RecursionError, not ValueError, on deep nesting
        nested = "[" * 100_000
        path = tmp_path / "nested.json"
        path.write_text(nested)
        for arg in (nested, f"@{path}"):
            self.assert_parse_error(*run_cli(
                capsys, "phi", "--base=q", "--d=-23", f"--ideal={arg}"
            ))

    def test_numeric_coordinate(self, capsys):
        _, report = run_json(capsys, "psi", "--base", "q", "--form", "1,0,1")
        report["ideal"]["alpha"]["x"]["c0"] = 1
        self.assert_parse_error(*run_cli(
            capsys, "phi", "--base", "q", "--d", "-4",
            "--ideal", json.dumps(report["ideal"]),
        ))

    def test_eps_entries_must_be_integers(self, capsys):
        # true == 1 and 1.0 == 1 by value; neither is a valid orientation
        _, report = run_json(capsys, "psi", "--base", "q", "--form", "1,0,1")
        for entry in (True, 1.0):
            report["ideal"]["eps"] = [entry]
            self.assert_parse_error(*run_cli(
                capsys, "tpdcheck", "--base", "q", "--d", "-4",
                "--ideal", json.dumps(report["ideal"]),
            ))

    def test_leading_minus_detached(self, capsys):
        # argparse reads "-1,1,-1" as an option, so --form has no value
        code = main(["inverse", "--base", "q", "--form", "-1,1,-1"])
        captured = capsys.readouterr()
        self.assert_parse_error(code, captured.out)
        assert captured.err == ""

    def test_bad_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("QFC_BOUND", "abc")
        self.assert_parse_error(*run_cli(
            capsys, "identity", "--base", "q", "--d", "-4"
        ))

    def test_bound_option_rejected(self, capsys):
        # no command searches, so there is no --bound to pass
        self.assert_parse_error(*run_cli(
            capsys, "identity", "--base", "q", "--d", "-4", "--bound", "5"
        ))

    def test_no_option_abbreviations(self, capsys):
        # a prefix of an option is not that option: --form is not --format
        for argv in (
            ("identity", "--base", "q", "--d", "-4", "--form", "json"),
            ("identity", "--b", "q", "--d", "-4"),
        ):
            code, out = run_cli(capsys, *argv)
            assert code == 1, argv
            assert json.loads(out)["error"] == "parse_error", argv

    def test_zero_denominator(self, capsys):
        for argv in (
            ("identity", "--base", "q", "--d=1/0"),
            ("psi", "--base", "q", "--form=1/0,1,1"),
            ("fundcheck", "--base", "q_sqrt5", "--d=3/0w"),
        ):
            self.assert_parse_error(*run_cli(capsys, *argv))


class TestDeterminism:
    def test_json_stable(self, capsys):
        _, out1 = run_cli(capsys, "oclcheck", "--base", "q", "--d", "40",
                          "--format", "json")
        _, out2 = run_cli(capsys, "oclcheck", "--base", "q", "--d", "40",
                          "--format", "json")
        assert out1 == out2

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("QFC_BOUND", "25")
        code, report = run_json(capsys, "identity", "--base", "q", "--d", "-4")
        assert code == 0
