"""Domain errors raised by the library.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error reports.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""

    code = "domain_error"


class DivisionByZero(DomainError, ZeroDivisionError):
    code = "division_by_zero"


class ZeroArgument(DomainError):
    code = "zero_argument"


class NotIntegral(DomainError):
    code = "not_integral"


class SquareInput(DomainError):
    code = "square_input"


class NotFundamental(DomainError):
    code = "not_fundamental"


class DegenerateBasis(DomainError):
    code = "degenerate_basis"


class NotAnIdeal(DomainError):
    code = "not_an_ideal"


class ExtensionMismatch(DomainError):
    code = "extension_mismatch"


class RankDeficient(DomainError):
    code = "rank_deficient"


class NotPrimitive(DomainError):
    code = "not_primitive"


class DiscriminantNotInClass(DomainError):
    code = "discriminant_not_in_class"


class NotAUnit(DomainError):
    code = "not_a_unit"


class DiscriminantMismatch(DomainError):
    code = "discriminant_mismatch"


class DiscriminantNotTotallyNegative(DomainError):
    code = "discriminant_not_totally_negative"


class WrongBase(DomainError):
    code = "wrong_base"


class IndefiniteForm(DomainError):
    code = "indefinite_form"


class InvalidTransformation(DomainError):
    code = "invalid_transformation"


class OrientationMismatch(DomainError):
    code = "orientation_mismatch"


class OutputTooLarge(DomainError):
    """A result holds an integer past Python's limit on int-to-text
    conversion (sys.get_int_max_str_digits()), so it cannot be printed."""

    code = "output_too_large"


class ParseError(Exception):
    """Malformed CLI or JSON input."""

    code = "parse_error"
