"""Composition of binary quadratic forms over number fields of narrow class
number one, through the correspondence with relative oriented ideal classes.
Everything is exact rational arithmetic."""

from .base_field import (
    REGISTRY,
    BaseElement,
    Field,
    Q,
    QI,
    canonical_associate,
    field,
    gcd_k,
    is_fundamental,
    is_qr_mod4,
    k_sqrt,
    sqrt_mod4,
)
from .contfrac import fundamental_unit, fundamental_unit_xy
from .correspondence import (
    OclReport,
    canonical_disc,
    compose,
    identity_form,
    inverse_form,
    ocl_structure_q,
    phi,
    psi,
    roundtrip_gamma,
    tp_unit_sqrt,
    tpd_sign_check,
)
from .errors import (
    DegenerateBasis,
    DiscriminantMismatch,
    DiscriminantNotInClass,
    DiscriminantNotTotallyNegative,
    DivisionByZero,
    DomainError,
    ExtensionMismatch,
    IndefiniteForm,
    InvalidTransformation,
    NotAnIdeal,
    NotAUnit,
    NotFundamental,
    NotIntegral,
    NotPrimitive,
    OrientationMismatch,
    OutputTooLarge,
    ParseError,
    RankDeficient,
    SquareInput,
    WrongBase,
    ZeroArgument,
)
from .extension import Extension, ExtElement, make_extension
from .forms import (
    QuadraticForm,
    Transformation,
    automorph_from_unit,
    count_cycles_q,
    enumerate_classes_q,
    proper_equivalence,
    reduce_form_q,
    root_transport_check,
    verify_equivalence_witness,
)
from .ideals import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    EquivalenceResult,
    IdealBasis,
    OrientedIdeal,
    ideal_mul,
    oriented_equivalent,
    principal_generator_q,
    principal_oriented,
    reduce_generators,
)

__version__ = "0.1.0"
