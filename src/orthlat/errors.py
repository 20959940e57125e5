"""Exception hierarchy shared by all modules.

Every exception carries a short machine-readable ``code`` so the CLI can
map domain failures onto stable JSON error identifiers.
"""


class OrthlatError(Exception):
    code = "error"


class SpecParseError(OrthlatError):
    code = "bad-spec"


class DegenerateFormError(OrthlatError):
    code = "degenerate-form"


class OddDiagonalError(OrthlatError):
    code = "odd-diagonal"


class NotPrimitiveError(OrthlatError):
    code = "not-primitive"


class NotIntegralError(OrthlatError):
    code = "not-integral"


class NotIsometryError(OrthlatError):
    code = "not-isometry"


class TooLargeError(OrthlatError):
    code = "too-large"


class IsotropicMirrorError(OrthlatError):
    code = "isotropic-mirror"


class NotIsotropicError(OrthlatError):
    code = "not-isotropic"


class NotOrthogonalError(OrthlatError):
    code = "not-orthogonal"


class NotUnimodularError(OrthlatError):
    code = "not-unimodular"


class ZeroScaleError(OrthlatError):
    code = "zero-scale"


class SingularScaleError(OrthlatError):
    code = "singular-scale"


class WrongNormError(OrthlatError):
    code = "wrong-norm"


class NotRootError(OrthlatError):
    code = "not-root"


class MissingSplittingError(OrthlatError):
    code = "missing-splitting"


class EquivalenceFailsError(OrthlatError):
    code = "equivalence-fails"


class InternalSolveFailureError(OrthlatError):
    code = "internal-solve-failure"
