"""Exception types shared across the package."""


class LoomfoldError(Exception):
    """Base class for all package errors."""


class NotGcm(LoomfoldError):
    """The input matrix violates the generalized Cartan matrix axioms."""


class IndefiniteType(LoomfoldError):
    """The matrix is neither of finite nor of affine type."""


class NotAffine(LoomfoldError):
    """An affine-only operation was applied to a non-affine matrix."""


class FormMismatch(LoomfoldError):
    """The invariant form is inconsistent with the Cartan matrix."""


class NotAnAutomorphism(LoomfoldError):
    """The permutation does not preserve the Cartan matrix."""


class UnknownType(LoomfoldError):
    """No construction is available for the requested type label."""


class GeneratorAssertionFailed(LoomfoldError):
    """A constructed generator system failed its defining relations."""


class InconsistentPropagation(LoomfoldError):
    """Two bracket words for the same element were sent to different images."""


class ScopeViolation(LoomfoldError):
    """The requested construction is outside its supported assumptions."""


class P2Violation(LoomfoldError):
    """A polynomial family violates the nonvanishing-on-the-diagonal condition."""


class DivisionNotExact(LoomfoldError):
    """A polynomial quotient is not a polynomial
    (`polys.power_difference_ratio`)."""


class JobError(LoomfoldError):
    """A CLI job description failed validation."""
