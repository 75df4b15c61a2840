"""Exception types shared across the package."""


class QesError(Exception):
    """Base class for all qesforge errors."""


class ParseError(QesError):
    """Source text could not be parsed.

    offset is the byte offset into the source where the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class DomainEvaluationError(QesError):
    """Evaluation left the real domain (tan pole, division by zero, sqrt of negative)."""

    def __init__(self, reason: str, x0: float):
        super().__init__(f"{reason} at x = {x0!r}")
        self.x0 = x0


class InadmissibleInputError(QesError):
    """The generating function failed admissibility screening.

    Carries the full report so callers can show which checks failed.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NegativeDiscriminantError(QesError):
    """S(x) < 0 beyond roundoff tolerance; the construction does not exist there."""

    def __init__(self, x: float, value: float):
        super().__init__(f"discriminant S = {value:.6g} < 0 at x = {x:.12g}")
        self.x = x
        self.value = value


class PatchFailureError(QesError):
    """A local-series condition required at a special point does not hold."""

    def __init__(self, x: float, reason: str):
        super().__init__(f"patch at x = {x:.12g}: {reason}")
        self.x = x


class SeamMismatchError(PatchFailureError):
    """Series and direct evaluation disagree at a patch-window boundary."""

    def __init__(self, x: float, mismatch: float, tol: float):
        super().__init__(x, f"seam mismatch {mismatch:.3e} exceeds {tol:.1e}")
        self.mismatch = mismatch


class BranchInconsistencyError(QesError):
    """No square-root sign assignment is odd about the midpoint and continuous."""


class UnremovablePoleError(QesError):
    def __init__(self, x: float, reason: str):
        super().__init__(f"unremovable pole at x = {x:.12g}: {reason}")
        self.x = x


class VplusPoleError(QesError):
    """V_plus is singular at a point where U = -2*eps0 on the locally active branch.

    The partner potential stays regular on the other branch; rebuild with the
    mirrored sign assignment if V_plus is needed near this point.
    """

    def __init__(self, x: float):
        super().__init__(
            f"V_plus has a 1/(x-c0)^2 pole at x = {x:.12g} on the active branch; "
            "the mirrored branch is regular there"
        )
        self.x = x


class QuadratureNonconvergenceError(QesError):
    def __init__(self, a: float, b: float, estimate: float, tol: float):
        super().__init__(
            f"quadrature over [{a:.12g}, {b:.12g}] error estimate {estimate:.3e} > {tol:.1e}"
        )

