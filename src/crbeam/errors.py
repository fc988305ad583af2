"""Exception types shared across the package."""


class CrbeamError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CrbeamError):
    pass


class NonHermitian(CrbeamError):
    pass


class NotPSD(CrbeamError):
    pass


class SingularFIM(CrbeamError):
    pass


class SingularCovariance(CrbeamError):
    pass


class Infeasible(CrbeamError):
    """Constraint set certified empty.  The multi-user designs always attach a
    Farkas ray of their SDR as ``certificate``; the single-user closed forms never do."""

    def __init__(self, msg, certificate=None):
        super().__init__(msg)
        self.certificate = certificate


class RankExcess(CrbeamError):
    """SDR solution has a beamformer block of numerical rank > 1 (the relaxed solution is attached)."""

    def __init__(self, msg, solution=None):
        super().__init__(msg)
        self.solution = solution


class ZeroUsefulPower(CrbeamError):
    pass


class ResidualNotPSD(CrbeamError):
    pass


class TooManyStreams(CrbeamError):
    pass


class SingularGram(CrbeamError):
    pass


class DegenerateSignal(CrbeamError):
    pass


class DegenerateDenominator(CrbeamError):
    pass


class SolverFailure(CrbeamError):
    """Solver stopped without an Optimal status where one was required."""
