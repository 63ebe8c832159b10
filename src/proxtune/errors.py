"""Exception types shared across the package."""


class ProxtuneError(Exception):
    """Base class for all package errors."""


class ValidationError(ProxtuneError):
    """Parameter or configuration validation failed."""


class InvalidDimensionError(ValidationError):
    """Ambient dimension too small."""


class InfeasibleInitializationError(ValidationError):
    """Requested initialization targets are geometrically impossible."""


class NumericalInputError(ProxtuneError):
    """Non-finite values encountered where finite numerics are required."""


class SingularSystemError(ProxtuneError):
    """A linear solve failed or left an unacceptable residual."""


class NonConvergenceError(ProxtuneError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IllConditionedEtaError(ProxtuneError):
    """The 2x2 system for the orthogonal variance components is ill
    conditioned, which signals an inverse step-size below the validity
    region of the deterministic map."""


class SimulationError(ProxtuneError):
    """Failure inside the empirical runner, tagged with the iteration."""

    def __init__(self, iteration, message):
        # both arguments stay in args so the error survives a pickle round trip
        super().__init__(iteration, message)
        self.iteration = iteration

    def __str__(self):
        return f"iteration {self.args[0]}: {self.args[1]}"


class PredictionError(ProxtuneError):
    """Failure inside the trajectory predictor, tagged with the step."""

    def __init__(self, step, message):
        super().__init__(step, message)
        self.step = step

    def __str__(self):
        return f"step {self.args[0]}: {self.args[1]}"


class NoFeasiblePointError(ProxtuneError):
    """No grid point satisfies the tuning policy."""

    def __init__(self, message, best_floor=None, best_point=None):
        super().__init__(message)
        self.best_floor = best_floor
        self.best_point = best_point
