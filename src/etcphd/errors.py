"""Exception types shared across the package."""


class FilterError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitError(FilterError):
    """A combinatorial cap was exceeded (partition counts grow as Bell numbers)."""


class SingularEvaluationError(FilterError):
    """Log-derivative requested at a point where the p.g.f. is (numerically) zero."""


class DegeneratePriorError(FilterError):
    """Prior intensity has zero mass, or the prior cannot explain the data."""


class DegenerateUpdateError(FilterError):
    """All partition weights vanished; the update is numerically impossible."""


class DivisionSingularityError(FilterError):
    """A cell coefficient is zero while its partition still carries weight."""


class NumericalOverflowError(FilterError):
    """A coefficient product left the representable range (guard at 1e300)."""


class ModelViolationError(FilterError):
    """The sensor model violates a structural requirement (e.g. zero clutter density)."""


class ModelMismatchError(FilterError):
    """A reduction reference was fed a model outside its family."""


class EvaluationError(FilterError):
    """A grid functional received a non-finite value; the message names the point."""


class ValidationError(FilterError):
    """Scenario validation failed; carries every violation, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
