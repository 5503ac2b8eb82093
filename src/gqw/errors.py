"""Exception hierarchy for the workbench."""


class GqwError(Exception):
    """Base class for all workbench errors."""


class ExprSyntaxError(GqwError):
    """Malformed expression text.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownSymbolError(ExprSyntaxError):
    """An identifier that is neither reserved nor in the caller's vocabulary."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown symbol '{name}'", offset)
        self.name = name


class EvaluationError(GqwError):
    """Numeric evaluation failed (unbound symbol, division by zero, overflow)."""


class UnboundSymbolError(EvaluationError):
    """An expression names a symbol the environment does not bind: it fails
    at every point, so a sampler must not skip the point and draw again."""


class SamplingError(GqwError):
    """The domain sampler could not produce an admissible point."""


class ChartMismatchError(GqwError):
    """Two tensors built on different charts were combined."""


class DegreeError(GqwError):
    """A form degree outside the supported range was requested."""


class DegeneracyError(GqwError):
    """The candidate symplectic form is degenerate at a sample point."""


class NotQuantomorphismError(GqwError):
    """A vector field failed the connection-preservation precondition."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class UnsupportedFieldError(GqwError):
    """A vector field left the structured class the bundle operations cover."""


class NumericError(GqwError):
    """A group element or algebra element is invalid: a matrix with
    non-positive determinant, a zero circle phase, or an algebra element
    that is not traceless or whose u(1) part is not imaginary."""


class DegenerateParameterError(GqwError):
    """A parameter value that collapses a construction (e.g. rotation by 2*pi*k)."""


class SystemSpecError(GqwError):
    """A system description file failed to parse or validate."""
