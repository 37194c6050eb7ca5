"""Exception types shared across the package."""


class BoxsamplerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BoxsamplerError, ValueError):
    """A sampler setting that cannot sample: a count below 1, a negative
    width or bound, a time limit that is not positive."""


class _Located(BoxsamplerError):
    """`message`, about the token at `offset` of `text` when there is one:
    the token starts on `line` (counted from 1) at `col` (from 0), and the
    error reads ``line:col: message``.  With no text, `line` is None."""

    def __init__(self, message: str, text: str | None = None, offset: int = 0):
        self.message, self.offset, self.line, self.col = message, offset, None, None
        if text is not None:
            self.line = text.count("\n", 0, offset) + 1
            self.col = offset - text.rfind("\n", 0, offset) - 1
            message = f"{self.line}:{self.col}: {message}"
        super().__init__(message)


class UnsupportedFeature(_Located):
    """Input uses a construct outside the supported fragment (div, mod,
    quantifiers, multi-dimensional arrays, functions of arity > 1, ...);
    located when the SMT-LIB parser raises it at a node."""


class UnassignedSymbol(BoxsamplerError):
    """A free symbol has no value in the model under evaluation."""

    def __init__(self, name: str):
        super().__init__(f"symbol {name!r} is not assigned in the model")
        self.name = name


class NotAModel(BoxsamplerError):
    """A model handed in as satisfying a formula does not satisfy it."""


class SmtSyntaxError(_Located):
    """Malformed SMT-LIB input, located at its token."""


class NegativeSlack(BoxsamplerError):
    """Internal contract violation: a literal being strengthened is not
    satisfied by the guiding model."""


class DivisorZero(BoxsamplerError):
    """Division by zero in sign-directed integer division."""


class EmptyIntersection(BoxsamplerError):
    """Interval intersection produced an empty interval for some leaf."""

    def __init__(self, key_text: str):
        super().__init__(f"empty interval for {key_text}")
        self.key_text = key_text


class NoWitness(BoxsamplerError):
    """No index distinguishes two array values claimed to be unequal."""


class ModelParseError(BoxsamplerError):
    """Solver model output could not be coerced into the finite
    default-plus-exceptions representation."""


class SolverFailure(BoxsamplerError):
    """The external solver process failed, timed out, or desynchronized."""


class UnsatFormula(BoxsamplerError):
    """The input formula has no models."""


class TimeLimit(BoxsamplerError):
    """The run's deadline passed inside a step that reads the clock as it
    goes (strengthening); the sampler stops the run with "total time
    limit"."""


class SoundnessViolation(BoxsamplerError):
    """A produced sample failed re-verification against the input formula.
    Always indicates an internal defect; aborts the run."""


class BitmapMismatch(BoxsamplerError):
    """Coverage bitmaps do not share node numbering and cannot be combined."""
