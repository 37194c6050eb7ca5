"""Exception types shared across the package."""


class BoxsamplerError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedFeature(BoxsamplerError):
    """Input uses a construct outside the supported fragment (div, mod,
    quantifiers, multi-dimensional arrays, functions of arity > 1, ...)."""


class UnassignedSymbol(BoxsamplerError):
    """A free symbol has no value in the model under evaluation."""

    def __init__(self, name: str):
        super().__init__(f"symbol {name!r} is not assigned in the model")
        self.name = name


class NotAModel(BoxsamplerError):
    """A model handed in as satisfying a formula does not satisfy it."""


class SmtSyntaxError(BoxsamplerError):
    """Malformed SMT-LIB input: `message` about the token at `offset` of
    `text`, which starts on `line` (counted from 1) at `col` (from 0)."""

    def __init__(self, message: str, text: str, offset: int):
        self.offset = offset
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset) - 1
        super().__init__(f"{self.line}:{self.col}: {message}")


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


class SoundnessViolation(BoxsamplerError):
    """A produced sample failed re-verification against the input formula.
    Always indicates an internal defect; aborts the run."""


class BitmapMismatch(BoxsamplerError):
    """Coverage bitmaps do not share node numbering and cannot be combined."""
