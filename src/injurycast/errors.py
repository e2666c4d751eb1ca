"""Exception hierarchy shared across the package."""


class InjurycastError(Exception):
    """Base class for all package errors."""


class MalformedRow(InjurycastError):
    """A CSV row could not be parsed; carries file, line number and column."""

    def __init__(self, path, line, column, message):
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}:{line} column '{column}': {message}")


class UnknownPlayer(InjurycastError):
    pass


class DuplicateSession(InjurycastError):
    pass


class NegativeWorkload(InjurycastError):
    """A workload value is negative or violates a workload ordering invariant."""


class EmptySeries(InjurycastError):
    pass


class MissingWindow(InjurycastError):
    """A rolling window contains no sessions."""


class TooFewMinority(InjurycastError):
    pass


class FeatureOverflow(InjurycastError):
    """Feature values so near the float limit that arithmetic on them overflows."""


class EmptyNode(InjurycastError):
    pass


class EmptyTable(InjurycastError):
    pass


class MissingColumn(InjurycastError):
    pass


class NonConvergence(InjurycastError):
    def __init__(self, iterations, grad_norm):
        self.iterations = iterations
        self.grad_norm = grad_norm
        super().__init__(
            f"gradient descent did not converge after {iterations} iterations "
            f"(final gradient norm {grad_norm:.3e})"
        )


class OneClassOnly(InjurycastError):
    pass


class SyntheticEvaluation(InjurycastError):
    """An evaluation fold holds synthetic (oversampled) rows."""


class ClassTooSmall(InjurycastError):
    pass


class InsufficientHistory(InjurycastError):
    pass


class ConfigInvalid(InjurycastError):
    pass


class NotUtf8(InjurycastError):
    """A text input holds a byte sequence that is not UTF-8; names the file."""

    def __init__(self, path, exc: UnicodeDecodeError):
        super().__init__(f"{path}: cannot decode byte 0x{exc.object[exc.start]:02x} "
                         f"as utf-8 ({exc.reason})")
