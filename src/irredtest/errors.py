"""Exception types shared across the package, and _shown for the numbers
in their messages."""


def _shown(n: int) -> str:
    """n as a refusal message shows it: in digits, or past 20 digits by its
    bit length, since the digits of a huge int are long to print and past
    sys.get_int_max_str_digits() cannot be printed at all."""
    if -10**20 < n < 10**20:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


class Error(Exception):
    """Base class for every error raised by this package."""


class NonPrimeCharacteristic(Error, ValueError):
    """Field characteristic must be prime."""


class ReducibleModulus(Error, ValueError):
    """Extension modulus factors over the base field."""


class OrderOverflow(Error, OverflowError):
    """Field order (or point count) does not fit the supported 64-bit range."""


class DivisionByZero(Error, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class PolySyntaxError(Error, ValueError):
    """Polynomial text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(Error, ValueError):
    """Variable index outside the declared arity."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ArityMismatch(Error, ValueError):
    """Operands or points disagree on the number of variables."""


class FieldMismatch(Error, ValueError):
    """Operands live over different fields."""


class EmptyList(Error, ValueError):
    """An operation that needs at least one item got none."""


class RangeError(Error, ValueError):
    """Argument outside its documented range."""


class TooLarge(Error, ValueError):
    """Exhaustive enumeration would exceed the configured limit."""


class DomainTooLarge(Error, ValueError):
    """Exact point counting over the whole domain is out of reach."""


class InfeasibleOrder(Error, ValueError):
    """No sample size separates the two hypotheses at this field order."""


class UnsupportedSize(Error, ValueError):
    """Requested construction exceeds the supported work bound."""
