"""Shared exception types, and the size text their messages print."""


class PrecisionError(ArithmeticError):
    """A result is indistinguishable from zero (or too coarse) at working precision."""


class BudgetError(RuntimeError):
    """An enumeration or table would exceed the configured size budget."""


class ConstructionError(RuntimeError):
    """A requested object does not exist or could not be built from the given data."""


def int_text(n: int) -> str:
    """n in decimal, or ~2**k where str(n) would pass the int-string digit
    limit; a refusal message that prints a size through this cannot fail."""
    try:
        return str(n)
    except ValueError:
        return f"~2**{n.bit_length() - 1}"
