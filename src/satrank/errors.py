"""Shared exception types and the JSON input type check.

PreconditionError signals bad caller input (CLI exit code 2), BudgetError
signals an enumeration that would exceed its configured cap (exit code 3).
"""


class PreconditionError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass


_JSON_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def expect(value, kind, what):
    """value if it has the JSON type kind (int, str, list or dict), else PreconditionError.

    A bool is not an int here, so true/false never stand in for a number.
    """
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise PreconditionError(f"{what} must be {_JSON_NAMES[kind]}, got {value!r:.60}")
    return value


def expect_each(values, kind, what):
    """values, a list, after expect on every item: one pass over the item
    types, and the item loop only when some type is not exactly kind."""
    if not set(map(type, values)) <= {kind}:
        for value in values:
            expect(value, kind, what)
    return values
