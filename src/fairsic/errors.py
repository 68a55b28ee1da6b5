"""Exception types shared across the package, and the frozen value base.

The CLI maps these onto exit codes, so new error conditions should reuse
one of the existing classes where the meaning fits.
"""


class FairsicError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FairsicError):
    """Input data violates a structural contract (shapes, pmfs, ranges)."""


class IncompleteTableError(ValidationError):
    """A tabulated rank backend is missing one or more subset entries."""


class NonRankInputError(FairsicError):
    """A set function failed the rank axioms where a rank function is required."""


class CapacityError(FairsicError):
    """An enumeration would exceed the configured budget."""


class ScenarioParseError(FairsicError):
    """A scenario document is malformed or carries unknown fields."""


def brief(value: object) -> str:
    """``repr(value)`` for a refusal message: whole up to 80 characters,
    else cut to 80 with "...", so a refusal stays one short line."""
    try:
        text = repr(value)
    except RecursionError:  # nested nearly as deep as the interpreter allows
        return f"a {type(value).__name__} nested too deeply to show"
    return text if len(text) <= 80 else text[:77] + "..."


class FrozenValue:
    """An immutable value whose ``__init__`` sets each of ``_fields`` by
    ``object.__setattr__``; assigning or deleting an attribute raises
    ``AttributeError``.  Values of one class with equal fields compare equal
    and hash alike, and repr as ``Name(field=value, ...)``.  Caches, set in
    ``__init__`` or by ``cached_property``, stay out of all three."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
