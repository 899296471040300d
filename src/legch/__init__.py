"""Linearized Legendrian contact homology over GF(2).

The package computes the algebraic invariants that a Chekanov-Eliashberg
differential graded algebra carries once an augmentation is chosen:
linearized (co)homology, the induced A-infinity structure on the cochain
complex, cup and Massey products, the transferred minimal model, order-n
linearized cohomology via the truncated bar complex, a Poincare-style
duality certificate, and mirror-comparison fingerprints.

Everything is exact arithmetic over GF(2); there are no tolerances.
"""


class ContractError(Exception):
    """Bad input: malformed file, invalid DGA, out-of-range argument."""


class InternalConsistencyError(Exception):
    """A mathematical identity that must hold was violated (a bug trap)."""


def check_budget(name: str, limit: int, count: int, what: str, *args) -> None:
    """The one refusal of a named budget: raise ``ContractError`` reading
    ``what % (*args, count)`` then "the budget NAME = LIMIT" when ``count``
    exceeds ``limit``, and admit ``count == limit``.  Every budget constant
    stays in its own module and is passed in here as read there."""
    if count > limit:
        raise ContractError("%s the budget %s = %d" % (what % (*args, count), name, limit))


def assemble(cls: type, *fields, **attributes):
    """``cls(*fields)`` with ``attributes`` set besides, for a dataclass
    ``cls``, without ``__post_init__``: for a builder that has just
    established what that pass would check (each caller proves it beside
    the call).  The public constructor still validates every other input."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, fields), **attributes)
    return obj


__all__ = ["ContractError", "InternalConsistencyError", "check_budget"]
__version__ = "0.1.0"
