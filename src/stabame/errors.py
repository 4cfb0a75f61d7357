"""Shared exception types, and the decimal form of the integers messages print."""

import decimal
from decimal import Decimal


class BudgetExceededError(RuntimeError):
    """A size bound would be exceeded: the dense budget, the search budget, the
    search's party bound n <= 16, a built group's exponents or the nogo grid."""


class FactsError(ValueError):
    """A facts file is malformed or contains contradictory entries."""


def decimal_digits(n: int) -> str:
    """``str(n)`` for a count ``n >= 0``, also past Python's int-to-str digit limit.

    That limit (4300 digits) guards ``int()`` on input text, so it stays in
    force, and numbers read from input fit it; but a count computed from
    them, such as D**n or a number of candidates, may be longer, and a report
    or refusal must still print it exactly. Past the limit, n is split in
    halves by bits and rejoined with exact ``Decimal`` products, which are
    fast at any size, so the digits take near-linear time instead of the
    quadratic time of a direct conversion.
    """
    try:
        return str(n)
    except ValueError:  # past the digit limit
        pass
    powers = {}

    def two_to(w):
        if w not in powers:
            powers[w] = Decimal(2) ** w if w <= 1024 else two_to(w >> 1) * two_to(w - (w >> 1))
        return powers[w]

    def join(n, w):
        if w <= 1024:
            return Decimal(n)
        half = w >> 1
        high = n >> half
        return join(n - (high << half), half) + join(high, w - half) * two_to(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(join(n, n.bit_length()))
