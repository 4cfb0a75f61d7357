"""Element-by-element enumeration of stabilizer groups: an independent test oracle.

The package never lists a group: it takes orders, phase consistency and AME
verdicts from Smith normal forms. These helpers list the group outright, by
breadth-first closure under multiplication, so tests can check those answers
against the definitions at desk scale.
"""

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from stabame.errors import BudgetExceededError
from stabame.pauli import PauliProduct, multiply
from stabame.stabgroup import StabilizerGroup

DEFAULT_ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class GroupElementSet:
    """Complete element list of a generated group (desk scale only)."""

    elements: tuple[PauliProduct, ...]


def enumerate_elements(
    g: StabilizerGroup, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> GroupElementSet:
    """Breadth-first closure under multiplication from identity and the generators."""
    seen = {PauliProduct.identity(g.dimension, g.parties)}
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        for gen in g.generators:
            nxt = multiply(cur, gen)
            if nxt not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(
                        f"group enumeration exceeds budget of {budget} elements"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return GroupElementSet(tuple(sorted(seen, key=PauliProduct.sort_key)))


def support_mask(p: PauliProduct) -> int:
    """Bit k set exactly when p acts on party k (nonzero X or Z exponent)."""
    return sum(1 << k for k, (x, z) in enumerate(zip(p.x_exp, p.z_exp)) if x or z)


def first_supported_subset(g: StabilizerGroup):
    """The AME criterion by enumeration.

    Returns the first floor(n/2)-subset in ``combinations`` order that holds a
    non-identity group element, with every such element supported inside it;
    ``(None, [])`` when there is none, i.e. when the state is AME.
    """
    n = g.parties
    nonidentity = [
        (support_mask(e), e) for e in enumerate_elements(g).elements if not e.is_identity()
    ]
    for sub in combinations(range(n), n // 2):
        inside = sum(1 << k for k in sub)
        offenders = [e for mask, e in nonidentity if not mask & ~inside]
        if offenders:
            return sub, offenders
    return None, []
