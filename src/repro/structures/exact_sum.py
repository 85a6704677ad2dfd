"""An exact running sum of a float multiset under insertions and removals.

The sliding-AVG oracle needs the exactly rounded window mean at every step
(a value can sit exactly on the mean, where a last-ulp error flips the
strict predicate).  ``math.fsum`` over the window gives it in O(w) per
step.  :class:`ExactSum` gives the same float in O(#partials): it keeps
Shewchuk's non-overlapping partials — the representation ``math.fsum``
builds internally — and grows them by ``x`` on every insertion and by
``-x`` on every removal, so their exact sum is always the exact sum of the
members.  ``math.fsum`` of the partials is then the correctly rounded sum
of the members, which is what ``math.fsum`` of the members returns.

That equality needs both sums to stay clear of overflow.  Members of
magnitude ``2**960`` or more (and non-finite ones) therefore never enter
the partials; while any is present, :meth:`ExactSum.fsum` sums the members
directly, which reproduces ``math.fsum``'s order-dependent
``OverflowError`` and its handling of infinities and NaN.  A zero total is
also answered by ``math.fsum`` over the members, so the sign of a zero sum
follows the interpreter's own rule rather than the partials' history.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

#: Members at or beyond this magnitude bypass the partials.  Below it, any
#: multiset of fewer than 2**60 members sums (exactly or in any order)
#: well inside the float range.
_HUGE = 2.0**960


class ExactSum:
    """Exact sum of a float multiset; read it with :meth:`fsum`."""

    def __init__(self) -> None:
        self._partials: list[float] = []
        self._huge = 0  # members kept out of the partials (see _HUGE)

    def add(self, x: float) -> None:
        """Insert ``x`` into the multiset."""
        if abs(x) < _HUGE:
            self._absorb(x)
        else:
            self._huge += 1

    def remove(self, x: float) -> None:
        """Remove ``x`` from the multiset (it must be a member)."""
        if abs(x) < _HUGE:
            self._absorb(-x)
        else:
            self._huge -= 1

    def _absorb(self, x: float) -> None:
        # Shewchuk's grow-expansion: fold x through the partials, keeping
        # every nonzero rounding error; the exact sum is preserved.
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def fsum(self, members: Iterable[float]) -> float:
        """``math.fsum(members)``, where ``members`` is the current multiset.

        ``members`` is iterated only while a member at or beyond ``2**960``
        (or a non-finite one) is present, or when the sum is zero;
        otherwise the answer comes from the partials alone.
        """
        if not self._huge:
            total = math.fsum(self._partials)
            if total:
                return total
        return math.fsum(members)
