"""The class census as a lattice meet: the oracle of the census mod p.

`division.trace_zero_value_classes` works on coordinates mod p.  This
module keeps the census it replaced, which grows the base group by each
member's natural values into a lattice H_m, meets the window with every
H_m and walks the meet's box of classes, each reduced to its canonical
representative in the unit box of the base.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from brauerval.division import AlgebraValueData
from brauerval.lattices import Lattice, ValueVector


def class_representative(base: Lattice, vec: ValueVector) -> ValueVector:
    """Canonical representative of vec modulo base, inside the unit box.

    With vec = sum (a_i/m) b_i over the basis b_i = rows[i]/denominator,
    the representative keeps each coefficient mod 1: sum (a_i % m) b_i / m.
    """
    nums, m = base.scaled_coords(vec)
    reduced = [a % m for a in nums]
    return ValueVector.canonical(
        [sum(a * row[j] for a, row in zip(reduced, base.rows)) for j in range(base.dim)],
        m * base.denominator,
    )


def excluded_trace_class(data: AlgebraValueData) -> ValueVector:
    """Class of the unique monomial with nonzero reduced trace."""
    vec = sum((f.as_value for f in data.factors), ValueVector.zero(data.depth))
    return class_representative(data.base_group, vec.scale(data.degree - 1))


def lattice_meet_census(
    members: Iterable[AlgebraValueData], window: Lattice
) -> frozenset[ValueVector]:
    """(window meet every H_m)/base minus the excluded classes, H_m the base
    grown by member m's natural values; the members must share one base
    group inside the window, and every natural value have order 1 or p."""
    members = list(members)
    base = members[0].base_group
    assert window.contains_lattice(base)
    meet = window
    excluded = set()
    for data in members:
        assert data.base_group == base
        values = data.natural_values()
        assert all(data.degree % base.order_of_class(v) == 0 for v in values)
        meet = meet.intersect(base.extended(values))
        excluded.add(excluded_trace_class(data))
    # both Hermite bases are lower triangular, so the box of diagonal
    # ratios over the meet's basis covers every class of meet/base
    ratios = [
        (b[i] * meet.denominator) // (m[i] * base.denominator)
        for i, (b, m) in enumerate(zip(base.rows, meet.rows))
    ]
    classes = set()
    for coeffs in itertools.product(*(range(r) for r in ratios)):
        nums = [sum(c * row[j] for c, row in zip(coeffs, meet.rows)) for j in range(base.dim)]
        classes.add(class_representative(base, ValueVector.canonical(nums, meet.denominator)))
    return frozenset(classes - excluded)
