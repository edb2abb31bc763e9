"""The racks of order <= 4, and the re-checks ``inner_augmentation`` and
``induced_rack`` read off their constructions, swept on every one of them.

The census reproduces the published counts of racks and quandles up to
isomorphism (OEIS A181771 and A181769).  On every labelled rack of each
order, the inner augmentation must satisfy the augmentation identity, be
accepted by the verifying constructor, induce the rack back, and carry the
group that all n columns generate; and the induced table must be a rack.
"""

from itertools import product

import pytest
from rack_census import census, is_quandle, labelled_racks

from rackyd.racks import (
    AugmentedRack,
    FiniteGroup,
    FiniteShelf,
    _induced_table,
    check_augmented,
    check_shelf,
    induced_rack,
    inner_augmentation,
)


@pytest.mark.parametrize("n, racks, quandles", [(1, 1, 1), (2, 2, 1), (3, 6, 3), (4, 19, 7)])
def test_census_counts_racks_and_quandles_up_to_isomorphism(n, racks, quandles):
    tables = census(n)
    assert len(tables) == racks
    assert sum(map(is_quandle, tables)) == quandles
    assert all(check_shelf(FiniteShelf(range(n), op)).is_rack for op in tables)


def test_the_search_finds_exactly_the_racks_among_all_tables_of_order_three():
    tables = (tuple(entries[x:x + 3] for x in (0, 3, 6))
              for entries in product(range(3), repeat=9))
    racks = {op for op in tables if check_shelf(FiniteShelf(range(3), op)).is_rack}
    assert set(labelled_racks(3)) == racks


@pytest.mark.parametrize("n", range(5))
def test_inner_augmentation_of_every_rack_satisfies_the_references(n):
    for op in labelled_racks(n):
        shelf = FiniteShelf(range(n), op)
        aug = inner_augmentation(shelf)
        assert check_augmented(aug).ok, op
        assert _induced_table(aug) == shelf, op
        assert check_shelf(induced_rack(aug)).is_rack, op
        columns = list(zip(*op))
        group, index = FiniteGroup.from_permutations(columns, n)
        assert aug.group == group, op
        perms = sorted(index, key=index.get)
        assert aug.action == tuple(tuple(g[x] for g in perms) for x in range(n)), op
        assert aug.p == tuple(index[c] for c in columns), op
        verified = AugmentedRack(shelf.elements, group, [list(r) for r in aug.action], aug.p)
        assert verified == aug, op
