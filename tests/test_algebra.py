from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from orbitpieces.algebra import (
    MAX_GENERATED_ORDER,
    GroupError,
    all_subgroups,
    build_group,
    close_neighborhood_family,
    conjugate,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_generators,
    group_from_table,
    is_subgroup,
    subgroup_closure,
    symmetric_closure,
    symmetric_group_3,
)
from orbitpieces.bits import bits, mask_of, to_list
from orbitpieces.gspace import _group_catalogue


def test_cyclic_group_table():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.mul[1][3] == 0
    assert g.inv == (0, 3, 2, 1)
    assert g.full == 0b1111


def test_identity_relabelled_to_zero():
    # Z2 written with the identity at index 1
    g = group_from_table([[1, 0], [0, 1]])
    assert g.mul[0][0] == 0
    assert g.mul[1][1] == 0
    assert g.inv == (0, 1)


def test_table_validation_errors():
    with pytest.raises(GroupError):
        group_from_table([])
    with pytest.raises(GroupError, match="row 0 has length"):
        group_from_table([[0, 1]])
    with pytest.raises(GroupError, match="out of range"):
        group_from_table([[0, 1], [1, 5]])
    with pytest.raises(GroupError, match="out of range"):
        group_from_table([[0, True], [True, 0]])
    with pytest.raises(GroupError, match="no identity"):
        group_from_table([[1, 0], [1, 0]])
    # the multiplicative monoid {1, 0}: associative with identity, but the
    # absorbing element has no inverse
    with pytest.raises(GroupError, match="has no inverse"):
        group_from_table([[0, 1], [1, 1]])


def test_generated_s3():
    g = symmetric_group_3()
    assert g.order == 6
    # every element times its inverse is the identity
    for a in range(6):
        assert g.mul[a][g.inv[a]] == 0


def test_generator_validation():
    with pytest.raises(GroupError, match="no generators"):
        group_from_generators([])
    with pytest.raises(GroupError, match="not a permutation"):
        group_from_generators([(0, 0, 1)])
    with pytest.raises(GroupError, match="not a permutation"):
        group_from_generators([(True, 0)])
    with pytest.raises(GroupError, match="degree"):
        group_from_generators([(1, 0), (0, 1, 2)])


def _composed_table(generators):
    """The table by composing every pair of enumerated permutations."""

    def compose(p, q):
        return tuple(p[q[x]] for x in range(len(p)))

    gens = [tuple(g) for g in generators]
    identity = tuple(range(len(gens[0])))
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(tuple(index[compose(a, b)] for b in elems) for a in elems)


def _cycle(n):
    return tuple((x + 1) % n for x in range(n))


@pytest.mark.parametrize("gens, order", [
    ([(1, 0, 2), _cycle(3)], 6),
    ([_cycle(4), (0, 3, 2, 1)], 8),
    ([_cycle(7), tuple(-x % 7 for x in range(7))], 14),
    ([(1, 0, 2, 3, 4), _cycle(5)], 120),
    ([(1, 0, 2, 3, 4, 5), _cycle(6)], 720),
], ids=["S3", "D4", "D7", "S5", "S6"])
def test_generated_table_matches_composition(gens, order):
    g = group_from_generators(gens)
    assert g.order == order
    assert g.mul == _composed_table(gens)


def test_generated_group_size_cap():
    s5 = [(1, 0, 2, 3, 4), _cycle(5)]
    assert group_from_generators(s5, max_order=120).order == 120
    with pytest.raises(GroupError, match="size cap"):
        group_from_generators(s5, max_order=119)


def test_s7_exceeds_the_default_size_cap():
    # S6 (720) is accepted above; S7 would need a 5,040 × 5,040 table
    assert MAX_GENERATED_ORDER >= 720
    with pytest.raises(GroupError, match=f"size cap of {MAX_GENERATED_ORDER} elements"):
        group_from_generators([(1, 0, 2, 3, 4, 5, 6), _cycle(7)])


def test_build_group_dispatch():
    assert build_group({"mul": [[0, 1], [1, 0]]}).order == 2
    assert build_group({"generators": [(1, 0)]}).order == 2
    with pytest.raises(GroupError):
        build_group({"neither": 1})


def test_dihedral_order():
    assert dihedral_group(4).order == 8


def test_direct_product_indexing():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    # (1,0)*(0,1) = (1,1) -> index 1*3 + 1
    assert g.mul[3][1] == 4


def test_symmetric_closure():
    g = cyclic_group(4)
    assert symmetric_closure(0, g) == 1
    assert symmetric_closure(0b0010, g) == 0b1011  # {1} -> {0,1,3}


def test_conjugate_in_abelian_group_is_identity():
    g = cyclic_group(5)
    for h in range(5):
        assert conjugate(0b10110, h, g) == 0b10110


def test_all_subgroups_z4():
    g = cyclic_group(4)
    assert all_subgroups(g) == [0b0001, 0b0101, 0b1111]
    for m in all_subgroups(g):
        assert is_subgroup(m, g)
        assert subgroup_closure(m, g) == m


def test_all_subgroups_s3_count():
    # 1 trivial + 3 transpositions + 1 rotation subgroup + S3 itself
    assert len(all_subgroups(symmetric_group_3())) == 6


def _scan_subgroups(g):
    """The reference: every mask with the identity, tested for closure."""
    out = [m for m in range(1, g.full + 1) if m & 1 and is_subgroup(m, g)]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def _small_groups():
    yield from _group_catalogue(16)
    yield dihedral_group(8)
    yield direct_product(cyclic_group(2), cyclic_group(8))


@pytest.mark.parametrize("g", _small_groups(), ids=lambda g: f"{g.name}-{g.order}")
def test_all_subgroups_matches_the_exhaustive_scan(g):
    assert all_subgroups(g) == _scan_subgroups(g)


@pytest.mark.parametrize(
    "g, count",
    [
        (group_from_generators([(1, 0, 2, 3), (1, 2, 3, 0)]), 30),  # S4
        (group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]), 156),  # S5
        (direct_product(cyclic_group(4), cyclic_group(6)), 16),
        (cyclic_group(32), 6),
    ],
    ids=["S4", "S5", "Z4xZ6", "Z32"],
)
def test_all_subgroups_known_counts(g, count):
    subs = all_subgroups(g)
    assert len(subs) == count
    assert subs == sorted(set(subs), key=lambda m: (m.bit_count(), m))
    assert subs[0] == 1 and subs[-1] == g.full
    assert all(subgroup_closure(m, g) == m for m in subs)


def test_family_closure_order_is_first_seen():
    g = cyclic_group(4)
    fam = close_neighborhood_family([0b0010], g)
    # {1} symmetrizes to {0,1,3}; conjugation adds nothing in an abelian
    # group; the full group is appended last
    assert fam.members == (0b1011, 0b1111)
    assert fam.index(0b1011) == 0
    assert len(fam) == 2
    assert list(fam) == [0b1011, 0b1111]


def test_family_closure_conjugates_in_s3():
    g = symmetric_group_3()
    fam = close_neighborhood_family([0b000010], g)
    # the conjugates of one transposition neighbourhood appear before the
    # full group, all symmetric and containing the identity
    assert fam.members[-1] == g.full
    for v in fam.members:
        assert v & 1
        assert all(v >> g.inv[e] & 1 for e in bits(v))
        for h in range(g.order):
            assert conjugate(v, h, g) in fam.members


def test_full_group_never_mid_list():
    g = cyclic_group(3)
    fam = close_neighborhood_family([g.full, 0b010], g)
    assert fam.members.count(g.full) == 1
    assert fam.members[-1] == g.full


orders = st.integers(min_value=1, max_value=8)


@settings(deadline=None)
@given(orders, st.integers(min_value=0, max_value=255))
def test_subgroup_closure_is_subgroup(n, seed):
    g = cyclic_group(n)
    m = subgroup_closure(seed & g.full, g)
    assert is_subgroup(m, g)


@settings(deadline=None)
@given(orders, st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=7))
def test_symmetric_closure_idempotent_and_conjugation_closed(n, seed, h):
    g = cyclic_group(n)
    v = symmetric_closure(seed & g.full, g)
    assert symmetric_closure(v, g) == v
    fam = close_neighborhood_family([seed & g.full], g)
    assert conjugate(fam[0], h % g.order, g) in fam.members


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_generated_groups_validate(p, q):
    g = group_from_generators([tuple(p), tuple(q)])
    assert g.order >= 1
    assert g.mul[0] == tuple(range(g.order))


def test_mask_helpers_agree():
    assert to_list(mask_of([2, 0])) == [0, 2]
