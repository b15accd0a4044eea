"""Differential tests: the generating-set checks of the group axioms and the
action law against the exhaustive cubic loops, kept here as the reference."""

from __future__ import annotations

from itertools import combinations

import pytest

from orbitpieces.algebra import (
    GroupError,
    cyclic_group,
    dihedral_group,
    direct_product,
    generating_set,
    group_from_table,
    symmetric_group_3,
)
from orbitpieces.gspace import InstanceError, build_instance

GROUPS = {
    "Z6": lambda: cyclic_group(6),
    "S3": symmetric_group_3,
    "D4": lambda: dihedral_group(4),
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
}


def reference_table_error(mul) -> str | None:
    """The first group axiom the table breaks, checked on every triple."""
    n = len(mul)
    ids = [e for e in range(n) if all(mul[e][h] == h and mul[h][e] == h for h in range(n))]
    if not ids:
        return "no identity"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return "associativity fails"
    e = ids[0]
    for g in range(n):
        if not any(mul[g][h] == e and mul[h][g] == e for h in range(n)):
            return "has no inverse"
    return None


def reference_action_error(group, size: int, act) -> str | None:
    """The first action check the table breaks, with (gh)x = g(hx) checked
    for every g, h and x."""
    if any(sorted(row) != list(range(size)) for row in act):
        return "is not a permutation"
    if list(act[0]) != list(range(size)):
        return "identity element does not act"
    for g in range(group.order):
        for h in range(group.order):
            for x in range(size):
                if act[g][act[h][x]] != act[group.mul[g][h]][x]:
                    return "not compatible with the group"
    return None


def _swapped(table, p, q):
    out = [list(row) for row in table]
    (a, b), (c, d) = p, q
    out[a][b], out[c][d] = out[c][d], out[a][b]
    return out


def _table_error(mul) -> str | None:
    try:
        group_from_table(mul)
    except GroupError as exc:
        return str(exc)
    return None


def _action_error(group, act) -> str | None:
    try:
        build_instance(group, group.order, act, [], [], "exploratory")
    except InstanceError as exc:
        return str(exc)
    return None


def _agree(got: str | None, want: str | None) -> bool:
    return (got is None) == (want is None) and (want is None or want in got)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_table_check_rejects_exactly_what_the_cubic_check_rejects(name):
    mul = GROUPS[name]().mul
    n = len(mul)
    assert _table_error(mul) is None and reference_table_error(mul) is None
    seen = set()
    for i, j in combinations(range(n * n), 2):
        p, q = divmod(i, n), divmod(j, n)
        bad = _swapped(mul, p, q)
        want = reference_table_error(bad)
        got = _table_error(bad)
        assert _agree(got, want), (p, q, got, want)
        seen.add(want)
    # the swaps reach every check, not only the identity
    assert seen >= {"no identity", "associativity fails", None}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_action_check_rejects_exactly_what_the_cubic_check_rejects(name):
    group = GROUPS[name]()
    n = group.order
    act = [list(row) for row in group.mul]  # the regular action
    assert _action_error(group, act) is None and reference_action_error(group, n, act) is None
    seen = set()
    # every swap of two entries; those within one row keep every row a
    # permutation, so the law check decides them
    for i, j in combinations(range(n * n), 2):
        p, q = divmod(i, n), divmod(j, n)
        bad = _swapped(act, p, q)
        want = reference_action_error(group, n, bad)
        got = _action_error(group, bad)
        assert _agree(got, want), (p, q, got, want)
        seen.add(want)
    assert seen >= {"is not a permutation", "identity element does not act",
                    "not compatible with the group"}


def test_generating_sets_of_small_groups():
    assert generating_set(cyclic_group(6).mul) == [1]
    # (0,1) generates the Z4 factor; (1,0) is the least element outside it
    assert generating_set(direct_product(cyclic_group(2), cyclic_group(4)).mul) == [1, 4]
    assert generating_set(cyclic_group(1).mul) == []


def _z2z4_twisted(a: int, b: int) -> int:
    # Z2×Z4 (label i*4 + j) with one added to j when (1,1) meets an element
    # of the coset (1,*): right multiplication by (0,1) stays associative.
    (i, j), (k, l) = divmod(a, 4), divmod(b, 4)
    twist = int(k == 1 and (i, j) == (1, 1))
    return (i + k) % 2 * 4 + (j + l + twist) % 4


def test_table_that_fails_only_at_the_second_generator():
    mul = [[_z2z4_twisted(a, b) for b in range(8)] for a in range(8)]
    assert generating_set(mul) == [1, 4]
    assert all(mul[mul[a][b]][1] == mul[a][mul[b][1]] for a in range(8) for b in range(8))
    assert reference_table_error(mul) == "associativity fails"
    with pytest.raises(GroupError, match=r"associativity fails at \(\d,\d,4\)"):
        group_from_table(mul)


def test_action_that_fails_only_at_the_second_generator():
    # ρ(i, j) = T^j P^i on the points of Z2×Z4: T is the regular translation
    # by (0,1) and P swaps points 0 and 1, which T does not commute with.
    group = direct_product(cyclic_group(2), cyclic_group(4))
    t, p = group.mul[1], (1, 0, 2, 3, 4, 5, 6, 7)
    act = []
    for i in range(2):
        for j in range(4):
            row = list(p) if i else list(range(8))
            for _ in range(j):
                row = [t[x] for x in row]
            act.append(row)
    assert generating_set(group.mul) == [1, 4]
    assert all(act[1][act[h][x]] == act[group.mul[1][h]][x] for h in range(8) for x in range(8))
    assert reference_action_error(group, 8, act) == "not compatible with the group"
    with pytest.raises(InstanceError, match=r"not compatible with the group at \(g=4,"):
        build_instance(group, 8, act, [], [], "exploratory")


def test_order_five_loop_is_not_a_group():
    # A Latin square with identity 0 (a loop) that is not associative:
    # (1·1)·2 = 2 but 1·(1·2) = 4.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert reference_table_error(loop) == "associativity fails"
    with pytest.raises(GroupError, match="associativity fails"):
        group_from_table(loop)
