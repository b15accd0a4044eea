"""Vaught transforms, classical and localized, in exact finite-discrete form.

The Baire-category clauses collapse over a finite discrete group: a subset of
a nonempty H is nonmeager in H iff it is nonempty, and comeager in H iff it is
all of H.  That single translation step turns the transforms into exact set
operations:

    delta(A, H) = {x : some g in H moves x into A}
    star(A, H)  = {x : every g in H moves x into A}

The localized stage transforms relativize these to U along V, padding the
star side with X∖U so that exits from U never count against a point:

    stage 1:   A^{Δ_U(V,1)} = delta(A∩U, V) ∩ U
               A^{*_U(V,1)} = star((A∩U) ∪ (X∖U), V) ∩ U
    stage n+1: apply delta/star (with the same padding) to stage n.

Limits: the delta stages increase and the star stages decrease, so both
stabilize within |U| rounds.

The stage transforms apply one V throughout, so they read its per-point
table ``V⁻¹·p`` from ``saturation.point_images``: delta(B, V) = V⁻¹·B is the
OR of the table over the points of B.  The delta stages increase (V holds
the identity), so each round ORs in only the rows of the points the last
round added; ``local_delta_stages`` lists every stage up to the fixpoint in
one such loop, and ``local_delta_n`` reads one entry of that list.  The star
stages come by duality: the complement in U of a star stage is
U ∩ delta(U ∖ previous stage, V), so

    A^{*_U(V,n)} = U ∖ (U∖A)^{Δ_U(V,n)}.

Nothing here asks V to be symmetric; the delta side moves points by V⁻¹,
which is why the table is of V⁻¹ and not of V.  ``delta`` and ``star`` for an
arbitrary H (the reach sets) list the operand once and index the action
rows directly.
"""

from __future__ import annotations

from .bits import image_mask, to_list, union_over
from .gspace import ActionInstance
from .saturation import point_images


def delta(inst: ActionInstance, a: int, h: int) -> int:
    """{x : ∃g ∈ H, g·x ∈ A}.  H must be nonempty."""
    if h == 0:
        raise ValueError("transform over empty set")
    act = inst.act
    inv = inst.group.inv
    pts = to_list(a)
    out = 0
    for g in to_list(h):
        out |= image_mask(act[inv[g]], pts)
    return out


def star(inst: ActionInstance, a: int, h: int) -> int:
    """{x : ∀g ∈ H, g·x ∈ A}.  H must be nonempty."""
    if h == 0:
        raise ValueError("transform over empty set")
    act = inst.act
    inv = inst.group.inv
    pts = to_list(a)
    out = inst.full_points
    for g in to_list(h):
        out &= image_mask(act[inv[g]], pts)
    return out


def _check_neighborhood(v: int) -> None:
    # identity membership is what makes the stage sequences monotone, and
    # with it the limit loops terminating
    if not v & 1:
        raise ValueError("V must contain the identity")


def local_delta_stages(inst: ActionInstance, a: int, u: int, v: int) -> list[int]:
    """The stages A^{Δ_U(V,n)} for n = 1, 2, ... up to and including the
    first stage that adds nothing (the fixpoint); every later stage equals the
    last entry.

    The stages increase from A∩U, so each round ORs in the ``V⁻¹`` rows of
    only the points the last round added.  Each stage that differs from the
    one before it adds a point of U, so the list has at most |U| + 1 entries.
    """
    _check_neighborhood(v)
    back = point_images(inst, v, inverse=True)
    cur = union_over(back, a & u) & u
    out = [cur]
    new = cur & ~a
    while new:
        new = union_over(back, new) & u & ~cur
        cur |= new
        out.append(cur)
    return out


def local_delta_n(inst: ActionInstance, a: int, u: int, v: int, n: int) -> int:
    """The stage transform A^{Δ_U(V,n)}, n ≥ 1: entry n of
    ``local_delta_stages``, or its last entry past the fixpoint, so a huge n
    costs no more than the limit.
    """
    if n < 1:
        raise ValueError("stage must be >= 1")
    stages = local_delta_stages(inst, a, u, v)
    return stages[min(n, len(stages)) - 1]


def local_star_n(inst: ActionInstance, a: int, u: int, v: int, n: int) -> int:
    """The stage transform A^{*_U(V,n)}, n ≥ 1 (with X∖U padding).

    By duality, U ∖ (U∖A)^{Δ_U(V,n)}: a point of U drops out of a star stage
    exactly when some V-step takes it to a point of U outside the stage
    before (stage 0 being A∩U).
    """
    return u & ~local_delta_n(inst, u & ~a, u, v, n)


def local_delta(inst: ActionInstance, a: int, u: int, v: int) -> int:
    """The limit transform A^{Δ_U V} = union of the increasing delta stages:
    the last entry of ``local_delta_stages``.

    Each stage that differs from the one before it adds a point of U, so
    stage |U| + 1 is the limit.
    """
    return local_delta_stages(inst, a, u, v)[-1]


def local_star(inst: ActionInstance, a: int, u: int, v: int) -> int:
    """The limit transform A^{*_U V} = intersection of the decreasing star stages,
    by duality U ∖ (U∖A)^{Δ_U V}.

    Each stage that differs from the one before it drops a point of U, so
    stage |U| + 1 is the limit.
    """
    return u & ~local_delta(inst, u & ~a, u, v)
