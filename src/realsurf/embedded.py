"""Embedded surfaces and the algebraic counts of their complex points.

A ``SurfaceClass`` records what the count formulas see of an embedded
closed real surface: the ambient model surface, orientability, the
Euler characteristic chi(S), an optional homology class [S] (absent
means the surface sits in a contractible chart and is homologically
trivial), and the normal Euler number chi(NS).  For an orientable
surface with a class, chi(NS) is forced to equal the self-intersection
[S].[S] and is derived automatically.

The two count formulas:

    I(S)      = chi(S) + chi(NS)                  (e - h, all complex points)
    2 I+-(S)  = chi(S) +- <c1(X),[S]> + [S].[S]   (signed counts, oriented S)

Nonorientable surfaces carry chi(NS) as a free integer; the realizable
values for a chart embedding form the arithmetic progression
``massey_set(chi) = {2 chi - 4, 2 chi, ..., 4 - 2 chi}``, which makes
``admissible_I(chi) = chi + massey_set(chi)`` the reachable counts.

Predicates: a surface can be isotoped to one with a regular Stein
neighborhood basis iff I+ <= 0 and I- <= 0 (oriented) or I <= 0
(nonorientable); it can be made totally real iff those counts vanish
outright, since an elliptic/hyperbolic pair of matching sign can always
be cancelled and cancellation is exhaustive exactly at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ambient import AmbientSurface
from .lattice import HClass, _linked_pair, _summed, pairing

__all__ = [
    "SurfaceClass",
    "InvariantReport",
    "ParityViolation",
    "i_total",
    "i_pm",
    "invariant_report",
    "connected_sum",
    "resolve_union",
    "massey_set",
    "admissible_I",
    "stein_basis_possible",
    "totally_real_possible",
]


class ParityViolation(ValueError):
    """A signed count came out half-integral: the ambient c1 data is corrupt."""


@dataclass(frozen=True)
class SurfaceClass:
    """An embedded closed surface, up to the data the count formulas need."""

    ambient: AmbientSurface
    orientable: bool
    euler_char: int
    hclass: HClass | None = None
    normal_euler: int | None = None

    def __post_init__(self) -> None:
        if self.orientable:
            if self.euler_char % 2 != 0 or self.euler_char > 2:
                raise ValueError(
                    f"an orientable closed surface has even chi <= 2, got {self.euler_char}"
                )
        elif self.euler_char > 1:
            raise ValueError(f"a nonorientable closed surface has chi <= 1, got {self.euler_char}")
        if self.hclass is not None and len(self.hclass) != self.ambient.rank:
            raise ValueError("homology class length does not match the ambient rank")
        if self.orientable and self.hclass is not None:
            square = self.ambient.pair(self.hclass, self.hclass)
            if self.normal_euler is None:
                object.__setattr__(self, "normal_euler", square)
            elif self.normal_euler != square:
                raise ValueError(
                    f"normal euler number {self.normal_euler} contradicts [S].[S] = {square}"
                )
        elif self.normal_euler is None:
            raise ValueError("normal euler number is required when [S].[S] does not determine it")


@dataclass(frozen=True)
class InvariantReport:
    i_total: int
    i_plus: int | None
    i_minus: int | None
    trivial_sphere: bool  # homologically trivial sphere: adjunction-type bounds do not apply


def i_total(s: SurfaceClass) -> int:
    """I(S) = chi(S) + chi(NS), the algebraic number of complex points."""
    return s.euler_char + s.normal_euler


def i_pm(s: SurfaceClass) -> tuple[int, int]:
    """The signed counts (I+, I-) from 2 I+- = chi +- <c1,[S]> + [S].[S]."""
    if not s.orientable:
        raise ValueError("signed counts are defined for oriented surfaces only")
    if s.hclass is None:
        raise ValueError(
            "signed counts need a homology class; use an explicit zero class for chart surfaces"
        )
    c1_term = pairing(s.ambient.lattice, s.ambient.c1, s.hclass)
    square = s.normal_euler  # __post_init__ set it equal to [S].[S]
    twice_plus = s.euler_char + c1_term + square
    twice_minus = s.euler_char - c1_term + square
    if twice_plus % 2 != 0 or twice_minus % 2 != 0:
        raise ParityViolation(
            f"2I+ = {twice_plus}, 2I- = {twice_minus} must be even; "
            f"the c1 vector of {s.ambient.label} is not characteristic"
        )
    return (twice_plus // 2, twice_minus // 2)


def invariant_report(s: SurfaceClass) -> InvariantReport:
    plus = minus = None
    if s.orientable and s.hclass is not None:
        plus, minus = i_pm(s)
    trivial = s.orientable and s.euler_char == 2 and (s.hclass is None or s.hclass.is_zero)
    return InvariantReport(i_total(s), plus, minus, trivial)


def _shared_ambient(parts: Sequence[SurfaceClass], what: str) -> AmbientSurface:
    ambient = parts[0].ambient
    if any(p.ambient != ambient for p in parts):
        raise ValueError(f"all surfaces of a {what} must share the ambient")
    return ambient


def connected_sum(*parts: SurfaceClass) -> SurfaceClass:
    """Ambient connected sum of two or more surfaces along tubes: chi and I
    drop by 2 per tube, classes and normal Euler numbers add, and the sum
    is orientable when every part is.

    The parts must be disjoint surfaces, and disjoint representatives need
    pairwise orthogonal classes; that is enforced for every pair, so the
    order of the parts does not matter.
    """
    if len(parts) < 2:
        raise ValueError("connected sum needs two or more operands")
    ambient = _shared_ambient(parts, "connected sum")
    classes = [p.hclass for p in parts]
    linked = _linked_pair(ambient.lattice, classes)
    if linked is not None:
        i, j, v = linked
        raise ValueError(
            f"the operands at positions {i} and {j} have homological intersection {v}, "
            "so they cannot be disjoint and their connected sum is not defined"
        )
    present = [h.terms for h in classes if h is not None]
    return SurfaceClass(
        ambient,
        all(p.orientable for p in parts),
        sum(p.euler_char for p in parts) - 2 * (len(parts) - 1),
        _summed(ambient.rank, present) if present else None,
        sum(p.normal_euler for p in parts),
    )


def resolve_union(parts: list[SurfaceClass], crossings: int) -> SurfaceClass:
    """Smooth all transverse intersections of a union of oriented surfaces.

    Each resolution replaces the local crossing zw = 0 by zw = eps,
    merging sheets: the homology class is the sum T, chi drops by 2 per
    crossing, and the result is an oriented surface in the summed class.
    ``crossings`` is the geometric count of intersection points, supplied
    by the caller.  Pairs i < j meet in at least |S_i.S_j| points, and in
    a number of S_i.S_j's parity, so the count must be at least |X| and
    of X's parity, where X = (T.T - sum S_i.S_i) / 2 is the sum of those
    pairings; a count that is not raises ``ValueError``.
    """
    if not parts:
        raise ValueError("resolve_union needs at least one surface")
    if crossings < 0:
        raise ValueError("crossing count must be nonnegative")
    ambient = _shared_ambient(parts, "resolved union")
    for p in parts:
        if not p.orientable:
            raise ValueError("resolution of intersections is defined for oriented surfaces only")
        if p.hclass is None:
            raise ValueError("every surface in a resolved union needs a homology class")
    chi = sum(p.euler_char for p in parts) - 2 * crossings
    total = _summed(ambient.rank, (p.hclass.terms for p in parts))
    result = SurfaceClass(ambient, True, chi, total, None)
    x = (result.normal_euler - sum(p.normal_euler for p in parts)) // 2
    if crossings < abs(x) or (crossings - x) % 2:
        raise ValueError(
            f"{crossings} crossings cannot resolve surfaces whose pairings sum to {x}: "
            f"the count must be at least {abs(x)} and of the same parity"
        )
    return result


def _check_nonorientable_chi(chi: int) -> None:
    if chi > 1:
        raise ValueError(f"nonorientable surfaces have chi <= 1, got {chi}")


def massey_set(chi: int) -> list[int]:
    """Realizable normal Euler numbers of a chart embedding of a closed
    nonorientable surface with the given chi: 2 chi - 4 up to 4 - 2 chi
    in steps of 4.
    """
    _check_nonorientable_chi(chi)
    return list(range(2 * chi - 4, 4 - 2 * chi + 1, 4))


def _realizable(chi: int, normal_euler: int) -> bool:
    """``normal_euler in massey_set(chi)`` in O(1), without the list."""
    _check_nonorientable_chi(chi)
    return 2 * chi - 4 <= normal_euler <= 4 - 2 * chi and (normal_euler - 2 * chi) % 4 == 0


def admissible_I(chi: int) -> list[int]:
    """Counts I achievable by chart embeddings: chi + massey_set(chi)."""
    return [chi + nu for nu in massey_set(chi)]


def _predicates(orientable: bool, count: int, plus: int | None,
                minus: int | None) -> tuple[bool, bool]:
    """(Stein basis possible, totally real possible) from the counts I,
    I+ and I-: an oriented surface reads I+ and I-, a nonorientable one
    I.  The first needs them all <= 0, the second all = 0."""
    counts = (plus, minus) if orientable else (count,)
    return all(c <= 0 for c in counts), all(c == 0 for c in counts)


def _signed_counts(s: SurfaceClass) -> tuple[int | None, int | None]:
    return i_pm(s) if s.orientable else (None, None)


def stein_basis_possible(s: SurfaceClass) -> bool:
    """Whether some isotopy of S admits a regular Stein neighborhood basis:
    I+ <= 0 and I- <= 0 for oriented S, I <= 0 otherwise.
    """
    return _predicates(s.orientable, i_total(s), *_signed_counts(s))[0]


def totally_real_possible(s: SurfaceClass) -> bool:
    """Whether some isotopy of S is totally real: the counts vanish."""
    return _predicates(s.orientable, i_total(s), *_signed_counts(s))[1]
