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

from .ambient import AmbientSurface
from .lattice import HClass, pairing

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
    lat = s.ambient.lattice
    c1_term = pairing(lat, s.ambient.c1, s.hclass)
    square = pairing(lat, s.hclass, s.hclass)
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


def connected_sum(a: SurfaceClass, b: SurfaceClass) -> SurfaceClass:
    """Ambient connected sum along a tube: chi and I drop by 2, classes and
    normal Euler numbers add, orientability is the conjunction.

    The operands must be disjoint surfaces; representable disjointness
    requires their classes to pair to zero, which is enforced.
    """
    if a.ambient != b.ambient:
        raise ValueError("connected sum needs both surfaces in the same ambient")
    if a.hclass is not None and b.hclass is not None:
        if a.ambient.pair(a.hclass, b.hclass) != 0:
            raise ValueError(
                "surfaces with nonzero homological intersection cannot be disjoint, "
                "so their connected sum is not defined"
            )
    if a.hclass is None and b.hclass is None:
        hclass = None
    else:
        zero = HClass.zero(a.ambient.rank)
        hclass = (a.hclass or zero) + (b.hclass or zero)
    result = SurfaceClass(
        a.ambient,
        a.orientable and b.orientable,
        a.euler_char + b.euler_char - 2,
        hclass,
        a.normal_euler + b.normal_euler,
    )
    assert i_total(result) == i_total(a) + i_total(b) - 2
    return result


def resolve_union(parts: list[SurfaceClass], crossings: int) -> SurfaceClass:
    """Smooth all transverse intersections of a union of oriented surfaces.

    Each resolution replaces the local crossing zw = 0 by zw = eps,
    merging sheets: the homology class is the sum, chi drops by 2 per
    crossing, and the result is an oriented surface in the summed class.
    ``crossings`` is the geometric count of intersection points, supplied
    by the caller (homological pairings can undercount it).
    """
    if not parts:
        raise ValueError("resolve_union needs at least one surface")
    if crossings < 0:
        raise ValueError("crossing count must be nonnegative")
    ambient = parts[0].ambient
    for p in parts:
        if p.ambient != ambient:
            raise ValueError("all surfaces in a union must share the ambient")
        if not p.orientable:
            raise ValueError("resolution of intersections is defined for oriented surfaces only")
        if p.hclass is None:
            raise ValueError("every surface in a resolved union needs a homology class")
    total = parts[0].hclass
    for p in parts[1:]:
        total = total + p.hclass
    chi = sum(p.euler_char for p in parts) - 2 * crossings
    return SurfaceClass(ambient, True, chi, total, None)


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
