"""Catalog of model complex surfaces.

Each ``AmbientSurface`` is a label, the homology lattice, the Poincare
dual of the first Chern class (c1 only ever enters through pairings),
the Euler characteristic, and a table of named classes: the line ``h``
in CP^2, the fiber/section pair ``f``, ``s`` of an elliptic fibration,
and exceptional spheres ``e1``, ``e2``, ...

The elliptic family E(n) carries the form

    n(-E8) (+) 2(n-1) [[0,1],[1,-2]] (+) [[0,1],[1,-n]],

with ``f`` and ``s`` the basis of the final block (so f.f = 0,
f.s = 1, s.s = -n) and c1 dual to (2-n) f.  For n >= 2 the middle
[[0,1],[1,-2]] blocks are addressable as ``f1``, ``s1``, ``f2``, ...;
their section-like generators are the square -2 sphere classes that the
totally-real sphere constructions ride on.  E(2) is K3.

Five integrity invariants hold for every surface built here and are
enforced at construction: the form is unimodular; c1 is characteristic
(its pairing with any class x is congruent to x.x mod 2); c1.c1 =
2 chi + 3 sigma (Hirzebruch signature theorem); an even form has
sigma divisible by 16 (Rokhlin's theorem: every catalog surface is
simply connected, so an even form means a spin manifold); and
chi = 2 + rank, since b1 = 0 for every catalog surface.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass
from typing import Mapping

from .lattice import (
    HClass,
    Lattice,
    basis_class,
    characteristic_defect,
    determinant,
    diag,
    direct_sum,
    e8_neg,
    is_even,
    pair,
    pairing,
    signature,
)

__all__ = [
    "AmbientSurface",
    "Check",
    "ConsistencyReport",
    "cp2",
    "blow_up",
    "e",
    "k3",
    "fiber_sum_check",
    "by_name",
]


@dataclass(frozen=True)
class Check:
    """One named expected-vs-actual comparison inside a report."""

    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _sigma(lat: Lattice) -> int:
    b_plus, b_minus, _ = signature(lat)
    return b_plus - b_minus


@dataclass(frozen=True)
class AmbientSurface:
    label: str
    lattice: Lattice
    c1: HClass
    euler_char: int
    named: Mapping[str, HClass]

    def __post_init__(self) -> None:
        r = self.lattice.rank
        if len(self.c1) != r:
            raise ValueError(f"{self.label}: c1 has length {len(self.c1)}, rank is {r}")
        for name, h in self.named.items():
            if len(h) != r:
                raise ValueError(f"{self.label}: named class {name!r} has the wrong length")
        if abs(determinant(self.lattice)) != 1:
            raise ValueError(f"{self.label}: homology form must be unimodular")
        i = characteristic_defect(self.lattice, self.c1)
        if i is not None:
            raise ValueError(f"{self.label}: c1 is not characteristic at basis vector {i}")
        if self.euler_char != 2 + r:
            raise ValueError(
                f"{self.label}: chi = {self.euler_char}, but b1 = 0 needs chi = 2 + rank = {2 + r}"
            )
        c1_sq = self.pair(self.c1, self.c1)
        sigma = _sigma(self.lattice)
        if c1_sq != 2 * self.euler_char + 3 * sigma:
            raise ValueError(
                f"{self.label}: c1.c1 = {c1_sq}, but the signature theorem needs "
                f"2 chi + 3 sigma = {2 * self.euler_char + 3 * sigma}"
            )
        if sigma % 16 and is_even(self.lattice):
            raise ValueError(
                f"{self.label}: the form is even with sigma = {sigma}, but Rokhlin's "
                f"theorem needs sigma divisible by 16"
            )

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def pair(self, x, y) -> int:
        return pairing(self.lattice, x, y)

    def named_class(self, name: str) -> HClass:
        try:
            return self.named[name]
        except KeyError:
            raise ValueError(f"{self.label} has no named class {name!r}") from None


def cp2() -> AmbientSurface:
    """The projective plane: rank-1 form <1>, line class h, c1 = 3h."""
    lat = diag([1])
    h = basis_class(lat, 0)
    return AmbientSurface("CP2", lat, 3 * h, 3, {"h": h})


_BLOWN_LABEL = re.compile(r"^(?P<root>.*)#(?P<m>\d+)CP2bar$")


def blow_up(x: AmbientSurface) -> AmbientSurface:
    """Blow up once: add a <-1> summand with exceptional class e_{m+1},
    replace c1 by c1 - e_{m+1}, and raise the Euler characteristic by 1.
    """
    return _blown_up(x, 1)


def _blown_up(x: AmbientSurface, k: int) -> AmbientSurface:
    """``k`` blow-ups in one pass: one direct sum with k <-1> summands,
    every named class padded once, and one validated surface.  Equal to
    ``k`` chained ``blow_up`` calls.
    """
    m = sum(1 for name in x.named if re.fullmatch(r"e\d+", name))
    r = x.rank
    lat = direct_sum([x.lattice, diag([-1] * k)])
    # padding a class with zeros only raises its rank: O(1) per class
    ext = {name: HClass._sparse(r + k, h.terms) for name, h in x.named.items()}
    for j in range(k):
        ext[f"e{m + j + 1}"] = basis_class(lat, r + j)
    c1 = HClass._sparse(r + k, x.c1.terms + tuple((r + j, -1) for j in range(k)))
    match = _BLOWN_LABEL.match(x.label)
    if match:
        label = f"{match['root']}#{int(match['m']) + k}CP2bar"
    else:
        label = f"{x.label}#{k}CP2bar"
    return AmbientSurface(label, lat, c1, x.euler_char + k, ext)


def e(n: int) -> AmbientSurface:
    """The elliptic surface E(n), n >= 1."""
    if n < 1:
        raise ValueError(f"E(n) requires n >= 1, got {n}")
    parts = [e8_neg()] * n + [pair(2)] * (2 * (n - 1)) + [pair(n)]
    lat = direct_sum(parts)
    r = lat.rank  # 12n - 2
    named = {"f": basis_class(lat, r - 2), "s": basis_class(lat, r - 1)}
    for j in range(1, 2 * (n - 1) + 1):
        offset = 8 * n + 2 * (j - 1)
        named[f"f{j}"] = basis_class(lat, offset)
        named[f"s{j}"] = basis_class(lat, offset + 1)
    c1 = (2 - n) * named["f"]
    return AmbientSurface(f"E({n})", lat, c1, 12 * n, named)


def k3() -> AmbientSurface:
    """K3 = E(2); the form is 2(-E8) (+) 3 [[0,1],[1,-2]] and c1 = 0."""
    return dataclasses.replace(e(2), label="K3")


@dataclass(frozen=True)
class ConsistencyReport:
    label: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


_EN_LABEL = re.compile(r"^E\((?P<n>\d+)\)$")


def _en_index(x: AmbientSurface) -> int:
    if x.label == "K3":
        return 2
    match = _EN_LABEL.match(x.label)
    if match:
        return int(match["n"])
    raise ValueError(f"fiber sums are only tabulated for catalog E(n) surfaces, got {x.label!r}")


def fiber_sum_check(a: AmbientSurface, b: AmbientSurface) -> ConsistencyReport:
    """Consistency of the fiber-sum bookkeeping E(j) #_f E(k) = E(j+k).

    The glued tori have Euler characteristic 0, so chi must be additive;
    removing the two fiber neighborhoods costs two homology classes, so
    ranks add up to rank(E(j+k)) - 2; and the signature, computed from
    each lattice, is additive (Novikov additivity).  This is bookkeeping
    over the catalog, not a lattice-level gluing.
    """
    j, k = _en_index(a), _en_index(b)
    c = e(j + k)
    checks = (
        Check("euler characteristic adds", a.euler_char + b.euler_char, c.euler_char),
        Check("rank adds with two classes from the gluing", a.rank + b.rank + 2, c.rank),
        Check("signature adds", _sigma(a.lattice) + _sigma(b.lattice), _sigma(c.lattice)),
    )
    return ConsistencyReport(f"{a.label} #_f {b.label} = {c.label}", checks)


_CATALOG_NAME = re.compile(r"cp2|k3|e\((\d+)\)")


def by_name(name: str, blow_ups: int = 0) -> AmbientSurface:
    """Look up a catalog surface: ``cp2``, ``k3``, or ``e(n)``, with an
    optional number of blow-ups applied on top.

    Cached on the normalized spelling: ``by_name("E(4)")`` and
    ``by_name(" e(4) ", 0)`` share one immutable instance.
    """
    if blow_ups < 0:
        raise ValueError("blow-up count must be nonnegative")
    match = _CATALOG_NAME.fullmatch(name.strip().lower())
    if not match:
        raise ValueError(f"unknown ambient surface {name!r} (expected cp2, k3 or e(n))")
    key = f"e({int(match[1])})" if match[1] else match[0]
    return _catalog_surface(key, blow_ups)


@functools.lru_cache(maxsize=64)
def _catalog_surface(key: str, blow_ups: int) -> AmbientSurface:
    if key == "cp2":
        surface = cp2()
    elif key == "k3":
        surface = k3()
    else:
        surface = e(int(key[2:-1]))
    return _blown_up(surface, blow_ups) if blow_ups else surface


# the lookup keeps the cache controls it had as an lru_cache wrapper
by_name.cache_info = _catalog_surface.cache_info
by_name.cache_clear = _catalog_surface.cache_clear
