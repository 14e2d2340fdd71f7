"""Exact integer symmetric bilinear forms, stored as diagonal blocks.

The second homology of every model 4-manifold in this package is carried
by a ``Lattice``: Z^rank with an integer Gram matrix.  Every catalog form
is a direct sum of a few standard blocks (the negative definite E8 form,
the rank-2 pairs [[0,1],[1,-k]], and diagonal +-1 summands), so a
``Lattice`` keeps its contiguous diagonal blocks and never a dense
rank x rank matrix: ``direct_sum`` concatenates block lists, ``pairing``
reads only the block rows where its first argument is nonzero, and
signature and determinant are a sum and a product of per-block results
that are memoized on the block's Gram tuple, so -E8 is diagonalized once
per process however many copies a lattice holds.

No floating point is used anywhere: a block's signature comes from
congruence diagonalization over the rationals, its determinant from
fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "Lattice",
    "HClass",
    "e8_neg",
    "pair",
    "diag",
    "direct_sum",
    "pairing",
    "signature",
    "determinant",
    "basis_class",
]

Gram = tuple[tuple[int, ...], ...]


class Lattice:
    """An integer symmetric bilinear form, held as its diagonal blocks.

    ``Lattice(gram)`` validates a square, symmetric matrix and splits it
    once into its finest contiguous diagonal blocks: a block ends at row
    i exactly when no row up to i has a nonzero entry right of column i.
    The split depends only on the matrix, so equality and hashing compare
    block lists and agree with equality of Gram matrices.  Each row also
    records where its block starts, which is all ``pairing`` needs.

    ``gram`` is the dense matrix as a tuple of row tuples.  It is built on
    first read and cached (``Lattice(gram)`` keeps the matrix it was
    given); no code in the package reads it.

    Immutable after construction; instances are safe to share between
    threads and to reuse as dictionary keys.
    """

    __slots__ = ("_blocks", "_rows", "_offsets", "_gram")

    def __init__(self, gram: Iterable[Iterable[int]]) -> None:
        g = tuple(tuple(map(int, row)) for row in gram)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        if g != tuple(zip(*g)):
            raise ValueError("Gram matrix must be symmetric")
        blocks, start, reach = [], 0, 0
        for i, row in enumerate(g):
            reach = max(reach, i, max(compress(range(n), row), default=-1))
            if reach == i:
                blocks.append(tuple(r[start : i + 1] for r in g[start : i + 1]))
                start = i + 1
        self._set_blocks(tuple(blocks))
        object.__setattr__(self, "_gram", g)

    @classmethod
    def _from_blocks(cls, blocks: tuple[Gram, ...]) -> "Lattice":
        """A lattice from blocks that are already finest and validated."""
        lat = object.__new__(cls)
        lat._set_blocks(blocks)
        object.__setattr__(lat, "_gram", None)
        return lat

    def _set_blocks(self, blocks: tuple[Gram, ...]) -> None:
        rows: list[tuple[int, ...]] = []
        offsets: list[int] = []
        for block in blocks:
            offsets.extend(repeat(len(rows), len(block)))
            rows.extend(block)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_offsets", tuple(offsets))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Lattice is immutable")

    def __reduce__(self):
        # pickle and copy would otherwise restore the slots through __setattr__
        return (Lattice._from_blocks, (self._blocks,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def __repr__(self) -> str:
        return f"Lattice(blocks={self._blocks!r})"

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def gram(self) -> Gram:
        if self._gram is None:
            n = self.rank
            dense = tuple(
                (0,) * s + row + (0,) * (n - s - len(row))
                for row, s in zip(self._rows, self._offsets)
            )
            object.__setattr__(self, "_gram", dense)
        return self._gram


@dataclass(frozen=True)
class HClass:
    """A homology class: an integer coefficient vector in a lattice basis."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "HClass") -> "HClass":
        return HClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "HClass") -> "HClass":
        return HClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "HClass":
        return HClass(tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "HClass":
        if not isinstance(k, int):
            return NotImplemented
        return HClass(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @staticmethod
    def zero(rank: int) -> "HClass":
        return HClass((0,) * rank)


# E8 Dynkin graph: a chain of seven nodes with an eighth node hanging off
# the trivalent one (arm lengths 1, 2, 4).
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def e8_neg() -> Lattice:
    """The negative definite, even, unimodular rank-8 form -E8."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = 1
    return Lattice(g)


def pair(k: int) -> Lattice:
    """The rank-2 block [[0,1],[1,-k]], basis ordered (fiber, section)."""
    return Lattice(((0, 1), (1, -int(k))))


def diag(entries: Sequence[int]) -> Lattice:
    """Diagonal form with +-1 entries.

    Diag([1]) is the CP^2 form, Diag([-1]) the summand a blow-up adds.
    """
    entries = tuple(map(int, entries))
    for e in entries:
        if e not in (1, -1):
            raise ValueError("diagonal blocks are restricted to +-1 entries")
    return Lattice._from_blocks(tuple(((e,),) for e in entries))


def direct_sum(parts: Sequence[Lattice]) -> Lattice:
    """Block-diagonal sum; the empty sum is the rank-0 lattice."""
    return Lattice._from_blocks(tuple(b for p in parts for b in p._blocks))


def _vec(x: "HClass | Sequence[int]") -> tuple[int, ...]:
    if isinstance(x, HClass):
        return x.coeffs
    return tuple(map(int, x))


def pairing(L: Lattice, x: "HClass | Sequence[int]", y: "HClass | Sequence[int]") -> int:
    """The intersection pairing x . y = x^T (gram) y, exactly."""
    a, b = _vec(x), _vec(y)
    if len(a) != L.rank or len(b) != L.rank:
        raise ValueError(
            f"class length mismatch: got {len(a)} and {len(b)}, lattice rank is {L.rank}"
        )
    rows, offsets = L._rows, L._offsets
    total = 0
    for i in compress(range(len(a)), a):
        row, s = rows[i], offsets[i]
        total += a[i] * sum(map(mul, row, b[s : s + len(row)]))
    return total


def characteristic_defect(L: Lattice, c: "HClass | Sequence[int]") -> int | None:
    """The first basis index i with c . e_i - e_i . e_i odd, or None when
    c is characteristic (c . x = x . x mod 2 for every class x).

    Not exported; the ambient catalog uses it to validate c1.
    """
    v = _vec(c)
    if len(v) != L.rank:
        raise ValueError(f"class length {len(v)} does not match lattice rank {L.rank}")
    for i, (row, s) in enumerate(zip(L._rows, L._offsets)):
        if (sum(map(mul, row, v[s : s + len(row)])) - row[i - s]) % 2:
            return i
    return None


def _swap_symmetric(m: list[list[Fraction]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


# Distinct blocks are few (E8, a pair per n, +-1), so a small constant
# bound keeps the memo tables finite in a long-lived process.
_BLOCK_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_signature(gram: Gram) -> tuple[int, int, int]:
    n = len(gram)
    m = [[Fraction(v) for v in row] for row in gram]
    plus = minus = zero = 0
    for i in range(n):
        if m[i][i] == 0:
            piv = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if piv is not None:
                _swap_symmetric(m, i, piv)
            else:
                off = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if off is None:
                    # row i is zero in the remaining block: radical direction
                    zero += 1
                    continue
                # transvection: add row/column `off` into i; m[i][i] becomes 2*m[i][off]
                for k in range(n):
                    m[i][k] += m[off][k]
                for k in range(n):
                    m[k][i] += m[k][off]
        d = m[i][i]
        for j in range(i + 1, n):
            if m[j][i]:
                f = m[j][i] / d
                for k in range(n):
                    m[j][k] -= f * m[i][k]
                for k in range(n):
                    m[k][j] -= f * m[k][i]
        if d > 0:
            plus += 1
        else:
            minus += 1
    return (plus, minus, zero)


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_determinant(gram: Gram) -> int:
    n = len(gram)
    m = [list(row) for row in gram]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signature(L: Lattice) -> tuple[int, int, int]:
    """Counts (b_plus, b_minus, b_zero) of diagonal signs after congruence
    diagonalization over the rationals.

    Exact: Sylvester's law makes the counts independent of the pivoting
    choices, and they add over diagonal blocks.
    """
    plus = minus = zero = 0
    for p, m, z in map(_block_signature, L._blocks):
        plus, minus, zero = plus + p, minus + m, zero + z
    return (plus, minus, zero)


def determinant(L: Lattice) -> int:
    """Exact integer determinant: the product of the blocks' Bareiss
    (fraction-free elimination) determinants."""
    return math.prod(map(_block_determinant, L._blocks))


def basis_class(L: Lattice, index: int) -> HClass:
    """The index-th standard basis vector as a homology class."""
    if not 0 <= index < L.rank:
        raise ValueError(f"basis index {index} out of range for rank {L.rank}")
    return HClass((0,) * index + (1,) + (0,) * (L.rank - index - 1))
