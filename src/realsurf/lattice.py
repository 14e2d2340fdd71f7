"""Exact integer symmetric bilinear forms, stored as diagonal blocks.

The second homology of every model 4-manifold in this package is carried
by a ``Lattice``: Z^rank with an integer Gram matrix.  Every catalog form
is a direct sum of a few standard blocks (the negative definite E8 form,
the rank-2 pairs [[0,1],[1,-k]], and diagonal +-1 summands), so a
``Lattice`` keeps its contiguous diagonal blocks and never a dense
rank x rank matrix: ``direct_sum`` concatenates block lists, and
signature and determinant are a sum and a product of per-block results
that are memoized on the block's Gram tuple, so -E8 is diagonalized once
per process however many copies a lattice holds.

An ``HClass`` is held sparsely, as its rank and its nonzero
``(index, coeff)`` pairs in index order; the dense ``coeffs`` tuple is
built only when read.  Sums, multiples and basis classes cost O(support),
and ``pairing`` walks the terms of the sparser class, finding the other's
terms inside each row's block by bisection: O(|x| log |y| + overlap),
independent of the rank.

No floating point is used anywhere: one fraction-free (Bareiss)
congruence diagonalization per block, in integers, gives both the
block's signature and its determinant.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from itertools import combinations, compress, repeat
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


class HClass:
    """A homology class: an integer coefficient vector in a lattice basis.

    Held sparsely, as its rank and the tuple ``terms`` of its nonzero
    ``(index, coeff)`` pairs in increasing index order, so a basis class
    or a sum of a few named classes costs O(support) however large the
    rank.  ``HClass(coeffs)`` takes the dense vector; each entry must be
    an integer (a Python or numpy integer, not a bool), else ``TypeError``
    names its position.  ``coeffs`` is the dense tuple, built on each
    read.  Equality and hashing compare ``(rank, terms)`` and so agree
    with equality of dense vectors.

    Immutable after construction, like ``Lattice``.
    """

    __slots__ = ("_rank", "_terms")

    def __init__(self, coeffs: Iterable[int]) -> None:
        dense = tuple(coeffs)
        self._set(len(dense), tuple((i, v) for i, c in enumerate(dense) if (v := _integer(c, i))))

    @classmethod
    def _sparse(cls, rank: int, terms: tuple[tuple[int, int], ...]) -> "HClass":
        """A class from terms that are already nonzero, integral and in
        increasing index order below ``rank``."""
        h = object.__new__(cls)
        h._set(rank, terms)
        return h

    def _set(self, rank: int, terms: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HClass is immutable")

    def __reduce__(self):
        # pickle and copy would otherwise restore the slots through __setattr__
        return (HClass._sparse, (self._rank, self._terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HClass):
            return NotImplemented
        return self._rank == other._rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._rank, self._terms))

    def __repr__(self) -> str:
        return f"HClass(coeffs={self.coeffs!r})"

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    @property
    def coeffs(self) -> tuple[int, ...]:
        dense = [0] * self._rank
        for i, c in self._terms:
            dense[i] = c
        return tuple(dense)

    def __len__(self) -> int:
        return self._rank

    def _combine(self, other: "HClass", sign: int) -> "HClass":
        if not isinstance(other, HClass):
            return NotImplemented
        if self._rank != other._rank:
            raise ValueError(f"class ranks differ: {self._rank} and {other._rank}")
        terms = other._terms if sign == 1 else [(i, -c) for i, c in other._terms]
        return _summed(self._rank, (self._terms, terms))

    def __add__(self, other: "HClass") -> "HClass":
        return self._combine(other, 1)

    def __sub__(self, other: "HClass") -> "HClass":
        return self._combine(other, -1)

    def __neg__(self) -> "HClass":
        return HClass._sparse(self._rank, tuple((i, -c) for i, c in self._terms))

    def __mul__(self, k: int) -> "HClass":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return HClass.zero(self._rank)
        return HClass._sparse(self._rank, tuple((i, k * c) for i, c in self._terms))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @staticmethod
    def zero(rank: int) -> "HClass":
        return HClass._sparse(rank, ())


def _summed(rank: int, runs: Iterable[Iterable[tuple[int, int]]]) -> HClass:
    """The class of rank ``rank`` whose terms sum the term runs: one dict
    pass and one sort, with zero sums dropped.  Each run is in index
    order, so the sort is a merge of sorted runs."""
    runs = iter(runs)
    acc = dict(next(runs, ()))
    get = acc.get
    for run in runs:
        for i, c in run:
            acc[i] = get(i, 0) + c
    terms = sorted(acc.items())
    if 0 in acc.values():
        terms = [t for t in terms if t[1]]
    return HClass._sparse(rank, tuple(terms))


def _integer(value: object, position: int) -> int:
    """``value`` as an int: Python and numpy integers pass, bool and every
    non-integral type (float, str, ...) raise ``TypeError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(
        f"class coefficient {position} must be an integer, got {type(value).__name__} {value!r}"
    )


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


def _as_class(x: "HClass | Sequence[int]") -> HClass:
    return x if isinstance(x, HClass) else HClass(x)


def pairing(L: Lattice, x: "HClass | Sequence[int]", y: "HClass | Sequence[int]") -> int:
    """The intersection pairing x . y = x^T (gram) y, exactly.

    Walks the terms of the sparser class; for a term at index i, the
    other class's terms inside row i's block are found by bisection.  The
    cost is O(|x| log |y| + overlap), independent of the rank.
    """
    a, b = _as_class(x), _as_class(y)
    rows = L._rows
    if a._rank != len(rows) or b._rank != len(rows):
        raise ValueError(
            f"class length mismatch: got {a._rank} and {b._rank}, lattice rank is {len(rows)}"
        )
    walk, other = a._terms, b._terms
    if len(walk) > len(other):
        walk, other = other, walk
    offsets = L._offsets
    total = 0
    for i, c in walk:
        row, s = rows[i], offsets[i]
        # (s,) sorts before every term (s, v): the first term at index >= s
        lo = bisect_left(other, (s,))
        for j, v in other[lo : bisect_left(other, (s + len(row),), lo)]:
            total += c * row[j - s] * v
    return total


def _linked_pair(
    L: Lattice, classes: Sequence["HClass | None"]
) -> tuple[int, int, int] | None:
    """The first positions i < j whose classes pair to a nonzero v, as
    (i, j, v), or None when the classes are pairwise orthogonal.  None
    entries are skipped.  Classes with no terms in a common block pair to
    zero, so only those that share a block are paired: k classes in k
    distinct blocks cost no pairing at all."""
    offsets = L._offsets
    sharing: dict[int, list[int]] = {}
    for k, h in enumerate(classes):
        if h is None:
            continue
        for start in {offsets[i] for i, _ in h._terms}:
            sharing.setdefault(start, []).append(k)
    candidates = {ij for ks in sharing.values() for ij in combinations(ks, 2)}
    for i, j in sorted(candidates):
        v = pairing(L, classes[i], classes[j])
        if v:
            return i, j, v
    return None


def characteristic_defect(L: Lattice, c: "HClass | Sequence[int]") -> int | None:
    """The first basis index i with c . e_i - e_i . e_i odd, or None when
    c is characteristic (c . x = x . x mod 2 for every class x).

    Block by block: where c has no terms, the test reads only the block's
    diagonal, memoized per block.  Not exported; the ambient catalog uses
    it to validate c1.
    """
    h = _as_class(c)
    if len(h) != L.rank:
        raise ValueError(f"class length {len(h)} does not match lattice rank {L.rank}")
    terms, k, start = h._terms, 0, 0
    for block in L._blocks:
        end = start + len(block)
        first = k
        while k < len(terms) and terms[k][0] < end:
            k += 1
        if first == k:
            i = _block_odd_diagonal(block)
            if i is not None:
                return start + i
        else:
            local = [0] * len(block)
            for j, v in terms[first:k]:
                local[j - start] = v
            for i, row in enumerate(block):
                if (sum(map(mul, row, local)) - row[i]) % 2:
                    return start + i
        start = end
    return None


def _swap_symmetric(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


# Distinct blocks are few (E8, a pair per n, +-1), so a small constant
# bound keeps the memo tables finite in a long-lived process.
_BLOCK_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_odd_diagonal(gram: Gram) -> int | None:
    return next((i for i, row in enumerate(gram) if row[i] % 2), None)


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _block_invariants(gram: Gram) -> tuple[int, int, int, int]:
    """(b_plus, b_minus, b_zero, det) of one block by fraction-free
    congruence diagonalization: the pivoting of the rational one, with the
    Bareiss update, whose division by the previous pivot is exact.  After
    a pivot d the remaining block holds d times the rational Schur
    complement, so the rational pivots are d / prev.  Swaps and
    transvections are integer congruences of determinant +-1, so the last
    pivot is the determinant; a radical direction makes it 0.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    plus = minus = zero = 0
    prev = 1
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
        d, pivot_row = m[i][i], m[i]
        for j in range(i + 1, n):
            row, f = m[j], m[j][i]
            for k in range(i + 1, n):
                row[k] = (row[k] * d - f * pivot_row[k]) // prev
        if (d > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        prev = d
    return (plus, minus, zero, 0 if zero else prev)


def signature(L: Lattice) -> tuple[int, int, int]:
    """Counts (b_plus, b_minus, b_zero) of the signs of the pivots of a
    congruence diagonalization, computed exactly in integers.

    Sylvester's law makes the counts independent of the pivoting choices,
    and they add over diagonal blocks.
    """
    plus = minus = zero = 0
    for p, m, z, _ in map(_block_invariants, L._blocks):
        plus, minus, zero = plus + p, minus + m, zero + z
    return (plus, minus, zero)


def determinant(L: Lattice) -> int:
    """Exact integer determinant: the product over the blocks of the last
    pivot of the same elimination that gives ``signature``."""
    return math.prod(inv[3] for inv in map(_block_invariants, L._blocks))


def basis_class(L: Lattice, index: int) -> HClass:
    """The index-th standard basis vector as a homology class."""
    if not 0 <= index < L.rank:
        raise ValueError(f"basis index {index} out of range for rank {L.rank}")
    return HClass._sparse(L.rank, ((index, 1),))
