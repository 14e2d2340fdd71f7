import copy
import itertools
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from realsurf.lattice import (
    HClass,
    Lattice,
    _linked_pair,
    _summed,
    basis_class,
    determinant,
    diag,
    direct_sum,
    e8_neg,
    pair,
    pairing,
    signature,
)


def _np_signature(lat):
    """Independent floating oracle: eigenvalue sign counts."""
    if lat.rank == 0:
        return (0, 0, 0)
    w = np.linalg.eigvalsh(np.array(lat.gram, dtype=float))
    plus = int(np.sum(w > 1e-9))
    minus = int(np.sum(w < -1e-9))
    return (plus, minus, lat.rank - plus - minus)


def _np_det(lat):
    if lat.rank == 0:
        return 1
    return int(round(np.linalg.det(np.array(lat.gram, dtype=float))))


def _dense_sum(parts):
    """The block-diagonal Gram matrix of ``parts``, built entry by entry."""
    n = sum(p.rank for p in parts)
    g = [[0] * n for _ in range(n)]
    offset = 0
    for p in parts:
        for i, row in enumerate(p.gram):
            g[offset + i][offset : offset + p.rank] = row
        offset += p.rank
    return tuple(map(tuple, g))


def _assert_canonical(total, parts):
    """``total`` matches the dense sum of ``parts`` and its own re-split."""
    assert total.gram == _dense_sum(parts)
    again = Lattice(total.gram)
    assert again == total
    assert hash(again) == hash(total)
    assert signature(again) == signature(total)
    assert determinant(again) == determinant(total)


def _random_block(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return pair(rng.randrange(-3, 4))
    if kind == 1:
        return diag([rng.choice((1, -1)) for _ in range(rng.randrange(1, 4))])
    return e8_neg()


def test_pair_block():
    assert pair(2).gram == ((0, 1), (1, -2))
    assert pair(0).gram == ((0, 1), (1, 0))


def test_diag_blocks():
    assert diag([1]).gram == ((1,),)
    assert diag([1, -1]).gram == ((1, 0), (0, -1))
    with pytest.raises(ValueError):
        diag([2])


def test_e8_neg_is_even_unimodular_negative_definite():
    lat = e8_neg()
    assert lat.rank == 8
    assert all(lat.gram[i][i] == -2 for i in range(8))
    assert determinant(lat) == 1
    assert signature(lat) == (0, 8, 0)
    assert signature(lat) == _np_signature(lat)
    assert _np_det(lat) == 1


def test_gram_validation():
    with pytest.raises(ValueError):
        Lattice(((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        Lattice(((0, 1),))


def test_direct_sum_empty():
    lat = direct_sum([])
    assert lat.rank == 0
    assert determinant(lat) == 1
    assert signature(lat) == (0, 0, 0)


def test_direct_sum_two_pairs():
    lat = direct_sum([pair(2), pair(2)])
    assert lat.rank == 4
    assert determinant(lat) == 1  # (-1) * (-1)
    assert lat.gram[0][2] == 0 and lat.gram[1][3] == 0


def test_k3_shaped_sum():
    lat = direct_sum([e8_neg(), e8_neg(), pair(2), pair(2), pair(2)])
    assert lat.rank == 22
    assert signature(lat) == (3, 19, 0)
    assert signature(lat) == _np_signature(lat)
    assert abs(determinant(lat)) == 1


def test_pairing_values():
    lat = pair(2)
    f, s = basis_class(lat, 0), basis_class(lat, 1)
    assert pairing(lat, s, f) == 1
    assert pairing(lat, f, s) == 1
    assert pairing(lat, s, s) == -2
    assert pairing(lat, f, f) == 0
    assert pairing(lat, HClass.zero(2), s) == 0


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(pair(2), (1,), (0, 1))


def test_signature_diag():
    assert signature(diag([1, -1])) == (1, 1, 0)


def test_signature_with_radical():
    lat = Lattice(((0, 0), (0, 1)))
    assert signature(lat) == (1, 0, 1)
    assert determinant(lat) == 0


def test_signature_hyperbolic_block_needs_transvection():
    assert signature(pair(0)) == (1, 1, 0)
    assert signature(pair(3)) == (1, 1, 0)


def test_pair_determinant_any_k():
    for k in range(-5, 6):
        assert determinant(pair(k)) == -1


def test_determinant_multiplicative_on_random_sums():
    rng = random.Random(20240811)
    for _ in range(40):
        parts = [_random_block(rng) for _ in range(rng.randrange(1, 4))]
        total = direct_sum(parts)
        prod = 1
        for p in parts:
            prod *= determinant(p)
        assert determinant(total) == prod
        assert determinant(total) == _np_det(total)
        _assert_canonical(total, parts)


def test_signature_and_determinant_invariant_under_part_permutation():
    rng = random.Random(7)
    for _ in range(20):
        parts = [_random_block(rng) for _ in range(rng.randrange(2, 5))]
        shuffled = parts[:]
        rng.shuffle(shuffled)
        a, b = direct_sum(parts), direct_sum(shuffled)
        assert signature(a) == signature(b)
        assert determinant(a) == determinant(b)
        _assert_canonical(a, parts)
        _assert_canonical(b, shuffled)
    # rows 0 and 2 coupled around an unrelated row 1 form one 3x3 block
    apart = Lattice(((1, 0, 2), (0, -1, 0), (2, 0, 1)))
    assert signature(apart) == _np_signature(apart) == (1, 2, 0)
    assert determinant(apart) == _np_det(apart) == 3


def test_hclass_arithmetic():
    a = HClass((1, 0, -2))
    b = HClass((0, 3, 1))
    assert (a + b).coeffs == (1, 3, -1)
    assert (a - b).coeffs == (1, -3, -3)
    assert (2 * a).coeffs == (2, 0, -4)
    assert (-a).coeffs == (-1, 0, 2)
    assert HClass.zero(3).is_zero
    assert not a.is_zero
    with pytest.raises(ValueError):
        a + HClass((1, 2))


def test_large_direct_sum_builds_no_dense_matrix():
    # the E(160) form, rank 1918: a dense Gram matrix alone would take
    # tens of megabytes
    tracemalloc.start()
    try:
        lat = direct_sum([e8_neg()] * 160 + [pair(2)] * 318 + [pair(160)])
        result = (lat.rank, signature(lat), determinant(lat))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (1918, (319, 1599, 0), -1)
    assert peak < 1_000_000


def test_lattice_pickles_and_copies():
    lat = direct_sum([e8_neg(), pair(3), diag([1, -1])])
    for again in (pickle.loads(pickle.dumps(lat)), copy.deepcopy(lat)):
        assert again == lat
        assert again.gram == lat.gram
        assert signature(again) == signature(lat)


@pytest.mark.parametrize("bad", [1.5, "2", True], ids=["float", "str", "bool"])
def test_non_integer_coefficient_is_rejected(bad):
    with pytest.raises(TypeError, match="coefficient 1 "):
        HClass((0, bad, 1))
    with pytest.raises(TypeError, match="coefficient 0 "):
        pairing(diag([1, -1]), [bad, 1], (1, 1))
    with pytest.raises(TypeError, match="coefficient 1 "):
        pairing(diag([1, -1]), (1, 1), [1, bad])


def test_numpy_integer_coefficients_are_accepted():
    h = HClass(np.array([0, 3, -1], dtype=np.int64))
    assert h.coeffs == (0, 3, -1)
    assert all(type(c) is int for c in h.coeffs)
    assert h.terms == ((1, 3), (2, -1))


# the coupled 3x3 block of the permutation test: rows 0 and 2 meet around row 1
_COUPLED = Lattice(((1, 0, 2), (0, -1, 0), (2, 0, 1)))


def _random_lattice(rng):
    parts = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            parts.append(e8_neg())
        elif kind == 1:
            parts.append(pair(rng.randrange(-3, 4)))
        elif kind == 2:
            parts.append(diag([rng.choice((1, -1)) for _ in range(rng.randrange(1, 4))]))
        else:
            parts.append(_COUPLED)
    return direct_sum(parts)


def _random_dense(rng, rank):
    density = rng.choice((0.0, 0.1, 0.5, 1.0))
    return [rng.randrange(-3, 4) if rng.random() < density else 0 for _ in range(rank)]


def test_sparse_classes_match_dense_arithmetic():
    rng = random.Random(20261018)
    for _ in range(200):
        lat = _random_lattice(rng)
        g, n = lat.gram, lat.rank
        u, v = _random_dense(rng, n), _random_dense(rng, n)
        x, y = HClass(u), HClass(v)
        assert x.coeffs == tuple(u)
        assert x.terms == tuple((i, c) for i, c in enumerate(u) if c)
        brute = sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
        assert pairing(lat, x, y) == pairing(lat, y, x) == brute
        assert pairing(lat, u, v) == pairing(lat, x, v) == brute
        assert (x + y).coeffs == tuple(a + b for a, b in zip(u, v))
        assert (x - y).coeffs == tuple(a - b for a, b in zip(u, v))
        assert (-x).coeffs == tuple(-a for a in u)
        k = rng.randrange(-3, 4)
        assert (k * x).coeffs == (x * k).coeffs == tuple(k * a for a in u)
        assert (x == y) == (u == v)
        assert x - x == HClass.zero(n) and (x - x).is_zero
        assert x == HClass(u) and hash(x) == hash(HClass(u))
        assert (x + y - y) == x and hash(x + y - y) == hash(x)


def test_many_class_sum_and_pairwise_orthogonality_match_brute_force():
    rng = random.Random(16)
    for _ in range(200):
        lat = _random_lattice(rng)
        n = lat.rank
        classes = [HClass(_random_dense(rng, n)) if rng.random() < 0.9 else None
                   for _ in range(rng.randrange(1, 6))]
        present = [h for h in classes if h is not None]
        total = _summed(n, (h.terms for h in present))
        assert total == sum(present, HClass.zero(n))
        linked = [(i, j, pairing(lat, a, b))
                  for (i, a), (j, b) in itertools.combinations(enumerate(classes), 2)
                  if a is not None and b is not None and pairing(lat, a, b)]
        assert _linked_pair(lat, classes) == (linked[0] if linked else None)


def test_hclass_pickles_and_copies():
    h = HClass((0, 3, 0, -2, 0))
    for again in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
        assert again == h
        assert hash(again) == hash(h)
        assert again.coeffs == h.coeffs
    with pytest.raises(AttributeError):
        h._rank = 4


def test_rank_mismatch_raises():
    lat = pair(2)
    a, b = HClass((1, 0)), HClass((1, 0, 0))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        pairing(lat, a, b)
    with pytest.raises(ValueError):
        pairing(lat, b, a)


def test_basis_class_is_one_term():
    lat = direct_sum([e8_neg()] * 1000)
    h = basis_class(lat, 4321)
    assert h.terms == ((4321, 1),) and len(h) == 8000
    assert pairing(lat, h, h) == -2


def _random_symmetric_form(rng, n):
    """A random symmetric integer matrix of size n: entries in [-4, 4]
    (most diagonal entries zero in a third of the draws), or, in another
    third, B^T D B with B of rank at most n - 1, so the form is degenerate."""
    kind = rng.randrange(3)
    if kind == 2:
        k = rng.randrange(n)
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        d = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(k)]
        return [[sum(b[a][i] * d[a] * b[a][j] for a in range(k)) for j in range(n)] for i in range(n)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-4, 4)
        if kind == 1 and rng.random() < 0.8:
            g[i][i] = 0
    return g


def test_signature_and_determinant_match_floating_oracles_on_random_forms():
    rng = random.Random(20261018)
    for _ in range(600):
        lat = Lattice(_random_symmetric_form(rng, rng.randint(1, 9)))
        assert signature(lat) == _np_signature(lat)
        assert determinant(lat) == _np_det(lat)


def _random_unimodular(rng, n):
    """A dense integer matrix of determinant +-1: a permutation times unit
    lower and unit upper triangular factors with entries in {-1, 0, 1}."""
    lower = [[int(i == j) if i <= j else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if i >= j else rng.randint(-1, 1) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[sum(lower[perm[i]][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_signature_and_determinant_of_dense_congruent_diagonal_forms():
    # G = U D U^T with U unimodular: by Sylvester's law the signature is the
    # signs of D, and det G = det(U)^2 prod(D) = prod(D) exactly
    rng = random.Random(48)
    for _ in range(6):
        n = rng.randint(24, 40)
        u = _random_unimodular(rng, n)
        d = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(n)]
        if rng.random() < 0.5:
            for i in rng.sample(range(n), rng.randint(1, 3)):
                d[i] = 0
        g = [[sum(u[i][k] * d[k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
        lat = Lattice(g)
        assert len(lat._blocks) == 1
        expected = (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))
        assert signature(lat) == expected
        assert determinant(lat) == math.prod(d)
