import copy
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from realsurf.lattice import (
    HClass,
    Lattice,
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
