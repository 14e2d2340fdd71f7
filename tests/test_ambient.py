import tracemalloc

import numpy as np
import pytest

from realsurf import ambient
from realsurf.ambient import (
    AmbientSurface,
    blow_up,
    by_name,
    cp2,
    e,
    fiber_sum_check,
    k3,
)
from realsurf.lattice import (
    HClass,
    Lattice,
    basis_class,
    determinant,
    diag,
    direct_sum,
    e8_neg,
    is_even,
    pair,
    signature,
)


def _np_signature(lat):
    w = np.linalg.eigvalsh(np.array(lat.gram, dtype=float))
    plus = int(np.sum(w > 1e-9))
    minus = int(np.sum(w < -1e-9))
    return (plus, minus, lat.rank - plus - minus)


def test_cp2_basics():
    x = cp2()
    assert x.euler_char == 3
    assert x.rank == 1
    assert determinant(x.lattice) == 1
    h = x.named_class("h")
    assert x.pair(x.c1, h) == 3
    assert x.pair(h, h) == 1


def test_blow_up_of_cp2_nine_times_matches_e1():
    x = cp2()
    for _ in range(9):
        x = blow_up(x)
    y = e(1)
    assert x.rank == y.rank == 10
    assert x.euler_char == y.euler_char == 12
    assert signature(x.lattice) == signature(y.lattice)
    assert abs(determinant(x.lattice)) == abs(determinant(y.lattice)) == 1
    assert x.label == "CP2#9CP2bar"
    assert set(x.named) == {"h"} | {f"e{i}" for i in range(1, 10)}


def test_blow_up_exceptional_class():
    x = blow_up(k3())
    ex = x.named_class("e1")
    assert x.pair(ex, ex) == -1
    assert x.pair(x.c1, ex) == 1  # <c1 - e, e> = 1
    assert x.euler_char == 25
    # chi(E) + [E]^2 = 2 - 1 = 1 is checked at the surface level elsewhere


def test_en_catalog_values():
    for n in [*range(1, 7), 60, 160]:
        x = e(n)
        assert x.rank == 12 * n - 2
        assert x.euler_char == 12 * n
        assert abs(determinant(x.lattice)) == 1
        assert signature(x.lattice) == (2 * n - 1, 10 * n - 1, 0)
        if n <= 6:
            assert signature(x.lattice) == _np_signature(x.lattice)
        f, s = x.named_class("f"), x.named_class("s")
        assert x.pair(f, f) == 0
        assert x.pair(f, s) == 1
        assert x.pair(s, s) == -n
        assert x.pair(x.c1, s) == 2 - n
        assert x.pair(x.c1, f) == 0


def test_e_rejects_nonpositive():
    with pytest.raises(ValueError):
        e(0)


def test_k3_is_e2():
    x = k3()
    assert x.label == "K3"
    assert x.rank == 22
    assert x.euler_char == 24
    assert x.c1.is_zero
    assert signature(x.lattice) == (3, 19, 0)


def test_auxiliary_pair_blocks_named():
    x = e(3)
    s1 = x.named_class("s1")
    f1 = x.named_class("f1")
    assert x.pair(s1, s1) == -2
    assert x.pair(f1, s1) == 1
    assert x.pair(x.c1, s1) == 0
    assert x.pair(s1, x.named_class("s")) == 0
    assert {f"f{j}" for j in range(1, 5)} <= set(x.named)
    assert k3().pair(k3().named_class("s1"), k3().named_class("s1")) == -2
    assert "f1" not in e(1).named


def test_characteristic_parity_on_catalog():
    surfaces = [cp2(), k3(), e(1), e(3), blow_up(blow_up(cp2())), blow_up(k3())]
    for x in surfaces:
        g = x.lattice.gram
        for i in range(x.rank):
            ci = x.pair(x.c1, basis_class(x.lattice, i))
            assert (ci - g[i][i]) % 2 == 0, (x.label, i)


def test_constructor_rejects_non_characteristic_c1():
    lat = diag([1])
    with pytest.raises(ValueError):
        AmbientSurface("bad", lat, HClass((2,)), 3, {"h": basis_class(lat, 0)})


def test_constructor_names_the_basis_vector_where_a_zero_c1_fails():
    # c1 = 0 has no terms: the test reads the block's odd diagonal entry
    with pytest.raises(ValueError, match="c1 is not characteristic at basis vector 0"):
        AmbientSurface("bad", diag([1]), HClass.zero(1), 3, {})


def test_constructor_rejects_c1_square_off_the_signature_theorem():
    # c1 = h is characteristic on <1>, but c1.c1 = 1 while 2 chi + 3 sigma = 9
    lat = diag([1])
    h = basis_class(lat, 0)
    with pytest.raises(ValueError, match="signature theorem"):
        AmbientSurface("bad", lat, h, 3, {"h": h})


def test_constructor_rejects_an_even_form_off_rokhlin():
    # -E8 + 3H with c1 = 2(e + f) in the first H passes every other check:
    # unimodular, c1 characteristic, c1.c1 = 8 = 2 * 16 + 3 * (-8)
    lat = direct_sum([e8_neg(), pair(0), pair(0), pair(0)])
    c1 = 2 * (basis_class(lat, 8) + basis_class(lat, 9))
    with pytest.raises(ValueError, match="Rokhlin"):
        AmbientSurface("bad", lat, c1, 16, {})


@pytest.mark.parametrize(
    "base, n, blow_ups",
    [("e", 1, 0), ("e", 2, 0), ("e", 3, 0), ("e", 4, 0), ("e", 6, 0), ("k3", 0, 0),
     ("cp2", 0, 0), ("cp2", 0, 1), ("cp2", 0, 9), ("cp2", 0, 17),
     ("e", 2, 1), ("e", 4, 3), ("e", 5, 2), ("k3", 0, 16)],
)
def test_rokhlin_accepts_every_catalog_ambient(base, n, blow_ups):
    name = f"e({n})" if base == "e" else base
    x = by_name(name, blow_ups)
    b_plus, b_minus, _ = signature(x.lattice)
    assert is_even(x.lattice) == (base != "cp2" and n % 2 == 0 and blow_ups == 0)
    assert not is_even(x.lattice) or (b_plus - b_minus) % 16 == 0


def test_constructor_rejects_euler_char_off_the_rank():
    lat = diag([1])
    h = basis_class(lat, 0)
    with pytest.raises(ValueError, match="b1 = 0"):
        AmbientSurface("bad", lat, 3 * h, 4, {"h": h})


def test_constructor_rejects_non_unimodular():
    lat = Lattice(((2, 0), (0, 1)))  # determinant 2, c1=(0,1) is characteristic
    with pytest.raises(ValueError):
        AmbientSurface("bad", lat, HClass((0, 1)), 4, {})


def test_blow_up_order_independent_invariants():
    a = blow_up(blow_up(blow_up(cp2())))
    assert a.rank == 4
    assert a.euler_char == 6
    assert signature(a.lattice) == (1, 3, 0)


def test_fiber_sum_checks():
    rep = fiber_sum_check(e(1), e(1))
    assert rep.passed
    assert rep.label == "E(1) #_f E(1) = E(2)"
    rep = fiber_sum_check(e(1), e(2))
    assert rep.passed
    rep = fiber_sum_check(e(2), k3())
    assert rep.passed
    with pytest.raises(ValueError):
        fiber_sum_check(cp2(), e(1))
    with pytest.raises(ValueError):
        fiber_sum_check(blow_up(e(1)), e(1))


def test_by_name():
    assert by_name("k3").label == "K3"
    assert by_name("K3", blow_ups=1).label == "K3#1CP2bar"
    assert by_name("e(4)").rank == 46
    assert by_name("cp2", 3).rank == 4
    for base, k in (("cp2", 9), ("cp2", 37), ("k3", 2), ("e(3)", 5)):
        chained = by_name(base)
        for _ in range(k):
            chained = blow_up(chained)
        one_pass = by_name(base, k)
        assert one_pass.lattice == chained.lattice
        assert one_pass.c1 == chained.c1
        assert one_pass.named == chained.named
        assert one_pass.label == chained.label
        assert one_pass.euler_char == chained.euler_char
    with pytest.raises(ValueError):
        by_name("t4")
    with pytest.raises(ValueError):
        by_name("k3", blow_ups=-1)


def test_by_name_rejects_negative_blow_ups_before_building(monkeypatch):
    def fail(n):
        raise AssertionError("the base surface was built")

    monkeypatch.setattr(ambient, "e", fail)
    for name in ("e(160)", "k3"):
        with pytest.raises(ValueError, match="nonnegative"):
            by_name(name, -1)


def test_by_name_caches_one_entry_per_surface(monkeypatch):
    calls = []
    original = ambient.pairing

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ambient, "pairing", counted)
    by_name.cache_clear()
    first = by_name("E(4)")
    assert calls  # a build pairs c1 with itself
    calls.clear()
    for spelling in ((" e(4) ", 0), ("e(04)",), ("E(4)", 0)):
        assert by_name(*spelling) is first
    assert not calls
    assert by_name("CP2", blow_ups=2) is by_name(" cp2", 2)
    with pytest.raises(ValueError, match=r"'  T4 '"):
        by_name("  T4 ")


def test_large_ambient_memory_does_not_grow_with_n():
    # every named class and c1 of E(n) hold one term each; dense classes
    # would hold 4n - 2 tuples of length 12n - 2, hundreds of megabytes
    tracemalloc.start()
    try:
        x = e(1000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.rank == 11998
    assert held < 5_000_000
    for surface in (x, by_name("cp2", 200)):
        assert all(len(h.terms) == 1 for h in surface.named.values())
