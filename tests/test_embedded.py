import itertools
import random

import pytest

from realsurf.ambient import blow_up, cp2, e, k3
from realsurf.embedded import (
    ParityViolation,
    _realizable,
    SurfaceClass,
    admissible_I,
    connected_sum,
    i_pm,
    i_total,
    invariant_report,
    massey_set,
    resolve_union,
    stein_basis_possible,
    totally_real_possible,
)
from realsurf.lattice import HClass


def _gram_blocks(lat):
    """Connected components of the Gram adjacency graph, as index tuples."""
    n = lat.rank
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and i != j and lat.gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return blocks


def _class_on_block(ambient, block, rng):
    coeffs = [0] * ambient.rank
    while all(c == 0 for c in coeffs):
        for i in block:
            coeffs[i] = rng.randrange(-2, 3)
    return HClass(coeffs)


def _random_surface(ambient, rng, block=None, force_oriented_class=False):
    if force_oriented_class or rng.random() < 0.6:
        h = _class_on_block(ambient, block, rng) if block is not None else None
        if h is None:
            return SurfaceClass(ambient, True, rng.choice([2, 0, -2, -4]), None, 0)
        return SurfaceClass(ambient, True, rng.choice([2, 0, -2, -4]), h)
    return SurfaceClass(
        ambient, False, rng.randrange(-6, 2), None, rng.randrange(-6, 7)
    )


# --- construction and validation -------------------------------------------


def test_orientable_chi_validation():
    amb = k3()
    with pytest.raises(ValueError):
        SurfaceClass(amb, True, 1, None, 0)
    with pytest.raises(ValueError):
        SurfaceClass(amb, True, 4, None, 0)
    with pytest.raises(ValueError):
        SurfaceClass(amb, False, 2, None, 0)


def test_normal_euler_derived_from_class():
    amb = k3()
    s = SurfaceClass(amb, True, 2, amb.named_class("s"))
    assert s.normal_euler == -2
    with pytest.raises(ValueError):
        SurfaceClass(amb, True, 2, amb.named_class("s"), normal_euler=0)


def test_normal_euler_required_without_class():
    with pytest.raises(ValueError):
        SurfaceClass(k3(), False, 0)


# --- I and I+- --------------------------------------------------------------


def test_i_total_exceptional_sphere():
    amb = blow_up(k3())
    s = SurfaceClass(amb, True, 2, amb.named_class("e1"))
    assert i_total(s) == 1


def test_i_total_section_of_e3():
    amb = e(3)
    s = SurfaceClass(amb, True, 2, amb.named_class("s"))
    assert i_total(s) == -1


def test_i_total_fiber_torus():
    amb = k3()
    s = SurfaceClass(amb, True, 0, amb.named_class("f"))
    assert i_total(s) == 0


def test_i_pm_genus_g_in_k3():
    amb = k3()
    s_cls, f_cls = amb.named_class("s"), amb.named_class("f")
    for g in range(13):
        surf = SurfaceClass(amb, True, 2 - 2 * g, s_cls + g * f_cls)
        assert i_pm(surf) == (0, 0)
        assert i_total(surf) == 0


def test_i_pm_resolved_section_in_em():
    for m in range(2, 8):
        amb = e(m)
        g = 3
        h = amb.named_class("s") + g * amb.named_class("f")
        surf = SurfaceClass(amb, True, 2 - 2 * g, h)
        plus, minus = i_pm(surf)
        assert plus == 2 - m
        assert minus == 0


def test_i_pm_trivial_sphere():
    amb = k3()
    surf = SurfaceClass(amb, True, 2, HClass.zero(amb.rank))
    assert i_pm(surf) == (1, 1)
    rep = invariant_report(surf)
    assert rep.trivial_sphere
    assert rep.i_total == 2


def test_i_pm_errors():
    amb = k3()
    with pytest.raises(ValueError):
        i_pm(SurfaceClass(amb, False, 0, None, 0))
    with pytest.raises(ValueError):
        i_pm(SurfaceClass(amb, True, 0, None, 0))


def test_parity_violation_detected():
    # bypass the AmbientSurface constructor checks with a doctored c1
    base = k3()
    bad = object.__new__(type(base))
    for field in ("label", "lattice", "euler_char", "named"):
        object.__setattr__(bad, field, getattr(base, field))
    object.__setattr__(bad, "c1", base.named_class("f"))  # f is not characteristic
    surf = SurfaceClass(bad, True, 2, base.named_class("s"))
    with pytest.raises(ParityViolation):
        i_pm(surf)


# --- connected sum -----------------------------------------------------------


def test_connected_sum_case2_shape():
    amb = k3()
    sigma = SurfaceClass(amb, False, -2, None, 4)  # I = 2
    sphere = SurfaceClass(amb, True, 2, amb.named_class("s"))  # I = 0
    out = connected_sum(sigma, sphere)
    assert not out.orientable
    assert out.euler_char == -2
    assert i_total(out) == 0


def test_connected_sum_case4_shape():
    amb = blow_up(k3())
    sigma = SurfaceClass(amb, False, 1, None, 2)  # I = 3
    exceptional = SurfaceClass(amb, True, 2, amb.named_class("e1"))  # I = 1
    sphere = SurfaceClass(amb, True, 2, amb.named_class("s"))  # I = 0
    out = connected_sum(connected_sum(sigma, exceptional), sphere)
    assert i_total(out) == 3 + 1 + 0 - 4 == 0
    assert out.euler_char == 1


def test_connected_sum_requires_same_ambient():
    with pytest.raises(ValueError):
        connected_sum(
            SurfaceClass(k3(), False, 0, None, 0),
            SurfaceClass(e(1), False, 0, None, 0),
        )


def test_connected_sum_rejects_linked_classes():
    amb = k3()
    s, f = amb.named_class("s"), amb.named_class("f")
    a = SurfaceClass(amb, True, 2, s)
    with pytest.raises(ValueError):
        connected_sum(a, SurfaceClass(amb, True, 0, f))  # s.f = 1
    # s.(s + 2f) = 0 and (2s + 2f).(s + f) = 0, but s.(s + f) = -1: every
    # pair is checked, not each operand against the running sum
    b = resolve_union([a] + [SurfaceClass(amb, True, 0, f)] * 2, 2)
    c = resolve_union([a, SurfaceClass(amb, True, 0, f)], 1)
    for order in itertools.permutations((a, b, c)):
        with pytest.raises(ValueError, match="cannot be disjoint"):
            connected_sum(*order)


def test_connected_sum_of_many_parts():
    amb = blow_up(blow_up(k3()))
    sigma = SurfaceClass(amb, False, -1, None, 2)  # I = 1
    spheres = [SurfaceClass(amb, True, 2, amb.named_class(n)) for n in ("e1", "e2", "s")]
    out = connected_sum(sigma, *spheres)
    assert out == connected_sum(connected_sum(connected_sum(sigma, spheres[0]), spheres[1]),
                                spheres[2])
    assert out.euler_char == -1 + 3 * 2 - 3 * 2
    assert i_total(out) == 1 + 1 + 1 + 0 - 6
    oriented = connected_sum(*spheres)
    assert oriented.hclass == sum((s.hclass for s in spheres[1:]), spheres[0].hclass)
    assert oriented.normal_euler == -1 - 1 - 2
    with pytest.raises(ValueError, match="two or more"):
        connected_sum(sigma)
    with pytest.raises(ValueError, match="two or more"):
        connected_sum()


def test_connected_sum_additivity_random():
    rng = random.Random(998877)
    ambients = [k3(), e(1), e(3), blow_up(blow_up(cp2()))]
    for _ in range(200):
        amb = rng.choice(ambients)
        blocks = _gram_blocks(amb.lattice)
        if len(blocks) < 2:
            continue
        ba, bb = rng.sample(blocks, 2)
        a = _random_surface(amb, rng, ba)
        b = _random_surface(amb, rng, bb)
        out = connected_sum(a, b)
        assert i_total(out) == i_total(a) + i_total(b) - 2
        if out.orientable and a.hclass is not None and b.hclass is not None:
            pa, pb = i_pm(a), i_pm(b)
            assert i_pm(out) == (pa[0] + pb[0] - 1, pa[1] + pb[1] - 1)
        if out.orientable and out.hclass is not None:
            plus, minus = i_pm(out)
            assert i_total(out) == plus + minus


# --- resolution --------------------------------------------------------------


def test_resolve_sphere_and_fibers():
    amb = k3()
    sphere = SurfaceClass(amb, True, 2, amb.named_class("s"))
    for g in range(6):
        tori = [SurfaceClass(amb, True, 0, amb.named_class("f")) for _ in range(g)]
        out = resolve_union([sphere] + tori, g)
        assert out.euler_char == 2 - 2 * g
        assert out.hclass == amb.named_class("s") + g * amb.named_class("f")
        assert out.normal_euler == -2 + 2 * g


def test_resolve_section_square_in_em():
    for m in (2, 3, 5):
        amb = e(m)
        g = 4
        parts = [SurfaceClass(amb, True, 2, amb.named_class("s"))] + [
            SurfaceClass(amb, True, 0, amb.named_class("f")) for _ in range(g)
        ]
        out = resolve_union(parts, g)
        assert out.normal_euler == -m + 2 * g


def test_resolve_single_part_identity():
    amb = k3()
    s = SurfaceClass(amb, True, 2, amb.named_class("s"))
    assert resolve_union([s], 0) == s


def test_resolve_crossings_bounded_by_pairings():
    amb = k3()
    s = SurfaceClass(amb, True, 2, amb.named_class("s"))
    f = SurfaceClass(amb, True, 0, amb.named_class("f"))
    s1 = SurfaceClass(amb, True, 2, amb.named_class("s1"))
    # X = s.f + s.f + f.f = 2
    for k in range(6):
        if k >= 2 and k % 2 == 0:
            assert resolve_union([s, f, f], k).euler_char == 2 - 2 * k
        else:
            with pytest.raises(ValueError, match="crossings"):
                resolve_union([s, f, f], k)
    # s.s1 = 0: disjoint spheres resolve with an even count only
    assert resolve_union([s, s1], 2).euler_char == 0
    with pytest.raises(ValueError, match="crossings"):
        resolve_union([s, s1], 1)


def test_resolve_rejects_bad_parts():
    amb = k3()
    with pytest.raises(ValueError):
        resolve_union([SurfaceClass(amb, False, 0, None, 0)], 0)
    with pytest.raises(ValueError):
        resolve_union([SurfaceClass(amb, True, 2, None, 0)], 0)
    with pytest.raises(ValueError):
        resolve_union([], 0)


# --- Massey range and predicates ---------------------------------------------


def test_massey_set_instances():
    assert massey_set(1) == [-2, 2]
    assert massey_set(0) == [-4, 0, 4]
    assert massey_set(-1) == [-6, -2, 2, 6]
    assert len(massey_set(-5)) == 3 - (-5)
    with pytest.raises(ValueError):
        massey_set(2)


def test_realizable_agrees_with_massey_set():
    for chi in range(-40, 2):
        values = set(massey_set(chi))
        assert [nu for nu in range(-200, 201) if _realizable(chi, nu)] == sorted(
            v for v in values if -200 <= v <= 200
        )
    with pytest.raises(ValueError, match="chi <= 1"):
        _realizable(2, 0)


def test_admissible_I_instances():
    assert admissible_I(0) == [-4, 0, 4]
    assert admissible_I(1) == [-1, 3]
    for chi in range(1, -9, -1):
        assert admissible_I(chi) == [chi + nu for nu in massey_set(chi)]


def test_stein_and_totally_real_predicates():
    amb = k3()
    genus2 = SurfaceClass(
        amb, True, -2, amb.named_class("s") + 2 * amb.named_class("f")
    )
    assert totally_real_possible(genus2)
    assert stein_basis_possible(genus2)

    trivial_sphere = SurfaceClass(amb, True, 2, HClass.zero(amb.rank))
    assert not stein_basis_possible(trivial_sphere)
    assert not totally_real_possible(trivial_sphere)

    # disc-bundle candidate with n > 2g - 2: I+ = 2 - m > 0 for m < 2
    amb1 = e(1)
    g = 1
    surf = SurfaceClass(amb1, True, 0, amb1.named_class("s") + g * amb1.named_class("f"))
    assert i_pm(surf)[0] == 1
    assert not stein_basis_possible(surf)

    nonor = SurfaceClass(amb, False, -1, None, 1)  # I = 0
    assert stein_basis_possible(nonor)
    assert totally_real_possible(nonor)
    nonor_bad = SurfaceClass(amb, False, -1, None, 2)  # I = 1
    assert not stein_basis_possible(nonor_bad)
    assert not totally_real_possible(nonor_bad)


def test_predicates_of_an_oriented_surface_without_a_class_raise():
    chart = SurfaceClass(k3(), True, 0, None, 0)
    assert invariant_report(chart).i_plus is None
    for predicate in (stein_basis_possible, totally_real_possible):
        with pytest.raises(ValueError, match="homology class"):
            predicate(chart)
