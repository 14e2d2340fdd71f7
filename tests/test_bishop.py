import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from realsurf.bishop import (
    Chart,
    GenericityFailure,
    ImmersionFailure,
    Jet2,
    ParametrizedSurface,
    PointType,
    Tolerances,
    UnresolvedCluster,
    bishop_alpha,
    builtin_surface,
    classify,
    find_complex_points,
    flat_torus,
    graph_normal_form,
    round_sphere,
    survey,
    wrinkled_sphere,
)
from realsurf.bishop import (
    DEFAULT_TOLERANCES,
    _GRID_SHIFT,
    _STRIDE,
    _STRIP_NODES,
    _candidate_cells,
    _check_immersion,
    _coarse_pass,
    _delta,
    _fine_pass,
    _grid_pass,
    _partials,
    _windings,
)


def _winding_linear(b, c, samples=4096):
    """Independent oracle: winding of z -> b z + 2 c zbar around the circle."""
    total = 0.0
    prev = None
    for k in range(samples + 1):
        z = cmath.exp(2j * math.pi * k / samples)
        w = b * z + 2 * c * z.conjugate()
        ph = math.atan2(w.imag, w.real)
        if prev is not None:
            step = (ph - prev + math.pi) % (2 * math.pi) - math.pi
            total += step
        prev = ph
    return round(total / (2 * math.pi))


# --- bishop_alpha and classify ---------------------------------------------------


def test_alpha_on_normal_form_is_self_consistent():
    for a0 in (0.0, 0.5, 1.0, 2.0):
        jet = Jet2(0.0, a0, 0.5)
        assert bishop_alpha(jet) == pytest.approx(a0, abs=1e-15)


def test_alpha_infinite_and_zero_and_degenerate():
    assert bishop_alpha(Jet2(3 - 2j, 1.0, 0.0)) == math.inf
    assert classify(bishop_alpha(Jet2(0.7j, 1.0, 0.0))) is PointType.ELLIPTIC
    assert bishop_alpha(Jet2(1.0, 0.0, 0.25)) == 0.0
    assert bishop_alpha(Jet2(5.0, 0.0, 0.0)) is None
    assert classify(None) is PointType.DEGENERATE


@pytest.mark.parametrize(
    "jet",
    [Jet2(0, math.nan, 1), Jet2(0, complex(math.nan, 1), 0), Jet2(0, 1, math.inf)],
    ids=["b-nan", "b-nan-real-part", "c-inf"],
)
def test_alpha_rejects_non_finite_jet(jet):
    with pytest.raises(ValueError, match="finite"):
        bishop_alpha(jet)


def test_alpha_worked_example():
    jet = Jet2(0.3 + 0.1j, 1.0, 0.25)
    assert bishop_alpha(jet) == pytest.approx(2.0)
    assert classify(bishop_alpha(jet)) is PointType.ELLIPTIC
    assert _winding_linear(1.0, 0.25) == 1


def test_classify_thresholds():
    assert classify(2.0) is PointType.ELLIPTIC
    assert classify(0.0) is PointType.HYPERBOLIC
    assert classify(1.0) is PointType.PARABOLIC
    assert classify(1.0 + 1e-7) is PointType.PARABOLIC
    assert classify(1.0 + 1e-3) is PointType.ELLIPTIC
    assert classify(math.inf) is PointType.ELLIPTIC


def test_alpha_invariant_under_reparametrizations():
    rng = random.Random(431)
    for _ in range(200):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = complex(rng.uniform(0.1, 3) * rng.choice((1, -1)), rng.uniform(0.1, 3))
        theta = rng.uniform(0, 2 * math.pi)
        lam = cmath.rect(rng.uniform(0.2, 5), rng.uniform(0, 2 * math.pi))
        shift = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        rot = cmath.exp(2j * theta)
        transformed = Jet2(lam * a * rot + shift, lam * b, lam * c / rot)
        before = bishop_alpha(Jet2(a, b, c))
        after = bishop_alpha(transformed)
        assert after == pytest.approx(before, abs=1e-9, rel=1e-9)


def test_classification_matches_winding_oracle():
    rng = random.Random(99)
    done = 0
    while done < 200:
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(abs(b) - 2 * abs(c)) < 0.05 * max(abs(b), 2 * abs(c), 1e-3):
            continue
        if abs(b) < 1e-3 and abs(c) < 1e-3:
            continue
        expected_elliptic = _winding_linear(b, c) == 1
        got = classify(bishop_alpha(Jet2(0.0, b, c)), parabolic_band=0.0)
        assert (got is PointType.ELLIPTIC) == expected_elliptic
        done += 1


# --- builtin catalog --------------------------------------------------------------


def test_builtin_lookup():
    assert builtin_surface("flat-torus").label == "flat-torus"
    assert builtin_surface("graph-normal-form:2.5").charts[0].label == "graph"
    assert math.isinf(builtin_surface("graph-normal-form:inf").charts[0].evaluate(0.1, 0.0)[1].real * math.inf)
    with pytest.raises(ValueError):
        builtin_surface("moebius")
    with pytest.raises(ValueError):
        builtin_surface("graph-normal-form:-1")
    with pytest.raises(ValueError):
        builtin_surface("graph-normal-form:nan")


@pytest.mark.parametrize("field", ["zero_rel", "parabolic_band", "max_refine"])
@pytest.mark.parametrize("value", [-1, math.nan])
def test_tolerances_reject_negative_and_nan(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


@pytest.mark.parametrize("value", [2.5, True, math.inf, np.float64(3.0)])
def test_tolerances_require_an_integer_max_refine(value):
    # max_refine = inf used to refine a round-sphere pole until the detector
    # vanished on a refinement boundary
    with pytest.raises(TypeError, match="max_refine"):
        Tolerances(max_refine=value)
    assert Tolerances(max_refine=np.int64(3)).max_refine == 3


def test_tolerances_hold_the_three_cli_settings():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["zero_rel", "parabolic_band", "max_refine"]
    Tolerances(zero_rel=0.0, parabolic_band=0.0, max_refine=0)  # zero is allowed
    for gone in ("jet_step", "newton_steps"):
        with pytest.raises(TypeError):
            Tolerances(**{gone: 1})


def test_flat_torus_scan_is_empty():
    assert find_complex_points(flat_torus(), 128) == []


def test_round_sphere_dense_grid_oracle():
    """Independent check: |delta| on a dense lattice is small only near the
    pole parameters, one cluster per chart."""
    surface = round_sphere()
    for chart in surface.charts:
        n = 400
        us = np.linspace(-1.15, 1.15, n)
        uu, vv = np.meshgrid(us, us, indexing="ij")
        zu, wu = chart.d_du(uu, vv)
        zv, wv = chart.d_dv(uu, vv)
        delta = np.abs(zu * wv - wu * zv)
        floor = 0.05 * np.median(delta)
        radius = np.hypot(uu, vv)
        assert np.all(radius[delta < floor] < 0.05)
        assert np.any(delta < floor)


def test_round_sphere_survey():
    rep = survey(round_sphere(), 256)
    assert len(rep.points) == 2
    assert all(p.ptype is PointType.ELLIPTIC for p in rep.points)
    assert sorted(p.sign for p in rep.points) == [-1, 1]
    assert (rep.i_total, rep.i_plus, rep.i_minus) == (2, 1, 1)
    assert rep.passed
    cell = 2.3 / 256
    for p in rep.points:
        assert math.hypot(*p.location) < 2 * cell  # poles are at parameter 0
    assert sum(p.winding_index for p in rep.points) == 2


def test_graph_normal_form_alpha_recovery():
    for a0 in (0.0, 0.5, 2.0, 10.0):
        pts = find_complex_points(graph_normal_form(a0), 256)
        assert len(pts) == 1
        p = pts[0]
        assert math.hypot(*p.location) < 1e-6
        assert p.alpha == pytest.approx(a0, abs=1e-6)
        assert p.sign == 1
        expected = PointType.ELLIPTIC if a0 > 1 else PointType.HYPERBOLIC
        assert p.ptype is expected
        assert p.winding_index == (1 if a0 > 1 else -1)


def test_graph_normal_form_infinite_alpha():
    pts = find_complex_points(graph_normal_form(math.inf), 256)
    assert len(pts) == 1
    assert pts[0].ptype is PointType.ELLIPTIC
    assert pts[0].winding_index == 1


@pytest.mark.parametrize("grid", [64, 256, 512])
@pytest.mark.parametrize("a0", [0.0, 0.3, 0.5, 2.0, 3.7, 10.0, 157.0])
def test_graph_normal_form_alpha_to_rounding(a0, grid):
    (p,) = find_complex_points(graph_normal_form(a0), grid)
    assert p.alpha == pytest.approx(a0, rel=1e-12, abs=0.0)


def test_graph_alpha2_spec_example():
    pts = find_complex_points(graph_normal_form(2.0), 256)
    assert len(pts) == 1
    assert pts[0].winding_index == 1
    assert pts[0].alpha == pytest.approx(2.0, abs=1e-6)


# 0.6 is the default; the other three put a zero within 3e-4 of a grid
# cell's u-edge at grid 256, where the cell's eight boundary samples see a
# phase step near pi and round its winding to 0
@pytest.mark.parametrize("eps", [0.6, 0.761574153176165, 0.6510345631175534, 0.8441278066920379])
def test_wrinkled_sphere_counts(eps):
    rep = survey(wrinkled_sphere(eps), 256)
    assert rep.e_count - rep.h_count == 2
    assert rep.e_count >= 2 and rep.h_count == rep.e_count - 2
    assert (rep.e_count, rep.h_count) == (4, 2)
    assert (rep.i_plus, rep.i_minus) == (1, 1)
    assert rep.passed
    assert sum(p.winding_index for p in rep.points) == 2


def test_wrinkled_sphere_alpha_stable_under_grid_doubling():
    a = survey(wrinkled_sphere(), 192)
    b = survey(wrinkled_sphere(), 384)
    assert (a.e_count, a.h_count) == (b.e_count, b.h_count)
    for p in a.points:
        q = min(
            (q for q in b.points if q.chart == p.chart),
            key=lambda q: math.hypot(q.location[0] - p.location[0], q.location[1] - p.location[1]),
        )
        assert q.ptype is p.ptype
        assert q.alpha == pytest.approx(p.alpha, abs=1e-4)


@pytest.mark.parametrize("grid", [64, 256])
@pytest.mark.parametrize("eps", [0.1, 0.3, 0.6, 0.9])
def test_wrinkled_sphere_pole_alpha(eps, grid):
    # t = 1 - z zbar / 2 + (eps / 2)(z^2 + zbar^2) + O(|z|^3) at the poles,
    # so alpha = 1 / (2 eps) exactly
    poles = [p for p in find_complex_points(wrinkled_sphere(eps), grid) if math.hypot(*p.location) < 1e-6]
    assert len(poles) == 2
    for p in poles:
        assert p.alpha == pytest.approx(1 / (2 * eps), rel=1e-8)


@pytest.mark.parametrize("grid", [64, 256])
def test_survey_rejects_parabolic_poles_of_wrinkled_sphere(grid):
    with pytest.raises(GenericityFailure, match="parabolic"):
        survey(wrinkled_sphere(0.5), grid)


@pytest.mark.parametrize("eps", [0.6, 0.8623789908402258])
def test_wrinkled_sphere_equator_alphas_agree(eps):
    # the four non-pole points are images of each other under the
    # symmetries z -> -z and z -> zbar of the surface
    alphas = [p.alpha for p in find_complex_points(wrinkled_sphere(eps), 64) if math.hypot(*p.location) > 1e-6]
    assert len(alphas) == 4
    assert max(alphas) - min(alphas) <= 1e-8 * max(alphas)


def test_survey_requires_closed_surface():
    with pytest.raises(ValueError):
        survey(graph_normal_form(2.0), 64)


def test_survey_rejects_parabolic_points():
    # alpha = 1 normal form regularized by a quartic so the complex point
    # is isolated: w = z zbar + (z^2 + zbar^2)/2 + |z|^4 / 10
    def ev(u, v):
        s = u * u + v * v
        return u + 1j * v, 2 * u * u + 0.1 * s * s + 0j

    def d_du(u, v):
        s = u * u + v * v
        return 1.0 + 0j * u, 4 * u + 0.4 * s * u + 0j

    def d_dv(u, v):
        s = u * u + v * v
        return 1j + 0j * u, 0.4 * s * v + 0j

    chart = Chart(ev, (-0.7, 0.7), (-0.7, 0.7), False, False, d_du, d_dv)
    fake_closed = ParametrizedSurface("parabolic", (chart,), True, True, 2, 0)
    with pytest.raises(GenericityFailure):
        survey(fake_closed, 64)


def _fd_copy(surface):
    """The surface with the analytic partials of its charts dropped."""
    charts = tuple(dataclasses.replace(c, d_du=None, d_dv=None) for c in surface.charts)
    return dataclasses.replace(surface, label=surface.label + "-fd", charts=charts)


def _fd_round_sphere():
    return _fd_copy(round_sphere())


def test_finite_difference_fallback_matches_analytic():
    rep = survey(_fd_round_sphere(), 256)
    assert len(rep.points) == 2
    assert all(p.ptype is PointType.ELLIPTIC for p in rep.points)
    cell = 2.3 / 256
    for p in rep.points:
        assert math.hypot(*p.location) < 2 * cell
    assert rep.passed
    fd = find_complex_points(_fd_copy(wrinkled_sphere(0.6)), 256)
    exact = find_complex_points(wrinkled_sphere(0.6), 256)
    assert [(p.chart, p.winding_index, p.ptype) for p in fd] == [(p.chart, p.winding_index, p.ptype) for p in exact]
    for p, q in zip(fd, exact):
        assert p.alpha == pytest.approx(q.alpha, abs=1e-6)
    # a fine grid: the probe step of a chart without partials is not tied
    # to the cell, whose 1e-3 put alpha 1.5e-5 off here
    fd = find_complex_points(_fd_copy(wrinkled_sphere(0.9)), 512)
    exact = find_complex_points(wrinkled_sphere(0.9), 512)
    assert [(p.chart, p.winding_index, p.ptype) for p in fd] == [(p.chart, p.winding_index, p.ptype) for p in exact]
    for p, q in zip(fd, exact):
        assert p.alpha == pytest.approx(q.alpha, rel=5e-7)


@pytest.mark.parametrize("make", [wrinkled_sphere, _fd_round_sphere])
def test_chart_callables_only_see_arrays(make):
    """One evaluation path: every evaluate / d_du / d_dv call of a scan gets
    numpy arrays, and watching the calls does not change the report."""
    seen = []

    def watched(fn):
        def call(u, v):
            seen.append((type(u), type(v)))
            return fn(u, v)

        return call

    surface = make()
    charts = tuple(
        dataclasses.replace(
            c,
            **{f: watched(getattr(c, f)) for f in ("evaluate", "d_du", "d_dv") if getattr(c, f) is not None},
        )
        for c in surface.charts
    )
    rep = survey(dataclasses.replace(surface, charts=charts), 128)
    assert seen
    assert all(tu is np.ndarray and tv is np.ndarray for tu, tv in seen)
    assert rep == survey(make(), 128)


def test_immersion_failure_detected():
    def ev(u, v):
        return 1j * v + 0.0 * u, 0j * u

    chart = Chart(ev, (-1.0, 1.0), (-1.0, 1.0))
    surface = ParametrizedSurface("degenerate", (chart,), True, True, 2, 0)
    with pytest.raises(ImmersionFailure):
        find_complex_points(surface, 32)


def test_unresolved_cluster_on_double_zero():
    # w = Re(z^3) = u^3 - 3 u v^2: the detector is -3i zbar^2, an isolated
    # double zero (analytic partials keep it exactly double)
    def ev(u, v):
        z = u + 1j * v
        return z, (z**3).real + 0j

    def d_du(u, v):
        return 1.0 + 0j * u, 3 * (u * u - v * v) + 0j

    def d_dv(u, v):
        return 1j + 0j * u, -6.0 * u * v + 0j

    chart = Chart(ev, (-0.7, 0.7), (-0.7, 0.7), False, False, d_du, d_dv)
    surface = ParametrizedSurface("cusp", (chart,), True, False, None, None)
    with pytest.raises(UnresolvedCluster):
        find_complex_points(surface, 64)


def test_unresolved_cluster_on_index_off_the_type():
    # w = (i/4)(z - a)(z - b) conj(z - c)^2 has delta = (z - a)(z - b) conj(z - c):
    # three zeros within 3e-4 of each other in one depth-4 cell of grid 64
    # (c is 1e-5 off the centre of the cell holding 0.1234 + 0.2345i), which
    # winds +1 while Newton lands on c, where p = 0 (hyperbolic)
    c = 0.1227084047626965 + 0.23390681493260476j + 1e-5
    a, b = c + 3e-4, c + 3e-4j

    def w_partials(u, v):
        z = u + 1j * v
        return 0.25j * (2 * z - a - b) * np.conj(z - c) ** 2, 0.5j * (z - a) * (z - b) * np.conj(z - c)

    def ev(u, v):
        z = u + 1j * v
        return z, 0.25j * (z - a) * (z - b) * np.conj(z - c) ** 2

    def d_du(u, v):
        wz, wzb = w_partials(u, v)
        return 1.0 + 0j * u, wz + wzb

    def d_dv(u, v):
        wz, wzb = w_partials(u, v)
        return 1j + 0j * u, 1j * (wz - wzb)

    chart = Chart(ev, (-1.0, 1.0), (-1.0, 1.0), False, False, d_du, d_dv)
    surface = ParametrizedSurface("cluster", (chart,), True, False, None, None)
    with pytest.raises(UnresolvedCluster, match="chart 0"):
        find_complex_points(surface, 64, Tolerances(max_refine=4))


# node k = 23 of the shifted grid 64 over [-0.8, 0.8]
_NODE = -0.8 + _GRID_SHIFT * (1.6 / 64) + (1.6 / 64) * 23


def _graph_alpha2_at_node():
    # w = 2 |z|^2 + Re(z^2) around the node: a simple elliptic zero
    def ev(u, v):
        x, y = u - _NODE, v - _NODE
        return u + 1j * v, 3 * x * x + y * y + 0j

    def d_du(u, v):
        return 1.0 + 0j * u, 6 * (u - _NODE) + 0j

    def d_dv(u, v):
        return 1j + 0j * u, 2 * (v - _NODE) + 0j

    return ev, d_du, d_dv


def _index_zero_at_node():
    # w = (y^3 + i x^3) / 3 around the node: delta = x^2 + y^2 keeps phase
    # 0, so only the near-zero-node rule flags the cells around it
    def ev(u, v):
        x, y = u - _NODE, v - _NODE
        return u + 1j * v, (y**3 + 1j * x**3) / 3

    def d_du(u, v):
        return 1.0 + 0j * u, 1j * (u - _NODE) ** 2

    def d_dv(u, v):
        return 1j + 0j * u, (v - _NODE) ** 2 + 0j

    return ev, d_du, d_dv


@pytest.mark.parametrize("model", [_graph_alpha2_at_node, _index_zero_at_node])
def test_unresolved_cluster_on_zero_at_grid_node(model):
    # delta is exactly 0 at the node, so refining a cell that touches it
    # probes the zero itself
    ev, d_du, d_dv = model()
    chart = Chart(ev, (-0.8, 0.8), (-0.8, 0.8), False, False, d_du, d_dv)
    surface = ParametrizedSurface("node-zero", (chart,), True, False, None, None)
    with pytest.raises(UnresolvedCluster, match="refinement boundary"):
        find_complex_points(surface, 64)


@pytest.mark.parametrize("model", [_graph_alpha2_at_node, _index_zero_at_node])
def test_zero_at_grid_node_is_flagged_with_no_zero_floor(model):
    # with zero_rel = 0 no node is near zero by the floor, but the exact
    # zero still flags the cells round it, and refinement probes it
    ev, d_du, d_dv = model()
    chart = Chart(ev, (-0.8, 0.8), (-0.8, 0.8), False, False, d_du, d_dv)
    surface = ParametrizedSurface("node-zero", (chart,), True, False, None, None)
    with pytest.raises(UnresolvedCluster, match="refinement boundary"):
        find_complex_points(surface, 64, Tolerances(zero_rel=0.0))


def _detector_chart(detector):
    """F_u = (1, 0), F_v = (i, delta) over [-1, 1]^2: the detector is delta itself."""

    def ev(u, v):
        return u + 1j * v, 0j * u

    def d_du(u, v):
        return 1.0 + 0j * u, 0j * u

    def d_dv(u, v):
        return 1j + 0j * u, detector(u, v)

    return Chart(ev, (-1.0, 1.0), (-1.0, 1.0), False, False, d_du, d_dv)


# a pair of zeros 0.44 cells apart in neighbouring cells of the shifted
# grid 64 over [-1, 1]: (u_40 -+ 0.22 h, v_20 + 0.5 h / + 0.55 h)
_H = 2.0 / 64
_PAIR_A = complex(-1 + (_GRID_SHIFT + 40) * _H - 0.22 * _H, -1 + (_GRID_SHIFT + 20) * _H + 0.5 * _H)
_PAIR_C = complex(-1 + (_GRID_SHIFT + 40) * _H + 0.22 * _H, -1 + (_GRID_SHIFT + 20) * _H + 0.55 * _H)


@pytest.mark.parametrize(
    "detector, windings",
    [
        (lambda z: (z - _PAIR_A) * (z - _PAIR_C), [1, 1]),
        (lambda z: (z - _PAIR_A) * np.conj(z - _PAIR_C), [-1, 1]),
    ],
    ids=["holomorphic", "conjugate"],
)
def test_close_zeros_in_neighbouring_cells_are_both_reported(detector, windings):
    chart = _detector_chart(lambda u, v: detector(u + 1j * v))
    surface = ParametrizedSurface("close-pair", (chart,), True, False, None, None)
    points = find_complex_points(surface, 64)
    assert len(points) == 2
    for p, zero in zip(sorted(points, key=lambda p: p.location), (_PAIR_A, _PAIR_C)):
        assert abs(complex(*p.location) - zero) < 1e-9
    assert sorted(p.winding_index for p in points) == windings


def _dip_zeros():
    """The two roots t of t exp(-t^2) = 1/4, by bisection on either side of
    the maximum at t = 1/sqrt(2)."""
    roots = []
    for lo, hi, rising in ((0.0, 0.5**0.5, True), (0.5**0.5, 3.0, False)):
        for _ in range(200):
            mid = (lo + hi) / 2
            if (mid * math.exp(-mid * mid) < 0.25) == rising:
                lo = mid
            else:
                hi = mid
        roots.append(lo)
    return roots


@pytest.mark.parametrize("grid", [256, 512])
def test_coarse_pass_resolves_a_dip_two_fine_cells_wide(grid):
    # delta = 1 + 4 w exp(-|w|^2), w = (z - a) / sigma: a dip of width sigma
    # = 2 fine cells (a quarter of a coarse cell) holding an elliptic and a
    # hyperbolic zero 1.0 sigma apart, at w = -t for the roots t of
    # t exp(-t^2) = 1/4; elsewhere delta is about 1, so the dip is all that
    # keeps its coarse cells
    sigma = 2 * (2.0 / grid)
    rng = random.Random(grid)
    for _ in range(20):
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

        def dip(u, v, a=a):
            w = (u + 1j * v - a) / sigma
            return 1 + 4 * w * np.exp(-np.abs(w) ** 2)

        surface = ParametrizedSurface("dip", (_detector_chart(dip),), True, False, None, None)
        points = sorted(find_complex_points(surface, grid), key=lambda p: p.winding_index)
        assert [p.winding_index for p in points] == [-1, 1]
        near, far = _dip_zeros()
        assert abs(complex(*points[1].location) - (a - near * sigma)) < 1e-9
        assert abs(complex(*points[0].location) - (a - far * sigma)) < 1e-9


@pytest.mark.parametrize(
    "surface, grid",
    [
        (wrinkled_sphere(0.6), 64),
        (round_sphere(), 64),
        (graph_normal_form(2.0), 64),
        (wrinkled_sphere(0.503), 32),
        (wrinkled_sphere(0.8441278066920379), 256),
        (wrinkled_sphere(0.6), 100),
        (flat_torus(), 100),
    ],
    ids=["wrinkled-0.6", "round", "graph-2", "wrinkled-0.503", "wrinkled-0.844", "wrinkled-0.6-100", "torus-100"],
)
def test_candidate_cells_contain_every_winding_cell(surface, grid):
    """The grid pass may only skip a cell whose boundary does not wind: its
    candidates hold every cell of the whole lattice that winds (the coarse
    pass included, and at grid 100, which the stride does not divide)."""
    for index, chart in enumerate(surface.charts):
        us, vs, h, _, cells = _grid_pass(chart, grid, index, DEFAULT_TOLERANCES.zero_rel)
        candidates = set(map(tuple, cells.tolist()))
        i, j = np.indices((grid, grid)).reshape(2, -1)
        windings = _windings(chart, np.column_stack([us[i], us[i + 1], vs[j], vs[j + 1]]), h)
        winding_cells = set(zip(i[windings != 0].tolist(), j[windings != 0].tolist()))
        assert bool(winding_cells) == (surface.label != "flat-torus")
        assert winding_cells <= candidates


def test_candidate_cells_flag_a_winding_of_settled_steps():
    # corner phases -3pi/4, -pi/4, pi/4, 3pi/4: four steps of exactly pi/2,
    # each settled, that wind once
    delta = np.array([[-1 - 1j, -1 + 1j], [1 - 1j, 1 + 1j]])
    assert _candidate_cells(delta, 0.0, np.abs(delta), math.sqrt(2)).tolist() == [[0, 0]]


@pytest.mark.parametrize("node", [0.0, 1e-160, 1e160, math.inf, math.nan])
def test_candidate_cells_flag_the_cells_round_a_node_off_scale(node):
    # a constant field with one node at 0, far off the median or not finite:
    # its edge products would be 0, inf or nan, so its four cells are flagged
    # like those of a near-zero node even with no zero floor
    delta = np.ones((5, 5), dtype=complex)
    delta[2, 2] = node
    modulus = np.abs(delta)
    cells = _candidate_cells(delta, 0.0, modulus, float(np.median(modulus)))
    assert cells.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]


def _angle_candidate_cells(delta, zero_floor):
    """Reference: the candidate rule read off wrapped corner angles."""
    ph = np.angle(delta)
    loop = (ph[:-1, :-1], ph[1:, :-1], ph[1:, 1:], ph[:-1, 1:], ph[:-1, :-1])
    total = np.zeros(ph[:-1, :-1].shape)
    flagged = np.zeros(total.shape, dtype=bool)
    for a, b in zip(loop[:-1], loop[1:]):
        step = (b - a + math.pi) % (2 * math.pi) - math.pi
        total += step
        flagged |= np.abs(step) > math.pi / 2
    flagged |= np.rint(total / (2 * math.pi)) != 0
    small = np.abs(delta) < zero_floor
    flagged |= small[:-1, :-1] | small[1:, :-1] | small[:-1, 1:] | small[1:, 1:]
    return np.argwhere(flagged)


@pytest.mark.parametrize("seed", range(8))
def test_candidate_cells_match_the_angle_rule_on_noise(seed):
    # raw and smoothed complex noise of random shape
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 300, size=2)
    field = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    for delta in (field, np.cumsum(np.cumsum(field, axis=0), axis=1)):
        modulus = np.abs(delta)
        scale = float(np.median(modulus))
        zero_floor = 0.1 * scale
        cells = _candidate_cells(delta, zero_floor, modulus, scale)
        assert np.array_equal(cells, _angle_candidate_cells(delta, zero_floor))


def _scan_scaled_detector(factor):
    chart = _detector_chart(lambda u, v: factor * (u + 1j * v - _PAIR_A))
    return find_complex_points(ParametrizedSurface("scaled", (chart,), True, False, None, None), 64)


def _assert_scanned_like_a_unit_detector(factor):
    (unit,), (scaled,) = _scan_scaled_detector(1.0), _scan_scaled_detector(factor)
    assert (scaled.winding_index, scaled.sign, scaled.ptype) == (unit.winding_index, unit.sign, unit.ptype) == (
        1, 1, PointType.ELLIPTIC,
    )
    assert abs(complex(*scaled.location) - complex(*unit.location)) < 1e-12


def test_tiny_detector_is_scanned_like_a_unit_one():
    # delta = 1e-170 (z - a): its edge products and Newton's 2x2
    # determinant would underflow to 0 without the power-of-two rescales
    _assert_scanned_like_a_unit_detector(1e-170)


def test_huge_detector_is_scanned_like_a_unit_one():
    # delta = 1e170 (z - a): the immersion check's squares of F_v and
    # Newton's 2x2 determinant would overflow; no warning may escape
    _assert_scanned_like_a_unit_detector(1e170)


def test_immersion_check_fails_a_nan_gram_and_passes_an_infinite_one():
    us = np.array([0.0])
    one, big = np.ones((1, 1), dtype=complex), np.full((1, 1), 1e170 + 0j)
    zero = np.zeros((1, 1), dtype=complex)
    # F_u = F_v = (1e170, 0): every square is inf and the Gram is inf - inf
    with pytest.raises(ImmersionFailure):
        _check_immersion(0, us, us, (big, zero, big, zero))
    # F_u = (1, 0), F_v = (i, 1e170): |F_v|^2 is inf, F_u . F_v = 0
    _check_immersion(0, us, us, (one, zero, 1j * one, big))


@pytest.mark.parametrize("grid", [100, 512])
@pytest.mark.parametrize(
    "surface",
    [wrinkled_sphere(0.6), flat_torus(), graph_normal_form(2.0)],
    ids=["wrinkled", "torus", "graph"],
)
def test_strip_lattice_equals_whole_lattice(surface, grid):
    """Every node the coarse and fine passes evaluate, seam nodes of a
    periodic chart included, has the bytes of the whole lattice's delta."""
    zero_rel = DEFAULT_TOLERANCES.zero_rel
    for index, chart in enumerate(surface.charts):
        us, vs, h, scale, _ = _grid_pass(chart, grid, index, zero_rel)
        whole = _delta(_partials(chart, *np.meshgrid(us, vs, indexing="ij"), *h))
        if chart.periodic_u:
            whole[-1, :] = whole[0, :]
        if chart.periodic_v:
            whole[:, -1] = whole[:, 0]
        ci, cj, coarse, _, kept = _coarse_pass(chart, us, vs, h, index, zero_rel)
        assert coarse.tobytes() == whole[np.ix_(ci, cj)].tobytes()
        # every coarse cell kept: the blocks then cover the whole lattice
        iu, iv, blocks, _ = _fine_pass(chart, us, vs, h, index, ci, cj, np.ones_like(kept), zero_rel * scale, scale)
        assert blocks.tobytes() == whole[iu[:, :, None], iv[:, None, :]].tobytes()
        assert sorted(set(iu.ravel().tolist())) == list(range(grid + 1))


def test_immersion_failure_past_the_first_strip_names_the_first_bad_node():
    # F_v turns real (parallel to F_u) where u > 0.5 and v > 0.3: at grid
    # 512 those nodes start many strips in
    def ev(u, v):
        return u + 1j * v, 0j * u

    def d_du(u, v):
        return 1.0 + 0j * u, 0j * u

    def d_dv(u, v):
        return np.where((u > 0.5) & (v > 0.3), 1.0, 1j) + 0j * u, 0j * u

    grid = 512
    chart = Chart(ev, (-1.0, 1.0), (-1.0, 1.0), False, False, d_du, d_dv)
    us = -1.0 + _GRID_SHIFT * (2.0 / grid) + (2.0 / grid) * np.arange(grid + 1)
    assert np.argmax(us > 0.5) >= _STRIP_NODES // (grid + 1)
    partials = _partials(chart, *np.meshgrid(us, us, indexing="ij"), 2.0 / grid, 2.0 / grid)
    with pytest.raises(ImmersionFailure) as whole:
        _check_immersion(0, us, us, partials)
    surface = ParametrizedSurface("half-real", (chart,), True, False, None, None)
    with pytest.raises(ImmersionFailure) as strips:
        find_complex_points(surface, grid)
    assert str(strips.value) == str(whole.value)


def test_immersion_failure_between_coarse_samples_is_found():
    # F_u = (1, 0), F_v = (i (u - a_u), z - a) vanishes at the fine node a
    # alone (node (21, 37) of grid 64, neither a coarse node nor a middle
    # one); the Gram determinant (u - a_u)^2 + |z - a|^2 is small only near
    # it, so its coarse cell is kept and the fine pass meets the node
    grid = 64
    us = -1.0 + _GRID_SHIFT * (2.0 / grid) + (2.0 / grid) * np.arange(grid + 1)
    a = complex(us[21], us[37])
    assert 21 % _STRIDE not in (0, _STRIDE // 2) and 37 % _STRIDE not in (0, _STRIDE // 2)

    def ev(u, v):
        return u + 1j * v, 0j * u

    def d_du(u, v):
        return 1.0 + 0j * u, 0j * u

    def d_dv(u, v):
        return 1j * (u - a.real) + 0j, u + 1j * v - a

    chart = Chart(ev, (-1.0, 1.0), (-1.0, 1.0), False, False, d_du, d_dv)
    surface = ParametrizedSurface("pinched", (chart,), True, False, None, None)
    with pytest.raises(ImmersionFailure, match=f"parameter \\({us[21]:.6g}, {us[37]:.6g}\\)"):
        find_complex_points(surface, grid)


def test_scan_is_deterministic():
    a = survey(wrinkled_sphere(), 128)
    b = survey(wrinkled_sphere(), 128)
    assert a == b


def test_grid_validation():
    with pytest.raises(ValueError):
        find_complex_points(flat_torus(), 4)
