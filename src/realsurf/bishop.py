"""Numerical detection of complex points on parametrized surfaces in
C^2.  The local model (``Jet2``, ``bishop_alpha``, ``classify``), the
tolerances, the scanner's exceptions and ``BUILTIN_SURFACES`` live in
the numpy-free ``realsurf.local`` and are re-exported here.

A point of an embedded real surface is *complex* when its tangent plane
is a complex line of the ambient C^2.  For a parametrized patch
F(u, v) this happens exactly where

    delta(u, v) = det_C( dF/du, dF/dv )

vanishes (the two partials become complex-linearly dependent), so
detection is zero-finding for delta: a coarse-to-fine grid pass (delta
on every 8th node of the grid, a Lipschitz exclusion test per coarse
cell, and the fine nodes only in the coarse cells it cannot clear),
winding-number tests on the fine cells left, and quadtree refinement
that lets a box winding +-1 go once a uniqueness test and a batched
Newton polish settle it.  Every phase reads grad delta from
``_probe``: the chart's second-order jet where it has one, a central
difference of fixed step otherwise.

At each zero the detector is linearized in the tangent-line coordinate
z = <F - F(0), t>, t the unit complex tangent direction:

    delta = p z + q zbar + O(|z|^2)

with p and q read off grad delta at the zero.  For the graph
w = A z^2 + B z zbar + C zbar^2 + O(|z|^3) over the tangent line,
delta = -2i (B z + 2 C zbar) up to a nonzero factor, so

    alpha = |p| / |q| = |B| / (2 |C|)    (infinite for C = 0, degenerate for B = C = 0)

is the holomorphic invariant of the point (the A term is absorbed by the
holomorphic substitution w -> w - A z^2): alpha > 1 elliptic, < 1
hyperbolic, = 1 parabolic.  On the model form
w = alpha z zbar + (z^2 + zbar^2)/2 this normalization returns alpha
itself.

Signs and indices (oriented surfaces): at a complex point F_v = lambda
F_u over C, and the point is positive when Im(lambda) > 0, i.e. when
the parametrization orients the tangent plane like the complex line it
spans.  The reported ``winding_index`` is the winding of delta around
the zero along a loop oriented by that complex line - equivalently the
parameter-space winding times the sign - which makes it +1 at elliptic
and -1 at hyperbolic points regardless of how the surface is oriented,
and makes the indices sum to e - h.  Each point is checked against that
rule: a winding that disagrees with |p| > |q| means the located cell
held more than the one simple zero, and raises ``UnresolvedCluster``.

Scanning is deterministic: results are a pure function of the surface,
the grid and the tolerances (the scan grid is shifted by a fixed
sub-cell offset so that symmetric surfaces do not park zeros on cell
boundaries).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ambient import Check
from .local import (
    BUILTIN_SURFACES,
    DEFAULT_TOLERANCES,
    GenericityFailure,
    ImmersionFailure,
    Jet2,
    PointType,
    Tolerances,
    UnresolvedCluster,
    bishop_alpha,
    classify,
    parse_builtin_surface,
)

__all__ = [
    "Jet2",
    "PointType",
    "Tolerances",
    "Chart",
    "ParametrizedSurface",
    "PointReport",
    "SurveyReport",
    "ImmersionFailure",
    "UnresolvedCluster",
    "GenericityFailure",
    "bishop_alpha",
    "classify",
    "find_complex_points",
    "survey",
    "builtin_surface",
    "BUILTIN_SURFACES",
    "flat_torus",
    "round_sphere",
    "wrinkled_sphere",
    "graph_normal_form",
]


# --- surfaces -------------------------------------------------------------------


@dataclass
class Chart:
    """One parameter patch of a surface.

    ``evaluate`` maps (u, v) to a point (z, w) of C^2, elementwise on
    numpy arrays: the scan always calls it with two float arrays of the
    same shape (0-d included), never with Python floats.  ``d_du`` /
    ``d_dv`` are optional analytic partials with the same calling
    convention; when absent the scan takes central differences of
    ``evaluate`` with a fixed step of 5e-5, which suits a chart of unit
    scale.  ``owns(u, v)``
    gets Python floats and is the chart's region of responsibility: when
    several charts cover the surface the predicates must partition it,
    so each complex point is reported exactly once.

    ``jet(u, v)`` is optional, for a chart that has ``d_du`` and ``d_dv``
    (a jet without both raises ``ValueError``), with their calling
    convention: it returns (F_u, F_v, F_uu, F_uv, F_vv), each a (z, w)
    pair of arrays, and its F_u and F_v must be bitwise ``d_du`` and
    ``d_dv`` at the same arrays (every phase then sees one delta).  The
    scan reads grad delta from it wherever it needs it; without it grad
    delta is a central difference of delta with the same 5e-5 step.

    Every callable must tolerate arguments up to 2.32 grid cells and
    1e-4 more outside the nominal rectangle along each axis: the shifted
    grid's last nodes lie 0.32 cells out, Newton's unconfined fallback
    may move 2 cells from its box, a chart without a jet has its
    partials read a step past a point and one without partials is
    evaluated a step further.
    """

    evaluate: Callable
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    periodic_u: bool = False
    periodic_v: bool = False
    d_du: Callable | None = None
    d_dv: Callable | None = None
    owns: Callable | None = None
    label: str = ""
    jet: Callable | None = None

    def __post_init__(self):
        if self.jet is not None and (self.d_du is None or self.d_dv is None):
            raise ValueError(f"chart {self.label!r} has a jet but not both d_du and d_dv")


@dataclass
class ParametrizedSurface:
    """A surface presented by charts, with the topology data the count
    formulas need supplied by the caller (euler_char, and the normal
    Euler number of the embedding, zero for all builtin surfaces)."""

    label: str
    charts: tuple[Chart, ...]
    orientable: bool = True
    closed: bool = True
    euler_char: int | None = None
    normal_euler: int | None = None


@dataclass(frozen=True)
class PointReport:
    chart: int
    location: tuple[float, float]
    position: tuple[complex, complex]
    winding_index: int
    sign: int | None
    alpha: float | None
    ptype: PointType


@dataclass(frozen=True)
class SurveyReport:
    points: tuple[PointReport, ...]
    e_plus: int
    e_minus: int
    h_plus: int
    h_minus: int
    i_total: int
    i_plus: int | None
    i_minus: int | None
    checks: tuple[Check, ...]

    @property
    def e_count(self) -> int:
        return self.e_plus + self.e_minus

    @property
    def h_count(self) -> int:
        return self.h_plus + self.h_minus

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


# fixed sub-cell shift of the scan grid (1/pi): keeps zeros of symmetric
# surfaces off cell corners and edges
_GRID_SHIFT = 0.3183098861837907
_TWO_PI = 2.0 * math.pi
# largest phase step between neighbouring boundary samples that is trusted
# without sampling in between
_SETTLED = math.pi / 2
# bisections allowed per rectangle before its boundary phase counts as noise
_BUDGET = 1 << 14
# rectangles refined together: a detector whose phase will not settle can
# spend the whole budget on every rectangle at once, and a batch bounds the
# segments held in memory to about _BATCH * _BUDGET
_BATCH = 64
# fine cells per coarse cell side in the grid pass: the coarse lattice is
# every 8th node.  A feature of delta narrower than about two fine cells
# can lie wholly between the coarse samples and be missed (README,
# "Scanner conventions"); stride 16 misses them at twice the width, and
# stride 4 made a grid-512 scan 2.5 times slower
_STRIDE = 8
# nodes per strip of the fine pass (stacked blocks of kept coarse cells):
# a strip's partials and their temporaries stay in cache
_STRIP_NODES = 1 << 14
# step of the central differences that stand in for a missing jet (of delta,
# in ``_probe``) and missing partials (of F, in ``_partials``): nested, their
# truncation error grows like h^2 and rounding error like 1e-16 / h^2, which
# balance near 1e-4 on a chart of unit scale
_FD_STEP = 5e-5
# the point and its four central-difference neighbours, in steps
_PROBE = np.array([[0, 1, -1, 0, 0], [0, 0, 0, 1, -1]])


def _wrap(angles):
    return (angles + math.pi) % _TWO_PI - math.pi


def _as_complex_pair(raw):
    z, w = raw
    return np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)


def _partials(chart: Chart, u, v):
    """(zu, wu, zv, wv) = dF/du, dF/dv at arrays u, v of any shape: the
    chart's analytic partials, or central differences with step ``_FD_STEP``."""
    if chart.d_du is not None and chart.d_dv is not None:
        return (*_as_complex_pair(chart.d_du(u, v)), *_as_complex_pair(chart.d_dv(u, v)))
    h = _FD_STEP
    zp, wp = _as_complex_pair(chart.evaluate(u + h, v))
    zm, wm = _as_complex_pair(chart.evaluate(u - h, v))
    zq, wq = _as_complex_pair(chart.evaluate(u, v + h))
    zn, wn = _as_complex_pair(chart.evaluate(u, v - h))
    return (zp - zm) / (2 * h), (wp - wm) / (2 * h), (zq - zn) / (2 * h), (wq - wn) / (2 * h)


def _delta(partials):
    """The detector det_C(dF/du, dF/dv) from the output of ``_partials``."""
    zu, wu, zv, wv = partials
    return zu * wv - wu * zv


def _grid_pass(chart: Chart, grid: int, chart_index: int, zero_rel: float):
    """The candidate cells of the (grid x grid) cell lattice, coarse to fine.

    Delta lives on the (grid+1)^2 node lattice and is evaluated on it in
    two steps: ``_coarse_pass`` samples every ``_STRIDE``-th node and
    clears the coarse cells that a Lipschitz bound shows free of zeros,
    and ``_fine_pass`` evaluates the fine nodes of the other coarse cells
    only and applies ``_candidate_cells`` there.
    Returns the node coordinates us, vs, the cell size h, the median
    |delta| of the coarse nodes (``scale``) and the candidate cells as
    index pairs (i, j) in row-major order.  A zero ``scale`` raises
    ``UnresolvedCluster`` before the fine pass.
    """
    (u0, u1), (v0, v1) = chart.u_range, chart.v_range
    h = hu, hv = (u1 - u0) / grid, (v1 - v0) / grid
    us = u0 + _GRID_SHIFT * hu + hu * np.arange(grid + 1)
    vs = v0 + _GRID_SHIFT * hv + hv * np.arange(grid + 1)
    ci, cj, scale, kept = _coarse_pass(chart, us, vs, h, chart_index, zero_rel)
    if scale == 0.0:
        raise UnresolvedCluster(
            f"detector vanishes on half the grid of chart {chart_index}; "
            "zeros are not isolated"
        )
    cells = _fine_pass(chart, us, vs, chart_index, ci, cj, kept, zero_rel * scale, scale)
    return us, vs, h, scale, cells


def _node_coordinates(chart: Chart, us, vs, i, j):
    """The parameters of fine nodes (i, j); on a periodic axis the seam
    index grid is node 0, so its delta is bitwise node 0's."""
    grid = len(us) - 1
    return us[i % grid if chart.periodic_u else i], vs[j % grid if chart.periodic_v else j]


def _coarse_pass(chart: Chart, us, vs, h, chart_index: int, zero_rel: float):
    """The coarse lattice of every ``_STRIDE``-th fine node (fine indices
    ci x cj, the last row and column narrower when the stride does not
    divide the grid), the median modulus ``scale`` of delta there, and
    which coarse cells are ``kept``, that is, not proved free of zeros.

    Each coarse cell is sampled at its four corners and at its middle
    fine node m, and cleared when |delta(m)| > L r + 1e-6 P, with
    L = 2 max |grad delta| and P = 2 max |F_u| |F_v| over the five
    samples and r the distance from m to the farthest corner (grad delta
    from ``_probe`` at the samples).  L r estimates how far
    delta can fall from m; it is a bound only where delta varies on
    scales above the samples' spacing.  The middle sample halves the
    distance from a point of the cell to the nearest gradient sample, so
    a feature about two fine cells wide anywhere in the cell raises L.  The P term keeps the
    immersion check sound: by Lagrange's identity the Gram determinant of
    the partials is Im<F_u, F_v>^2 + |delta|^2, so a node that fails the
    check has |delta| < 1e-6 |F_u| |F_v|, and a cleared cell holds none.
    A cell is kept when a sample is a near-zero or off-scale node of the
    candidate rule, and when the test is nan or inf.
    """
    grid = len(us) - 1
    ci = cj = np.append(np.arange(0, grid, _STRIDE), grid)
    mi = mj = (ci[:-1] + ci[1:]) // 2
    d, grad, span = _samples(chart, us, vs, chart_index, ci[:, None], cj[None, :])
    dm, grad_m, span_m = _samples(chart, us, vs, chart_index, mi[:, None], mj[None, :])
    modulus = np.abs(d)
    scale = float(np.median(modulus))
    zero_floor, factor = zero_rel * scale, _unit_factor(scale)
    with np.errstate(over="ignore", invalid="ignore"):
        lipschitz = 2.0 * np.maximum(np.maximum.reduce(_corners(grad)), grad_m)
        size = 2.0 * np.maximum(np.maximum.reduce(_corners(span)), span_m)
        du = np.maximum(mi - ci[:-1], ci[1:] - mi)[:, None] * h[0]
        dv = np.maximum(mj - cj[:-1], cj[1:] - mj)[None, :] * h[1]
        kept = ~(np.abs(dm) > lipschitz * np.hypot(du, dv) + 1e-6 * size)
        kept |= np.logical_or.reduce(_corners(_near_zero(modulus, zero_floor, factor)))
        kept |= _near_zero(np.abs(dm), zero_floor, factor)
    return ci, cj, scale, kept


def _samples(chart: Chart, us, vs, chart_index: int, i, j):
    """Delta, |grad delta| and |F_u| |F_v| at the fine nodes i x j (index
    columns (m, 1) and rows (1, n)) from one ``_probe``, after checking
    those nodes for immersion."""
    # copies: the chart gets writable arrays, not broadcast views
    u, v = (x.copy() for x in np.broadcast_arrays(*_node_coordinates(chart, us, vs, i, j)))
    at_nodes, d, d_u, d_v = _probe(chart, u, v)
    _check_immersion(chart_index, u, v, at_nodes)
    zu, wu, zv, wv = at_nodes
    with np.errstate(over="ignore", invalid="ignore"):
        grad = np.hypot(np.abs(d_u), np.abs(d_v))
        span = np.hypot(np.abs(zu), np.abs(wu)) * np.hypot(np.abs(zv), np.abs(wv))
    return d, grad, span


def _fine_pass(chart: Chart, us, vs, chart_index: int, ci, cj, kept, zero_floor, scale):
    """The candidate cells (i, j), in row-major order, among the fine
    cells of the kept coarse cells.

    Each kept cell's (_STRIDE+1)^2 fine nodes form one block, its far
    edge node repeated where the cell is narrower; the stacked blocks
    are evaluated one strip of about ``_STRIP_NODES`` nodes at a time,
    and each strip is checked for immersion and run through
    ``_candidate_cells``, all its blocks at once.
    """
    a, b = np.nonzero(kept)
    steps = np.arange(_STRIDE + 1)
    iu = np.minimum(ci[a, None] + steps, ci[a + 1, None])
    iv = np.minimum(cj[b, None] + steps, cj[b + 1, None])
    bu, bv = _node_coordinates(chart, us, vs, iu, iv)
    flagged = [np.empty((0, 3), dtype=np.intp)]  # (block, i, j) of each candidate
    blocks = max(1, _STRIP_NODES // (_STRIDE + 1) ** 2)
    for first in range(0, len(a), blocks):
        u, v = np.broadcast_arrays(bu[first:first + blocks, :, None], bv[first:first + blocks, None, :])
        partials = _partials(chart, u.copy(), v.copy())
        _check_immersion(chart_index, u, v, partials)
        flagged.append(_candidate_cells(_delta(partials), zero_floor, scale) + (first, 0, 0))
    k, i, j = np.concatenate(flagged).T
    # a narrower cell's repeated nodes span empty cells
    real = (iu[k, i] < iu[k, i + 1]) & (iv[k, j] < iv[k, j + 1])
    i, j = iu[k, i][real], iv[k, j][real]
    order = np.lexsort((j, i))
    return np.column_stack([i[order], j[order]])


def _immersion_fails(partials):
    """Where the partials are real-linearly dependent: relative Gram
    determinant below 1e-12.  A square may overflow: a NaN Gram fails,
    an infinite one passes."""
    zu, wu, zv, wv = partials
    with np.errstate(over="ignore", invalid="ignore"):
        na = np.abs(zu) ** 2 + np.abs(wu) ** 2
        nb = np.abs(zv) ** 2 + np.abs(wv) ** 2
        rp = (zu * np.conj(zv) + wu * np.conj(wv)).real
        gram = na * nb - rp * rp
        return (na * nb == 0.0) | ~(gram >= 1e-12 * na * nb)


def _check_immersion(chart_index: int, u, v, partials) -> None:
    """Raise ``ImmersionFailure`` at the first node, in evaluation order
    (the arrays' element order), that ``_immersion_fails``; u and v are
    the nodes' parameters, arrays of the partials' shape."""
    bad = _immersion_fails(partials)
    if np.any(bad):
        k = np.argmax(bad)
        raise ImmersionFailure(
            f"partial derivatives are real-linearly dependent near "
            f"chart {chart_index} parameter ({u.flat[k]:.6g}, {v.flat[k]:.6g})"
        )


def _corners(x):
    """The four corners of every cell of a node array (..., m, n)."""
    return x[..., :-1, :-1], x[..., 1:, :-1], x[..., :-1, 1:], x[..., 1:, 1:]


def _unit_factor(scale):
    """The power of two that brings scale (float or array) into [1/2, 1)."""
    return np.ldexp(1.0, np.minimum(-np.frexp(scale)[1], 1023))  # 2.0 ** 1024 overflows


def _near_zero(modulus, zero_floor, factor):
    """Nodes the candidate rule treats as near zero: below the floor, or
    about 2^500 or more off the median (zero, infinite and nan included)."""
    mf = modulus * factor
    return (modulus < zero_floor) | ~((mf > 2.0**-500) & (mf < 2.0**500))


def _candidate_cells(delta, zero_floor, scale):
    """Index tuples of the cells of the node array delta (..., m, n) that
    need a closer look, by the rule ``_windings`` starts from on the same
    four corners: a cell left out has four settled steps summing to zero,
    so refinement would judge it winding 0 at once.  ``scale`` is the
    median |delta| of the coarse nodes.

    Each edge from a to b is tested once, in real arithmetic: its phase
    step exceeds pi/2 exactly when Re(b conj(a)) < 0.  A cell is flagged
    when one of its four edges is unsettled, when the four turns
    Im(b conj(a)) along its loop (i,j) -> (i+1,j) -> (i+1,j+1) -> (i,j+1)
    all have the same strict sign (four steps of at most pi/2 wind only
    as four steps of pi/2 in one direction), or when a corner is a
    near-zero node.  Delta is first multiplied by the power of two that
    brings scale into [1/2, 1); the multiply is exact.  A node about
    2^500 or more off the median, or zero, infinite or nan, is flagged
    like a near-zero node, so the products of the other nodes can neither
    underflow nor overflow.
    """
    factor = _unit_factor(scale)
    # an off-scale node's products may be 0, inf or nan; its cells are
    # flagged whatever they are
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        d = delta * factor
        # edge products along u, (i,j) -> (i+1,j), and along v, (i,j) -> (i,j+1)
        pu = d[..., 1:, :] * d[..., :-1, :].conj()
        pv = d[..., :, 1:] * d[..., :, :-1].conj()
        open_u, open_v = pu.real < 0, pv.real < 0
        cells = open_u[..., :, :-1] | open_u[..., :, 1:] | open_v[..., :-1, :] | open_v[..., 1:, :]
        # turn signs; the loop runs the u edge at j+1 and the v edge at i backwards
        sign_u = (pu.imag > 0).view(np.int8) - (pu.imag < 0).view(np.int8)
        sign_v = (pv.imag > 0).view(np.int8) - (pv.imag < 0).view(np.int8)
        cells |= np.abs(sign_u[..., :, :-1] + sign_v[..., 1:, :] - sign_u[..., :, 1:] - sign_v[..., :-1, :]) == 4
        cells |= np.logical_or.reduce(_corners(_near_zero(np.abs(delta), zero_floor, factor)))
    return np.argwhere(cells)


def _windings(chart: Chart, rects, chart_index: int) -> np.ndarray:
    """Winding of delta along the boundary of each rectangle (rows
    ua, ub, va, vb), with adaptive phase sampling: starting from the
    corners, every segment whose phase step exceeds pi/2 is bisected, one
    array call per round for all rectangles of a batch.

    Tiny values still carry a meaningful phase; only an exact zero on the
    boundary is unresolvable.  Noise-corrupted phases fail to settle and
    exhaust the sampling budget instead.
    """

    def phase(u, v):
        d = _delta(_partials(chart, u, v))
        if np.any(d == 0):
            k = np.argmax(d == 0)
            raise UnresolvedCluster(
                f"detector vanishes on a refinement boundary near chart {chart_index} "
                f"parameter ({u[k]:.6g}, {v[k]:.6g})"
            )
        return np.angle(d)

    out = np.zeros(len(rects), dtype=int)
    for first in range(0, len(rects), _BATCH):
        batch = rects[first:first + _BATCH]
        cu, cv = batch[:, [0, 1, 1, 0]], batch[:, [2, 2, 3, 3]]  # corners, counterclockwise
        corners = np.stack([cu, cv, phase(cu.ravel(), cv.ravel()).reshape(cu.shape)], axis=-1)
        # segments as (u, v, phase) rows of their two ends
        a, b = corners.reshape(-1, 3), np.roll(corners, -1, axis=1).reshape(-1, 3)
        owner = np.repeat(np.arange(len(batch)), 4)
        total = np.zeros(len(batch))
        spent = np.zeros(len(batch), dtype=int)
        while True:
            step = _wrap(b[:, 2] - a[:, 2])
            settled = np.abs(step) <= _SETTLED
            total += np.bincount(owner[settled], weights=step[settled], minlength=len(batch))
            a, b, owner = a[~settled], b[~settled], owner[~settled]
            if not len(owner):
                break
            spent += np.bincount(owner, minlength=len(batch))
            if np.any(spent >= _BUDGET):
                ua, ub, va, vb = batch[np.argmax(spent >= _BUDGET)]
                raise UnresolvedCluster(
                    f"phase along a cell boundary failed to settle near chart {chart_index} "
                    f"parameter ({(ua + ub) / 2:.6g}, {(va + vb) / 2:.6g})"
                )
            mid = (a + b) / 2
            mid[:, 2] = phase(mid[:, 0], mid[:, 1])
            a, b, owner = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([owner, owner])
        out[first:first + _BATCH] = np.rint(total / _TWO_PI)
    return out


# asymmetric split keeps subdivision lines off symmetric zero positions
_SPLIT = 0.511716


def _localize(chart: Chart, rects, chart_index: int, cell: float, tol: Tolerances, stop: float):
    """Quadtree descent to the zeros inside the candidate cells (rows
    ua, ub, va, vb), one level at a time over every live box, and their
    Newton polish.  A box winding 0 is dropped; one winding +-1 leaves
    when it passes ``_unique`` and ``_newton`` from its centre stays in
    it; any other box is split.  At depth ``max_refine`` a box winding
    +-1 is polished unconfined, and one winding more raises
    ``UnresolvedCluster``.  Returns arrays u, v and windings."""
    located = []
    windings = _windings(chart, rects, chart_index)
    for depth in range(tol.max_refine + 1):
        live = windings != 0  # winding judged zero at the finer look: false positive
        rects, windings = rects[live], windings[live]
        simple = np.flatnonzero(np.abs(windings) == 1)
        simple = simple[_unique(chart, rects[simple])]
        boxes = rects[simple]
        u, v, inside = _newton(chart, *_centres(boxes), cell, stop, boxes)
        settled = simple[inside]
        located.append((u[inside], v[inside], windings[settled]))
        rects, windings = np.delete(rects, settled, axis=0), np.delete(windings, settled)
        if depth == tol.max_refine or not len(rects):
            break
        ua, ub, va, vb = rects.T
        um, vm = ua + _SPLIT * (ub - ua), va + _SPLIT * (vb - va)
        rects = np.concatenate([
            np.column_stack(child)
            for child in ((ua, um, va, vm), (um, ub, va, vm), (ua, um, vm, vb), (um, ub, vm, vb))
        ])
        windings = _windings(chart, rects, chart_index)
    cu, cv = _centres(rects)
    for u, v, w in zip(cu, cv, windings):
        if abs(w) != 1:
            raise UnresolvedCluster(
                f"winding {w} not separated into simple zeros at depth {tol.max_refine} "
                f"near chart {chart_index} parameter ({u:.6g}, {v:.6g})"
            )
    u, v, _ = _newton(chart, cu, cv, cell, stop)
    located.append((u, v, windings))
    return tuple(np.concatenate(x) for x in zip(*located))


# Newton iterations per located zero
_NEWTON_STEPS = 30
# share of sigma_min(J) the corner Jacobians may differ by in ``_unique``:
# the theorem needs a share below 1 all over the box, which is sampled at
# five points only
_UNIQUE = 0.5
# the index an oriented surface's point of each generic type must have
_INDEX = {PointType.ELLIPTIC: 1, PointType.HYPERBOLIC: -1}


def _centres(rects):
    """The centres u, v of rectangles (rows ua, ub, va, vb)."""
    return (rects[:, 0] + rects[:, 1]) / 2, (rects[:, 2] + rects[:, 3]) / 2


def _probe(chart: Chart, u, v):
    """The partials and delta at points u, v (writable arrays), and grad
    delta (D_u, D_v) there, which the scan forms nowhere else: from one
    ``jet`` call, D_u = z_uu w_v + z_u w_uv - w_uu z_v - w_u z_uv and D_v
    likewise, or without a jet as central differences of delta with step
    ``_FD_STEP``, from the partials at the points and four neighbours."""
    if chart.jet is None:
        h = _FD_STEP
        partials = _partials(chart, u[..., None] + h * _PROBE[0], v[..., None] + h * _PROBE[1])
        d = _delta(partials)
        d_u, d_v = (d[..., 1] - d[..., 2]) / (2 * h), (d[..., 3] - d[..., 4]) / (2 * h)
        return [x[..., 0] for x in partials], d[..., 0], d_u, d_v
    (zu, wu), (zv, wv), (zuu, wuu), (zuv, wuv), (zvv, wvv) = map(_as_complex_pair, chart.jet(u, v))
    partials = zu, wu, zv, wv
    with np.errstate(over="ignore", invalid="ignore"):
        d_u = zuu * wv + zu * wuv - wuu * zv - wu * zuv
        d_v = zuv * wv + zu * wvv - wuv * zv - wu * zvv
    return partials, _delta(partials), d_u, d_v


def _unique(chart: Chart, rects):
    """Which rectangles (rows ua, ub, va, vb) pass the uniqueness test:
    ||D delta - J||_F < ``_UNIQUE`` sigma_min(J) at the four corners, J
    the real 2x2 Jacobian of delta at the centre.  Were it below
    sigma_min(J) all over the rectangle, delta would be injective there
    and a winding of +-1 would mean one zero; five samples make it an
    estimate.  The Jacobians are rescaled as in ``_newton``."""
    if not len(rects):
        return np.zeros(0, dtype=bool)
    ua, ub, va, vb = rects.T
    cu, cv = _centres(rects)
    u, v = np.column_stack([cu, ua, ub, ub, ua]), np.column_stack([cv, va, va, vb, vb])
    _, _, du, dv = _probe(chart, u, v)
    with np.errstate(all="ignore"):
        factor = _unit_factor(np.maximum(np.abs(du[:, :1]), np.abs(dv[:, :1])))
        du, dv = du * factor, dv * factor
        ju, jv = du[:, :1], dv[:, :1]
        # sigma_max +- sigma_min = sqrt(|J|_F^2 +- 2 |det J|)
        frob2 = np.abs(ju) ** 2 + np.abs(jv) ** 2
        det = np.abs(ju.real * jv.imag - jv.real * ju.imag)
        sigma_min = 2 * det / (np.sqrt(frob2 + 2 * det) + np.sqrt(np.maximum(frob2 - 2 * det, 0.0)))
        return np.all(np.hypot(np.abs(du - ju), np.abs(dv - jv)) < _UNIQUE * sigma_min, axis=1)


def _newton(chart: Chart, u, v, cell: float, stop: float, rects=None):
    """Damped 2x2 Newton steps on delta from points u, v (arrays), one
    probe call per step.  A point stops at |delta| <= stop, at a singular
    Jacobian or at a step below 1e-15.  With ``rects`` (rows ua, ub, va,
    vb) a point that leaves its rectangle stops, and the returned mask is
    False for it; without, a point that strays more than 2 cells from its
    start falls back to the start, and stops."""
    u0, v0 = u, v
    done = np.zeros(len(u), dtype=bool)
    inside = ~done
    for _ in range(_NEWTON_STEPS):
        if done.all():
            break
        _, d, du_, dv_ = _probe(chart, u, v)
        with np.errstate(all="ignore"):
            done |= np.abs(d) <= stop
            # bring max(|D_u|, |D_v|) into [1/2, 1): exact, and the 2x2
            # solve below neither underflows nor overflows
            factor = _unit_factor(np.maximum(np.abs(du_), np.abs(dv_)))
            d, du_, dv_ = d * factor, du_ * factor, dv_ * factor
            det = du_.real * dv_.imag - dv_.real * du_.imag
            done |= det == 0.0
            su = (dv_.real * d.imag - d.real * dv_.imag) / det
            sv = (d.real * du_.imag - du_.real * d.imag) / det
            norm = np.hypot(su, sv)
            damp = cell / np.maximum(norm, cell)  # at most one cell per step
            u, v = np.where(done, u, u + su * damp), np.where(done, v, v + sv * damp)
        if rects is None:
            strayed = np.hypot(u - u0, v - v0) > 2 * cell
            u, v = np.where(strayed, u0, u), np.where(strayed, v0, v)
        else:
            ua, ub, va, vb = rects.T
            strayed = ~((ua <= u) & (u <= ub) & (va <= v) & (v <= vb))
            inside &= ~strayed
        done |= strayed | (norm < 1e-15)
    return u, v, inside


def _sign_and_jet(partials, du: complex, dv: complex, chart_index: int, u: float, v: float) -> tuple[int, Jet2]:
    """Sign and quadratic jet of a complex point from a ``_probe`` at it.

    In the tangent-line coordinate z = <F - F0, t>, t = F_u / |F_u|, the
    parameter directions are A = |F_u| and B = <F_v, t>, and the sign is
    that of Im B.  Solving D_u = p A + q conj(A), D_v = p B + q conj(B)
    linearizes delta = p z + q zbar, and delta = -2i (b z + 2 c zbar) on
    the graph w = a z^2 + b z zbar + c zbar^2 gives the jet.
    """
    zu, wu, zv, wv = map(complex, partials)
    A = math.sqrt(abs(zu) ** 2 + abs(wu) ** 2)
    B = (zv * zu.conjugate() + wv * wu.conjugate()) / A
    if B.imag == 0.0:
        raise ImmersionFailure(
            f"tangent vectors are real-dependent at the complex point near "
            f"chart {chart_index} parameter ({u:.6g}, {v:.6g})"
        )
    det = A * (B.conjugate() - B)
    p = (du * B.conjugate() - A * dv) / det
    q = (A * dv - B * du) / det
    return (1 if B.imag > 0 else -1), Jet2(0j, 0.5j * p, 0.25j * q)


def _wrap_into(x, lo: float, hi: float, periodic: bool):
    if not periodic:
        return x
    return lo + (x - lo) % (hi - lo)


def find_complex_points(
    surface: ParametrizedSurface,
    grid: int = 256,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[PointReport]:
    """Locate and classify all complex points of the surface.

    Scans every chart on a (grid x grid) cell lattice, keeps each zero of
    the detector that the chart owns, and reports location, winding
    index, sign (oriented surfaces), alpha and type.  Deterministic for
    fixed inputs.

    The grid pass (``_grid_pass``) evaluates delta on a coarse lattice of
    every 8th node first and on the fine nodes only of the coarse cells
    that its exclusion test cannot clear; the median |delta| of the
    coarse nodes sets the zero floor and Newton's stopping residual.  A
    feature of delta narrower than about two cells can hide between the
    coarse samples, and a pair of opposite zeros inside one cell winds 0;
    neither is reported.

    ``_localize`` lets a box winding +-1 leave the quadtree at the first
    level where it is settled, at most ``tol.max_refine`` deep.  ``grid``
    must be an integer of at least 8.
    """
    # a node count: a Python or numpy integer, not a bool
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral):
        raise TypeError(f"grid must be an integer, got {grid!r}")
    if grid < 8:
        raise ValueError("grid must be at least 8")
    reports: list[PointReport] = []
    for chart_index, chart in enumerate(surface.charts):
        us, vs, h, scale, cells = _grid_pass(chart, grid, chart_index, tol.zero_rel)
        i, j = cells.T
        rects = np.column_stack([us[i], us[i + 1], vs[j], vs[j + 1]])
        u, v, windings = _localize(chart, rects, chart_index, min(h), tol, 1e-13 * scale)
        u = _wrap_into(u, *chart.u_range, chart.periodic_u)
        v = _wrap_into(v, *chart.v_range, chart.periodic_v)
        if chart.owns is not None:
            owned = np.array([chart.owns(a, b) for a, b in zip(u.tolist(), v.tolist())], dtype=bool)
            u, v, windings = u[owned], v[owned], windings[owned]
        if not len(u):
            continue
        # the sign and jet of every owned point from one probe call, and
        # their positions from one evaluation
        partials, _, du, dv = _probe(chart, u, v)
        z, w = _as_complex_pair(chart.evaluate(u, v))
        for k, (uk, vk, winding) in enumerate(zip(u.tolist(), v.tolist(), windings.tolist())):
            sign, jet = _sign_and_jet([x[k] for x in partials], complex(du[k]), complex(dv[k]), chart_index, uk, vk)
            alpha = bishop_alpha(jet, tol.zero_rel)
            ptype = classify(alpha, tol.parabolic_band)
            if not surface.orientable:
                sign, index = None, winding
            else:
                index = winding * sign
                if ptype in _INDEX and index != _INDEX[ptype]:
                    raise UnresolvedCluster(
                        f"{ptype.value} point with index {index:+d} at chart {chart_index} "
                        f"parameter ({uk:.6g}, {vk:.6g}); its cell holds more than one zero"
                    )
            reports.append(
                PointReport(
                    chart=chart_index,
                    location=(uk, vk),
                    position=(complex(z[k]), complex(w[k])),
                    winding_index=index,
                    sign=sign,
                    alpha=alpha,
                    ptype=ptype,
                )
            )
    reports.sort(key=lambda r: (r.chart, round(r.location[0], 9), round(r.location[1], 9)))
    return reports


def survey(
    surface: ParametrizedSurface,
    grid: int = 256,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SurveyReport:
    """Scan a closed surface, tally complex points by type and sign, and
    cross-check the counts against the topological formulas."""
    if not surface.closed:
        raise ValueError(f"survey needs a closed surface; {surface.label!r} has boundary")
    if surface.euler_char is None:
        raise ValueError("survey needs the surface Euler characteristic")
    if not surface.orientable:
        raise ValueError("signed tallies need an oriented surface (none of the v1 catalog is nonorientable)")
    points = find_complex_points(surface, grid, tol)
    bad = [p for p in points if p.ptype in (PointType.PARABOLIC, PointType.DEGENERATE)]
    if bad:
        raise GenericityFailure(
            f"nongeneric complex point ({bad[0].ptype.value}) at chart {bad[0].chart} "
            f"{bad[0].location}; perturb the surface"
        )
    e_plus = sum(1 for p in points if p.ptype is PointType.ELLIPTIC and p.sign > 0)
    e_minus = sum(1 for p in points if p.ptype is PointType.ELLIPTIC and p.sign < 0)
    h_plus = sum(1 for p in points if p.ptype is PointType.HYPERBOLIC and p.sign > 0)
    h_minus = sum(1 for p in points if p.ptype is PointType.HYPERBOLIC and p.sign < 0)
    i_total = e_plus + e_minus - h_plus - h_minus
    i_plus, i_minus = e_plus - h_plus, e_minus - h_minus
    chi = surface.euler_char
    chi_normal = surface.normal_euler if surface.normal_euler is not None else 0
    checks = [
        Check("count formula I = chi + chi(NS)", chi + chi_normal, i_total),
        Check("signed count 2 I+ = chi + chi(NS)", chi + chi_normal, 2 * i_plus),
        Check("signed count 2 I- = chi + chi(NS)", chi + chi_normal, 2 * i_minus),
        Check("winding indices sum to e - h",
              e_plus + e_minus - h_plus - h_minus,
              sum(p.winding_index for p in points)),
    ]
    return SurveyReport(
        points=tuple(points),
        e_plus=e_plus,
        e_minus=e_minus,
        h_plus=h_plus,
        h_minus=h_minus,
        i_total=i_total,
        i_plus=i_plus,
        i_minus=i_minus,
        checks=tuple(checks),
    )


# --- builtin surfaces -------------------------------------------------------------


def flat_torus() -> ParametrizedSurface:
    """(e^{iu}, e^{iv}): totally real, delta = -e^{i(u+v)} never vanishes."""

    def ev(u, v):
        return np.exp(1j * u), np.exp(1j * v)

    def d_du(u, v):
        return 1j * np.exp(1j * u), 0j * u

    def d_dv(u, v):
        return 0j * u, 1j * np.exp(1j * v)

    def jet(u, v):
        # F_uu = (i z_u, 0), F_uv = 0, F_vv = (0, i w_v)
        (zu, wu), (zv, wv) = d_du(u, v), d_dv(u, v)
        return (zu, wu), (zv, wv), (1j * zu, wu), (zv, wu), (zv, 1j * wv)

    chart = Chart(ev, (0.0, _TWO_PI), (0.0, _TWO_PI), True, True, d_du, d_dv, None, "torus", jet)
    return ParametrizedSurface("flat-torus", (chart,), True, True, 0, 0)


def _stereo_chart(south: bool, eps: float) -> Chart:
    """Stereographic chart of the unit sphere in R^3 = C x R c C^2, with an
    optional height wrinkle w -> w + eps * Re(z^2).

    The south chart is the north one precomposed with the holomorphic
    transition 1/zeta, so the two charts orient the sphere consistently:
    it conjugates zeta and negates the height.
    """
    conj = np.conj if south else (lambda x: x)
    sign = -1.0 if south else 1.0

    def ev(u, v):
        s = u * u + v * v
        d = 1.0 + s
        z = 2.0 * conj(u + 1j * v) / d
        w = sign * (1.0 - s) / d
        if eps:
            w = w + eps * (z * z).real
        return z, w + 0j

    e_v = -1j if south else 1j  # conj(e_v), e_v = i the direction v moves u + iv

    def at(u, v):
        # d = 1 + |zeta|^2, zeta, z = 2 zeta / d and g = 2 / d^2
        d = 1.0 + (u * u + v * v)
        zeta = conj(u + 1j * v)
        return d, zeta, 2.0 * zeta / d, 2.0 / (d * d)

    def partial(d, zeta, z, g, x, e):
        # d(z, w)/dx for the parameter x whose direction e_x has conj(e_x) = e
        zx = g * (e * d - 2.0 * x * zeta)
        wx = (-2.0 * sign) * g * x
        if eps:
            wx = wx + (2.0 * eps) * (z * zx).real
        return zx, wx + 0j

    def jet(u, v):
        d, zeta, z, g = at(u, v)
        fu, fv = partial(d, zeta, z, g, u, 1.0), partial(d, zeta, z, g, v, e_v)
        # with k = 4 / d^2 and r_xy = 4 x y / d - [x = y]:
        # z_xy = k (zeta r_xy - conj(e_x) y - conj(e_y) x) and
        # w_xy = sign k r_xy, plus the wrinkle's 2 eps Re(z_x z_y + z z_xy)
        k = 2.0 * g
        qu, qv, sk = (4.0 / d) * u, (4.0 / d) * v, sign * k
        second = []
        for zx, zy, rxy, cross in (
            (fu[0], fu[0], qu * u - 1.0, 2.0 * u),
            (fu[0], fv[0], qu * v, v + e_v * u),
            (fv[0], fv[0], qv * v - 1.0, (2.0 * e_v) * v),
        ):
            zxy = k * (zeta * rxy - cross)
            wxy = sk * rxy
            if eps:
                wxy = wxy + (2.0 * eps) * (zx * zy + z * zxy).real
            second.append((zxy, wxy + 0j))
        return fu, fv, *second

    if south:
        owns = lambda u, v: u * u + v * v < 1.0      # open south hemisphere
    else:
        owns = lambda u, v: u * u + v * v <= 1.0     # closed north hemisphere
    label = "south" if south else "north"
    d_du, d_dv = (lambda u, v: partial(*at(u, v), u, 1.0)), (lambda u, v: partial(*at(u, v), v, e_v))
    return Chart(ev, (-1.15, 1.15), (-1.15, 1.15), False, False, d_du, d_dv, owns, label, jet)


def round_sphere() -> ParametrizedSurface:
    """The unit sphere x^2 + y^2 + t^2 = 1 in (z, w) = (x + iy, t):
    complex points exactly at the two poles, both elliptic."""
    charts = (_stereo_chart(False, 0.0), _stereo_chart(True, 0.0))
    return ParametrizedSurface("round-sphere", charts, True, True, 2, 0)


def wrinkled_sphere(eps: float = 0.6) -> ParametrizedSurface:
    """The round sphere pushed by the height diffeomorphism
    t -> t + eps (x^2 - y^2).  For eps > 1/2 four extra complex points
    appear near the equator (two elliptic pairs) while the poles turn
    hyperbolic; e - h stays 2."""
    charts = (_stereo_chart(False, eps), _stereo_chart(True, eps))
    return ParametrizedSurface("wrinkled-sphere", charts, True, True, 2, 0)


def graph_normal_form(alpha: float) -> ParametrizedSurface:
    """The model graph w = alpha z zbar + (z^2 + zbar^2)/2 over a disc
    (w = z zbar for alpha = inf): one complex point at the origin with
    invariant alpha.  Not closed; survey does not apply."""
    a = float(alpha)
    if not a >= 0:
        raise ValueError("the model surface needs alpha >= 0")

    def ev(u, v):
        z = u + 1j * v
        if math.isinf(a):
            w = u * u + v * v
        else:
            w = a * (u * u + v * v) + (u * u - v * v)
        return z, w + 0j

    # w_uu and w_vv, constants
    wuu, wvv = (2.0, 2.0) if math.isinf(a) else (2.0 * (a + 1.0), 2.0 * (a - 1.0))

    def d_du(u, v):
        one = u * 0 + 1.0
        return one + 0j, wuu * u + 0j

    def d_dv(u, v):
        one = u * 0 + 1.0
        return 1j * one, wvv * v + 0j

    def jet(u, v):
        zero = 0j * u
        return d_du(u, v), d_dv(u, v), (zero, wuu + zero), (zero, zero), (zero, wvv + zero)

    label = f"graph-normal-form:{alpha}"
    chart = Chart(ev, (-0.8, 0.8), (-0.8, 0.8), False, False, d_du, d_dv, None, "graph", jet)
    return ParametrizedSurface(label, (chart,), True, False, None, None)


def builtin_surface(name: str) -> ParametrizedSurface:
    kind, alpha = parse_builtin_surface(name)
    if kind == "graph-normal-form":
        return graph_normal_form(alpha)
    return {"flat-torus": flat_torus, "round-sphere": round_sphere, "wrinkled-sphere": wrinkled_sphere}[kind]()
