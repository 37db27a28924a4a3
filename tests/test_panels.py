"""Graded panel rules built as arrays, against the point-by-point rules they
replace: the same edges, nodes and weights bit for bit."""

import math

import numpy as np
import pytest

from dbmlab import freeconv, panels
from dbmlab.measures import MeasureSpec
from dbmlab.panels import graded_edges, panel_nodes


def loop_graded_edges(a, b, special=(), floor=None, max_levels=48):
    """The ladder one special point at a time, in Python floats; also whether
    the cap rebuilt the gaps."""
    span = b - a
    if floor is None:
        floor = 1e-15 * span
    floor = max(floor, 1e-300)
    edges = {a, b}
    for s in special:
        if s < a - 1e-15 * span or s > b + 1e-15 * span:
            continue
        s = min(max(s, a), b)
        if a < s < b:
            edges.add(s)
        w = span
        for _ in range(max_levels):
            w *= 0.25
            if w < floor:
                break
            lo, hi = s - w, s + w
            if a < lo < b:
                edges.add(lo)
            if a < hi < b:
                edges.add(hi)
    out = np.array(sorted(edges))
    widths = np.diff(out)
    cap = span / 8.0
    rebuilt = bool(np.any(widths > cap))
    if rebuilt:
        refined = [out[0]]
        for left, w in zip(out[:-1], widths):
            k = int(np.ceil(w / cap))
            for j in range(1, k + 1):
                refined.append(left + w * j / k)
        out = np.array(refined)
    return out, rebuilt


def loop_panel_rule(mu, x, y):
    """The rule at x + iy point by point: each piece graded toward x, a power
    density's kink graded by quarters, with no cap on its gaps, down to the
    first width below the nearest other edge to it; Gauss-Jacobi nodes on
    the panels that meet the kink, Gauss-Legendre nodes on the others."""
    hull_lo, hull_hi = mu.hull()
    span = max(hull_hi - hull_lo, 1e-12)
    nodes, weights = [], []
    for a, b in mu.support:
        dist = max(abs(y), max(a - x, x - b, 0.0))
        edges, _ = loop_graded_edges(
            a, b, [min(max(x, a), b)], max(0.5 * dist, 1e-13 * span)
        )
        c = mu.params[1] if mu.kind == "power" and mu.kink_points() else None
        if c is not None and a <= c <= b:
            near = min(abs(e - c) for e in edges if e != c)
            ladder, w = {c}, b - a
            for _ in range(48):
                w *= 0.25
                if w < near:
                    break
                ladder.update(e for e in (c - w, c + w) if a < e < b)
            edges = np.union1d(edges, sorted(ladder))
        s, w = panel_nodes(edges)
        w = w * mu.density(s)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if c in (lo, hi):
                kappa, _, coeff = mu.params
                u, omega = panels._gj(kappa, 16)
                h = (hi if lo == c else lo) - c
                s[16 * i:16 * i + 16] = c + h * u
                # numpy's array power, which can round apart from Python's
                # float power in the last bit
                scale = np.abs(np.array([h])) ** (kappa + 1.0)
                w[16 * i:16 * i + 16] = scale * omega * coeff
        nodes.append(s)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def random_inputs(rng):
    """(a, b, special, floor, max_levels) with specials inside, on and
    beyond the ends, floors from the finest to ones that stop the ladder at
    once, and a few short ladders."""
    a = rng.uniform(-3.0, 1.0)
    b = a + 10.0 ** rng.uniform(-4.0, 1.0)
    span = b - a
    special = list(rng.uniform(a - 0.3 * span, b + 0.3 * span, rng.integers(0, 4)))
    if rng.random() < 0.3:
        special.append(a)
    if rng.random() < 0.3:
        special.append(b)
    if rng.random() < 0.1:
        special.append(b + 0.5e-15 * span)
    if a < 0.0 < b and rng.random() < 0.5:
        # a kink at 0 and a point next to it: gaps between ladders of
        # either sign are where left + (right - left) misses right
        special += [0.0, span * rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-14.0, -2.0)]
    floor = None if rng.random() < 0.2 else span * 10.0 ** rng.uniform(-14.0, 0.5)
    levels = 48 if rng.random() < 0.8 else int(rng.integers(1, 10))
    if rng.random() < 0.3:
        # a comb of kinks span/10 apart: no gap exceeds the cap, so the
        # rule is not rebuilt, which a lone quarter ladder almost always is
        special += list(np.linspace(a, b, 11)[1:-1])
    return a, b, special, floor, levels


def test_graded_edges_match_the_loop_bitwise():
    rng = np.random.default_rng(20260)
    rebuilt = stopped = 0
    for _ in range(400):
        a, b, special, floor, levels = random_inputs(rng)
        ref, redo = loop_graded_edges(a, b, special, floor, levels)
        assert same_bits(graded_edges(a, b, special, floor, levels), ref)
        rebuilt += redo
        stopped += floor is not None and floor > (b - a) / 2.0
    # the inputs reach the ladder's early stop and the cap rebuild alike
    assert stopped > 10 and 100 < rebuilt < 390


def test_graded_edges_rows_match_one_call_per_row():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, _, _, levels = random_inputs(rng)
        span = b - a
        anchors = np.concatenate([rng.uniform(a - 0.2 * span, b + 0.2 * span, 5), [a, b]])
        floors = span * 10.0 ** rng.uniform(-14.0, 0.5, anchors.size)
        rows, edges = graded_edges(a, b, anchors[:, None], floors, levels)
        assert np.all(np.diff(rows) >= 0)
        for r, (s, f) in enumerate(zip(anchors, floors)):
            assert same_bits(edges[rows == r], loop_graded_edges(a, b, [s], f, levels)[0])


def test_cap_rebuild_keeps_its_own_last_edge():
    # with no special point every gap is rebuilt as left + w j / k, and the
    # last edge a + (b - a) need not be b
    a, b = -1.0, 0.1
    ref, rebuilt = loop_graded_edges(a, b)
    assert rebuilt and ref[-1] != b
    assert same_bits(graded_edges(a, b), ref)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        graded_edges(1.0, 1.0)


T = 0.2285
BLOCK_MEASURES = {
    "power 1/2": MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)),
    "power 3/2": MeasureSpec.power(1.5, 0.2, (-1.0, 1.0)),
    "power 1/2 at an end": MeasureSpec.power(0.5, 1.0, (-1.0, 1.0)),
    "two pieces": MeasureSpec.piecewise(
        [((-1.0, -0.5), (1.0,)), ((0.5, 1.0), (0.0, 4.0 / 3.0))]
    ),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MEASURES))
@pytest.mark.parametrize("y", [freeconv._Y_START * math.sqrt(T), 0.0, 0.3, "floor"])
def test_rule_block_matches_single_points_bitwise(name, y):
    # so the block size cannot change a result, and each row is the rule the
    # point-by-point construction gives; "floor" grades each point at its
    # own Newton start height, as a graph evaluation does
    mu = BLOCK_MEASURES[name]
    edges = [e for piece in mu.support for e in piece]
    special = edges + list(mu.kink_points()) + [-1.7, 1.3, 2.5]
    inner = np.random.default_rng(3).uniform(-1.0, 1.0, 32 - len(special))
    xs = np.concatenate([special, inner])
    assert xs.size == 32
    if y == "floor":
        y = np.maximum(freeconv._height_floor(mu, T, xs), freeconv._Y_START * math.sqrt(T))
        assert np.count_nonzero(y > 1e-3) > 16
    nodes, weights = freeconv._rule_rows(mu, xs, y)
    for row, x in enumerate(xs):
        y_row = y[row] if np.ndim(y) else y
        s, wd = freeconv._rule_rows(mu, np.array([x]), y_row)
        ref_s, ref_wd = loop_panel_rule(mu, x, y_row)
        assert same_bits(s[0], ref_s) and same_bits(wd[0], ref_wd)
        count = s.shape[1]
        assert same_bits(nodes[row, :count], s[0])
        assert same_bits(weights[row, :count], wd[0])
        assert np.all(nodes[row, count:] == x + 1.0)
        assert np.all(weights[row, count:] == 0.0)


UNIFORM = MeasureSpec.uniform(-1.0, 1.0)
CLOSED_FORMS = {
    "uniform": (UNIFORM, lambda z: freeconv._stieltjes_closed(UNIFORM, z)),
    # density |s|, graded at its kink
    "power 1": (
        MeasureSpec.power(1.0, 0.0, (-1.0, 1.0)),
        lambda z: z * (2.0 * np.log(z) - np.log(z - 1.0) - np.log(z + 1.0)),
    ),
    # density 3 s^2 / 2
    "power 2": (
        MeasureSpec.power(2.0, 0.0, (-1.0, 1.0)),
        lambda z: 1.5 * (z * z * np.log((z + 1.0) / (z - 1.0)) - 2.0 * z),
    ),
    # density 3 |s|^(1/2) / 4, whose kink panels take Gauss-Jacobi nodes
    "power 1/2": (
        MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)),
        lambda z: 0.75 * (
            (np.sqrt(z) * np.log((np.sqrt(z) + 1.0) / (np.sqrt(z) - 1.0)) - 2.0)
            + (2.0 - 2.0 * np.sqrt(z) * np.arctan(1.0 / np.sqrt(z)))
        ),
    ),
    # density 3 (s + 1)^(1/2) / 2^(5/2), its kink at the left end: the panel
    # that ends there takes Gauss-Jacobi nodes too, and the ladder beside it
    "power 1/2 at an end": (
        MeasureSpec.power(0.5, -1.0, (-1.0, 1.0)),
        lambda z: 1.5 / 2.0**1.5 * (
            np.sqrt(z + 1.0) * np.log((np.sqrt(z + 1.0) + 2.0**0.5) / (np.sqrt(z + 1.0) - 2.0**0.5))
            - 2.0 * 2.0**0.5
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("y", [1e-3, 1e-2, 0.3, 2.0])
def test_cauchy_panels_match_closed_forms(name, y):
    # closer to the axis than y = 1e-6 rounding, not the rule, sets the error
    mu, closed = CLOSED_FORMS[name]
    for x in np.linspace(-1.5, 1.5, 121):
        ref = closed(complex(x, y))
        assert abs(freeconv._cauchy_panels(mu, complex(x, y)) - ref) <= 1e-13 * abs(ref), x


# QUADPACK reports that roundoff keeps it from its 1.2e-14 target; what it
# returns still meets the rule to 5e-15
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("kappa", [0.3, 1.5])
def test_rule_sums_match_quad_on_each_side_of_the_kink(kappa):
    # L = int dmu/((x - s)^2 + Y) and M = int dmu/((x - s)^2 + Y)^2 on the
    # rule graded at y = sqrt(Y), each side of the kink c on its own, against
    # QUADPACK's algebraic-weight rule for |s - c|^kappa
    from scipy.integrate import quad

    mu = MeasureSpec.power(kappa, 0.0, (-1.0, 1.0))
    _, c, coeff = mu.params
    for x in (c, c - 1e-6, c + 1e-6, c + 0.05, 0.7):
        for big_y in (1e-8, 1e-4, 1e-2):
            s, wd = (row[0] for row in freeconv._rule_rows(mu, np.array([x]), math.sqrt(big_y)))
            sides = ((-1.0, c, (0.0, kappa), s < c), (c, 1.0, (kappa, 0.0), (s > c) & (wd > 0.0)))
            for lo, hi, wvar, side in sides:
                for power in (1, 2):
                    got = np.sum(wd[side] / ((x - s[side]) ** 2 + big_y) ** power)
                    ref, _ = quad(
                        lambda u: coeff / ((x - u) ** 2 + big_y) ** power, lo, hi,
                        weight="alg", wvar=wvar, epsabs=0.0, epsrel=1.2e-14, limit=2000,
                    )
                    assert abs(got - ref) <= 1e-13 * abs(ref), (x, big_y, lo, power)


def test_gauss_jacobi_moments():
    # the rule for u^kappa on [0, 1] integrates u^j exactly for j < 32
    for kappa in (0.3, 0.5, 1.0, 1.5):
        u, w = panels._gj(kappa, 16)
        assert np.all((0.0 < u) & (u < 1.0)) and np.all(w > 0.0)
        for j in range(32):
            exact = 1.0 / (kappa + 1.0 + j)
            assert abs(np.dot(w, u**j) - exact) <= 1e-14 * exact, (kappa, j)
