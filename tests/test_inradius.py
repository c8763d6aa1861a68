"""Interior beta: the inradius of conv(G) from the double description of its
polar cone, exact and unbounded in the number of facets, and read off the
ends of a box, where a sum's terms each act on their own coordinate."""

import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import geometry, sphere
from ebstab.cli import main
from ebstab.expressions import (AbsCoord, Affine, ComposeAffine, Const,
                                EuclidNorm, Max, Sum, subdifferential)
from ebstab.geometry import (_DEDUPE_TOL, _HULL_ZERO, SubdiffSet,
                             _inradius_at_origin, _polar_rays, add_sets,
                             affine_hull_misses_origin, min_norm_point,
                             min_support_direction, scale_set, sum_sets)
from ebstab.sampling import unit_directions
from ebstab.sphere import ZERO_TOL, beta

from conftest import polar_rays_reference, refine_sphere_min_multi, support


def _symmetric(k, m, seed):
    """2k points: k uniform in [-1, 1]^m and their negatives, so the origin
    is interior."""
    gens = np.random.default_rng(seed).uniform(-1, 1, size=(k, m))
    return np.vstack([gens, -gens])


@pytest.mark.parametrize("gens", [
    *(np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
      for m in range(1, 7)),
    _symmetric(16, 5, seed=8), _symmetric(20, 6, seed=8),
    _symmetric(5, 3, seed=1), _symmetric(9, 4, seed=2)])
def test_polar_rays_match_the_split_blocks_bit_for_bit(gens):
    # the positive rays walked in slices give the blocks, and so the rays,
    # that np.split gave, on the l1 cubes (the vertices of the sets
    # d||x||_1 at the origin) and on symmetric random sets
    got, want = _polar_rays(gens), polar_rays_reference(gens)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_interior_inradius_above_old_enumeration_cap():
    # 32 points in R^5 have C(32, 5) = 201,376 facet subsets
    gens = _symmetric(16, 5, seed=8)
    assert math.comb(32, 5) > 200_000
    s = SubdiffSet(gens)
    value, h = min_support_direction(s)
    assert value > 0.0
    assert support(s, h)[0] == value
    # h is a facet normal: at least m tight generators spanning an
    # (m - 1)-flat
    tight = gens[gens @ h >= value - 1e-9]
    assert tight.shape[0] >= 5
    assert np.linalg.matrix_rank(tight[1:] - tight[0], tol=1e-9) == 4
    # no direction does better than the facet
    hs = unit_directions(5, 2000, seed=1)
    vals = support(s, hs)
    _, sampled = refine_sphere_min_multi(lambda c: support(s, c), hs,
                                         vals, starts=2)
    assert value <= sampled + 1e-9


@pytest.mark.parametrize("m", range(1, 7))
def test_cube_inradius_is_exactly_one(m):
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
    s = SubdiffSet(cube)
    value, h = min_support_direction(s)
    assert value == 1.0
    assert support(s, h)[0] == 1.0


@pytest.mark.parametrize("c", [1e-8, 1e4, 2.0 ** 400])
def test_inradius_scales_with_the_set(c):
    # the facet test reads G / max |g|, so a small hull is no blurrier
    # than a unit one
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(m + 1, 9))
        g = rng.normal(size=(k, m))
        g -= rng.dirichlet(np.ones(k)) @ g
        want, _ = _inradius_at_origin(g)
        got, h = _inradius_at_origin(c * g)
        assert got == pytest.approx(c * want, rel=1e-9)
        assert got == np.max(c * g @ h)
    # REM8's subdifferential: one point, 1.03e-10 from the origin
    assert _inradius_at_origin(np.array([[1.03e-10]]))[0] == -1.03e-10


def test_inradius_memory_is_bounded():
    # a pairwise adjacency tensor over positive rays, negative rays and
    # constraints would take about 16 MB here
    gens = _symmetric(20, 6, seed=8)
    want, _ = _inradius_at_origin(gens)
    tracemalloc.start()
    try:
        value, _ = _inradius_at_origin(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == want > 0.0
    assert peak < 4 * 2 ** 20


def _separable_sum(rng, m):
    """A sum of weighted terms of R^m, each on one coordinate at most,
    shuffled: |x_j| terms, a max of affines in x_j with all pieces active at
    0, constants, zero weights, and per coordinate one affine -mu x_j, with
    mu the mean of that coordinate's other generators at 0, so that the
    origin lies in the subdifferential there."""
    terms = []
    for j in range(m):
        mine = []
        if rng.random() < 0.6:
            mine.append((rng.choice([0.0, rng.uniform(0.2, 3.0)],
                                    p=[0.15, 0.85]), AbsCoord(j, m)))
        if not any(w > 0.0 for w, _ in mine) or rng.random() < 0.5:
            pieces = [Affine(rng.uniform(-2.0, 2.0) * np.eye(m)[j], 0.0)
                      for _ in range(int(rng.integers(2, 5)))]
            mine.append((rng.uniform(0.2, 3.0), Max(pieces)))
        if rng.random() < 0.3:
            mine.append((rng.uniform(0.0, 2.0), Const(rng.normal(), m)))
        mu = Sum(mine)._subdiff(np.zeros(m)).generators.mean(axis=0)
        terms += mine + [(1.0, Affine(-mu, rng.normal()))]
    return Sum([terms[i] for i in rng.permutation(len(terms))])


def _as_rows(s):
    """s as a set that is no box, so every reader takes its generators:
    the NNLS, the one facet pass and the least-squares affine hull."""
    t = SubdiffSet(s.generators, s.ball_radius)
    t.lo = t.hi = None
    return t


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 5))
def test_interval_inradius_matches_the_one_pass_inradius(seed, m):
    # the origin lies in the product of one interval per coordinate; read
    # off the box's ends, the inradius is the one pass's over every
    # generator
    f = _separable_sum(np.random.default_rng(seed), m)
    s = subdifferential(f, np.zeros(m))
    assert s.lo is not None
    assert min_norm_point(s).hull_dist <= _HULL_ZERO
    sigma, h = min_support_direction(s)
    want, _ = _inradius_at_origin(s.generators)
    assert abs(sigma - want) <= 1e-12 * (1.0 + abs(sigma))
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
    assert abs(np.max(s.generators @ h) - sigma) <= 1e-12


def _old_sum(parts):
    """A sum's set as every pairwise sum of its parts' generators, folded
    in order, each partial sum put in normal form."""
    return functools.reduce(lambda a, b: SubdiffSet(
        (a.generators[:, None] + b.generators[None]).reshape(-1, a.dim),
        a.ball_radius + b.ball_radius), parts)


def _old_set(f, x):
    """f's set at x by the rules that build every set's rows: a sum's as
    ``_old_sum`` of its terms' sets, a term's under a weight other than 1
    as that weight times its rows."""
    if not isinstance(f, Sum):
        return f._subdiff(x)
    sets = [(w, _old_set(t, x)) for w, t in f.terms]
    return _old_sum([s if w == 1.0 else SubdiffSet(w * s.generators,
                                                   w * s.ball_radius)
                     for w, s in sets])


def _vertices(lo, hi):
    """The vertices of [lo, hi]: the lowest coordinate with lo < hi the
    most significant, lo before hi."""
    return np.array(list(itertools.product(
        *[(a, b) if a < b else (a,) for a, b in zip(lo, hi)])), dtype=float)


def _nest(rng, terms):
    """terms with random runs of them wrapped in sums under weights other
    than 1, twice over, so that boxes are scaled and summed again."""
    for _ in range(2):
        if len(terms) > 1 and rng.random() < 0.7:
            i, j = sorted(rng.choice(len(terms) + 1, size=2, replace=False))
            terms = terms[:i] + [(rng.uniform(0.2, 3.0), Sum(terms[i:j]))] + (
                terms[j:])
    return terms


def _origin(sigma):
    return 0 if abs(sigma) <= ZERO_TOL else int(np.sign(sigma))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6))
def test_box_reads_match_the_materialised_set(seed, m):
    # a weighted sum of |x_j|, constants and affine maps, runs of them
    # nested in sums under weights other than 1, at a point with zeroed
    # coordinates (its kinks), the origin inside or outside its set: the
    # box's reads agree with the NNLS, the one pass and the least-squares
    # affine hull on its generators; those generators are the vertices of
    # [lo, hi] in order, each within the dedupe tolerance of a row that the
    # pairwise fold and the scaling of every row build, and every such row
    # lies in the box, up to that tolerance
    rng = np.random.default_rng(seed)
    terms = [(rng.choice([1.0, rng.uniform(0.2, 3.0)]), AbsCoord(j, m))
             for j in rng.choice(m, size=int(rng.integers(1, 2 * m)))]
    for _ in range(int(rng.integers(0, 3))):
        terms.append((rng.uniform(0.0, 2.0), Const(rng.normal(), m)))
    for _ in range(int(rng.integers(0, 3))):
        a = rng.normal(size=m) * rng.choice([0.0, 0.3, 3.0])
        terms.append((1.0, Affine(np.where(rng.random(m) < 0.4, 0.0, a),
                                  rng.normal())))
    f = Sum(_nest(rng, [terms[i] for i in rng.permutation(len(terms))]))
    x = np.where(rng.random(m) < 0.7, 0.0, rng.normal(size=m))
    s = subdifferential(f, x)
    assert s.lo is not None
    assert s.generators.tobytes() == _vertices(s.lo, s.hi).tobytes()
    old, tol = _old_set(f, x).generators, _DEDUPE_TOL
    near = np.max(np.abs(s.generators[:, None] - old[None]), axis=2)
    assert np.all(np.min(near, axis=1) <= tol)
    assert np.all((old >= s.lo - tol) & (old <= s.hi + tol))
    rows = _as_rows(s)
    got, want = min_norm_point(s), min_norm_point(rows)
    assert abs(got.hull_dist - want.hull_dist) <= 1e-12
    assert affine_hull_misses_origin(s) == affine_hull_misses_origin(rows)
    (sigma, h), (sigma_rows, h_rows) = (min_support_direction(s),
                                        min_support_direction(rows))
    assert abs(sigma - sigma_rows) <= 1e-12 * (1.0 + abs(sigma))
    assert _origin(sigma) == _origin(sigma_rows)
    # the box's witness attains its sigma; where one side of the box alone
    # does, the two witnesses are one direction, up to the sign of zeros
    # and, outside, the NNLS point's rounding over the hull distance
    assert abs(np.max(s.generators @ h) - sigma) <= 1e-12 * (1.0 + abs(sigma))
    sides = np.concatenate([s.hi, -s.lo])
    if got.hull_dist > _HULL_ZERO:
        big = np.max(np.abs(s.generators))
        tol = 1e-12 * (1.0 + big / got.hull_dist)
    else:
        tol = 1e-12 if np.sum(sides <= sigma + 1e-9) == 1 else math.inf
    assert np.max(np.abs(h - h_rows)) <= tol


def _kink_tree(rng, m, x, depth):
    """A random max/sum tree over abs, affine and const on R^m: sum weights
    1, 0, 1e-13 or in [0.2, 3], max children shifted by a constant to tie
    at x or to lie below it, and maxes of affine maps whose gradients are
    the vertices of a box, one of them dropped at times."""
    kind = (rng.choice(6, p=[0.25, 0.12, 0.05, 0.18, 0.22, 0.18]) if depth
            else rng.choice(3, p=[0.6, 0.3, 0.1]))
    if kind == 0:
        return AbsCoord(int(rng.integers(m)), m)
    if kind == 1:
        a = rng.normal(size=m) * rng.choice([0.0, 0.3, 3.0])
        return Affine(np.where(rng.random(m) < 0.4, 0.0, a), rng.normal())
    if kind == 2:
        return Const(rng.normal(), m)
    if kind == 3:
        ends = rng.uniform(-2.0, 2.0, size=(2, m)) * (rng.random(m) < 0.6)
        grads = [np.choose(bits, ends) for bits in
                 itertools.product([0, 1], repeat=m)]
        if rng.random() < 0.3:
            grads.pop(int(rng.integers(len(grads))))
        return Max([Affine(g, -float(g @ x)) for g in grads])
    kids = [_kink_tree(rng, m, x, depth - 1)
            for _ in range(int(rng.integers(1, 4)))]
    if kind == 4:
        weights = rng.choice([1.0, 0.0, 1e-13, rng.uniform(0.2, 3.0)],
                             size=len(kids), p=[0.4, 0.05, 0.2, 0.35])
        return Sum(zip(weights, kids))
    return Max([Sum([(1.0, k), (1.0, Const(
        -k._value(x) - rng.choice([0.0, 1.0], p=[0.7, 0.3]), m))])
                for k in kids])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4))
def test_box_reads_through_max_nodes_match_the_rows(seed, m):
    # wherever a max/sum tree's set at a kink is a box (a lone active
    # child's, a union holding every vertex of its bounding box, a tiny
    # multiple of one), its reads off the ends agree, to 1e-12 of the
    # set's size, with the NNLS, the one facet pass and the least-squares
    # affine hull on its generators, and the witnesses agree but where two
    # sides of the box tie; a coordinate no wider than the dedupe
    # tolerance is flat in a box made from its ends, and in its rows
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(m) < 0.7, 0.0, rng.normal(size=m))
    s = subdifferential(_kink_tree(rng, m, x, 3), x)
    if s.lo is None:
        return
    rows = _as_rows(s)
    got, want = min_norm_point(s), min_norm_point(rows)
    tol = 1e-12 * (1.0 + np.max(np.abs(s.generators)))
    assert np.max(np.abs(got.point - want.point)) <= tol
    assert abs(got.hull_dist - want.hull_dist) <= tol
    assert affine_hull_misses_origin(s) == affine_hull_misses_origin(rows)
    (sigma, h), (sigma_rows, h_rows) = (min_support_direction(s),
                                        min_support_direction(rows))
    assert abs(sigma - sigma_rows) <= tol
    assert _origin(sigma) == _origin(sigma_rows)
    sides = np.concatenate([s.hi, -s.lo])
    if got.hull_dist > _HULL_ZERO:
        # h is -point / hull_dist on both sides
        tol = 2.0 * tol / got.hull_dist
    else:
        tol = 1e-12 if np.sum(sides <= sigma + 1e-9) == 1 else math.inf
    assert np.max(np.abs(h - h_rows)) <= tol


def test_a_box_narrower_than_the_dedupe_tolerance_is_flat(monkeypatch):
    # 1e-13 |x0| + |x1| at the origin: the scaled interval [-1e-13, 1e-13]
    # is no wider than the dedupe tolerance, so the box is flat at lo,
    # -1e-13, as are the rows built from its ends, and its ends and its
    # rows give one beta, witness and residual
    f = Sum([(1e-13, AbsCoord(0, 2)), (1.0, AbsCoord(1, 2))])
    x = np.zeros(2)
    s = subdifferential(f, x)
    assert s.lo.tolist() == [-1e-13, -1.0] and s.hi.tolist() == [-1e-13, 1.0]
    ends = beta(f, x)
    assert ends.subdiff._rows is None
    monkeypatch.setattr(sphere, "subdifferential",
                        lambda f, x: SubdiffSet(s.generators))
    rows = beta(f, x)
    assert rows.subdiff.generators.tolist() == [[-1e-13, -1.0], [-1e-13, 1.0]]
    assert (rows.beta, rows.witness.tolist(), rows.residual) == (
        ends.beta, ends.witness.tolist(), ends.residual)


def test_a_tiny_multiple_of_a_max_box_reads_as_its_rows():
    # 1e-13 max of four affine maps, whose gradients are the vertices of
    # [-1, 1] x [-0.5, 2.1] listed hi first, plus 0.3 x0 + 0.4 x1, at the
    # origin: the scaled box is flat at lo, and its one row is that point,
    # not the first row of the max's, so its ends and its rows give one
    # sigma and one witness, bit for bit
    grads = [[1.0, 2.1], [-1.0, 2.1], [1.0, -0.5], [-1.0, -0.5]]
    f = Sum([(1e-13, Max([Affine(g, 0.0) for g in grads])),
             (1.0, Affine([0.3, 0.4], 0.0))])
    s = subdifferential(f, np.zeros(2))
    assert s.lo is not None and s.lo.tolist() == s.hi.tolist()
    sigma, h = min_support_direction(s)
    sigma_rows, h_rows = min_support_direction(SubdiffSet(s.generators))
    assert sigma == sigma_rows and h.tobytes() == h_rows.tobytes()


_STEP = Max([Affine([1.0, 0.0], 0.0), Affine([-2.0, 0.0], 0.0)])


@pytest.mark.parametrize("terms", [
    [(1.0, _STEP), (1.0, AbsCoord(1, 2))],
    [(1.0, AbsCoord(1, 2)), (1.0, _STEP)],
])
def test_interval_inradius_ties_go_to_the_lowest_coordinate(terms):
    # max(x0, -2 x0) + |x1| at 0 is [-2, 1] x [-1, 1]: both intervals read
    # inradius 1, at +e0 and at -e1, and the lower coordinate wins whatever
    # the order of the terms
    s = subdifferential(Sum(terms), np.zeros(2))
    sigma, h = min_support_direction(s)
    assert sigma == 1.0 == _inradius_at_origin(s.generators)[0]
    assert h.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("f, want", [
    # the third coordinate is touched by no term, so the box is flat there
    (Sum([(1.0, AbsCoord(0, 3)), (1.0, AbsCoord(1, 3))]), 0.0),
    # the norm's ball (radius 1) is added to the square [-1, 1]^2
    (Sum([(1.0, AbsCoord(0, 2)), (1.0, AbsCoord(1, 2)),
          (1.0, EuclidNorm(2))]), 2.0),
    # a max merges the terms' sets into one cross-polytope
    (Max([AbsCoord(0, 2), AbsCoord(1, 2)]), 1.0 / math.sqrt(2.0)),
    # the affine term shifts the square to [-0.5, 1.5]^2
    (Sum([(1.0, AbsCoord(0, 2)), (1.0, AbsCoord(1, 2)),
          (1.0, Affine([0.5, 0.5], 0.0))]), 0.5),
    # a product, but of a square and an interval, not of intervals only
    (Sum([(1.0, Max([AbsCoord(0, 3), AbsCoord(1, 3)])),
          (1.0, AbsCoord(2, 3))]), 1.0 / math.sqrt(2.0)),
])
def test_non_interval_sets_take_the_one_pass(f, want, monkeypatch):
    # a box (the first, second and fourth set) is read off its ends, with
    # no pass and no generators built; any other set runs the one pass
    # once on the whole set, and a full-dimensional one makes exactly one
    # facet pass
    passes, rays = [], []
    monkeypatch.setattr(geometry, "_inradius_at_origin",
                        lambda g: passes.append(g) or _inradius_at_origin(g))
    monkeypatch.setattr(geometry, "_polar_rays",
                        lambda g: rays.append(g.shape) or _polar_rays(g))
    s = subdifferential(f, np.zeros(f.dim))
    # only the max of |x0| and |x1| is no box
    box = "(max" not in f._text()
    assert (s.lo is not None) == box
    assert min_support_direction(s)[0] == pytest.approx(want, abs=1e-15)
    if box:
        assert passes == [] and rays == [] and s._rows is None
    else:
        assert len(passes) == 1 and passes[0] is s.generators
        assert len(rays) == (want > 0.0)


def test_sum_terms_are_provenance_only():
    # the sum's box builds add_sets' pairwise rows only when they are read;
    # the constructor takes no terms, and no reader of lo and hi builds them
    f = Sum([(2.0, AbsCoord(0, 2)), (1.0, AbsCoord(1, 2))])
    s = subdifferential(f, np.zeros(2))
    parts = [scale_set(t._subdiff(np.zeros(2)), w) for w, t in f.terms]
    assert s.lo.tolist() == [-2.0, -1.0] and s.hi.tolist() == [2.0, 1.0]
    min_support_direction(s), affine_hull_misses_origin(s)
    assert s._rows is None
    assert s.generators.tobytes() == _old_sum(parts).generators.tobytes()
    with pytest.raises(TypeError):
        SubdiffSet(s.generators, 0.0, parts)
    # a scaled box is a box, with w times its rows in normal form; a box
    # added to itself is a box, whose rows are the doubled square's 4
    # vertices, not the pairwise fold's 3 x 3 grid
    scaled = scale_set(s, 2.0)
    assert scaled.lo.tolist() == [-4.0, -2.0] and scaled._rows is None
    assert scaled.generators.tobytes() == SubdiffSet(
        2.0 * s.generators).generators.tobytes()
    twice = add_sets(s, s)
    assert twice.lo.tolist() == [-4.0, -2.0] and twice._rows is None
    assert twice.generators.tolist() == [[-4.0, -2.0], [-4.0, 2.0],
                                         [4.0, -2.0], [4.0, 2.0]]
    assert scale_set(s, 1.0) is s
    # one part is its own sum
    assert sum_sets(parts[:1]) is parts[0]


@pytest.mark.parametrize("point, beta, path", [
    (0.0, 1.0, "polyhedral-interior"), (1.0, -1.0, "polyhedral-outside")])
def test_l1_sum_in_r24_builds_no_vertex_list(point, beta, path, tmp_path,
                                             monkeypatch, capsys):
    # ||x||_1 at the origin and ||x||_1 - 1 at e_1 in R^24, 2^24 vertices:
    # beta is read off the box's ends, and no set is put in normal form,
    # as every atom's set is a box
    m = 24
    terms = " ".join(f"1 (abs {j})" for j in range(m))
    x = [point] + [0.0] * (m - 1)
    path_eb = tmp_path / "l1.eb"
    path_eb.write_text(f"dim {m}\nexpr (sum {terms} 1 (const {-point}))\n"
                       f"point {x}\n", encoding="utf-8")
    rows = []
    dedupe = geometry.dedupe_rows
    monkeypatch.setattr(geometry, "dedupe_rows",
                        lambda g: rows.append(g.shape[0]) or dedupe(g))
    assert main(["analyze-local", str(path_eb), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["beta"] == beta
    assert results["beta"]["origin"] == ("interior" if beta > 0 else "outside")
    assert results["modulus"]["path"] == path
    assert rows == []


def test_weighted_l1_sum_in_r24_builds_no_vertex_list(tmp_path, monkeypatch,
                                                      capsys):
    # 2 ||x||_1 at the origin of R^24: the weighted box is [-2, 2]^24, so
    # beta is 2 at -e_0, read off its ends, and no set is put in normal
    # form
    m = 24
    terms = " ".join(f"1 (abs {j})" for j in range(m))
    path_eb = tmp_path / "l1w.eb"
    path_eb.write_text(f"dim {m}\nexpr (sum 2 (sum {terms}))\n"
                       f"point {[0.0] * m}\n", encoding="utf-8")
    rows = []
    dedupe = geometry.dedupe_rows
    monkeypatch.setattr(geometry, "dedupe_rows",
                        lambda g: rows.append(g.shape[0]) or dedupe(g))
    assert main(["analyze-local", str(path_eb), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["beta"] == 2.0
    assert results["beta"]["origin"] == "interior"
    assert results["beta"]["witness"] == [-1.0] + [0.0] * (m - 1)
    assert results["modulus"]["path"] == "polyhedral-interior"
    assert rows == []


def test_zero_weighted_l1_sum_in_r16_builds_no_vertex_list(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    # 0 ||x||_1 + x_0 at the origin of R^16: 0 [-1, 1]^16 is the point box
    # 0, so beta is -1, read off the ends, and none of the 2^16 vertices
    # is built and deduplicated
    m = 16
    terms = " ".join(f"1 (abs {j})" for j in range(m))
    path_eb = tmp_path / "l1zero.eb"
    path_eb.write_text(f"dim {m}\nexpr (sum 0 (sum {terms}) 1 (affine "
                       f"{[1.0] + [0.0] * (m - 1)} 0.0))\n"
                       f"point {[0.0] * m}\n", encoding="utf-8")

    def refused(g):
        raise AssertionError(f"dedupe_rows called on {g.shape[0]} rows")

    monkeypatch.setattr(geometry, "dedupe_rows", refused)
    assert main(["analyze-local", str(path_eb), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["beta"] == -1.0
    assert results["beta"]["origin"] == "outside"
    assert results["modulus"]["path"] == "polyhedral-outside"


def test_a_zero_multiple_of_a_box_is_the_row_its_rows_keep():
    # 0 [lo, hi] is the point box 0 lo: bit for bit the one row that the
    # box's rows times 0 keep in normal form, signed zeros included
    f = Sum([(1.0, AbsCoord(0, 2)), (1.0, Affine([0.5, -2.0], 0.0))])
    s = subdifferential(f, np.zeros(2))
    assert s.lo.tolist() == [-0.5, -2.0] and s.hi.tolist() == [1.5, -2.0]
    zero = scale_set(s, 0.0)
    rows = SubdiffSet(0.0 * s.generators, 0.0).generators
    assert zero._rows is None and zero.ball_radius == 0.0
    assert rows.shape[0] == 1
    assert zero.lo.tobytes() == zero.hi.tobytes() == rows[0].tobytes()


def test_composed_l1_norm_puts_its_vertices_in_normal_form_once(
        monkeypatch):
    # ||2x||_1 at the origin of R^8: the inner box's 256 vertices are
    # built once, and the mapped rows are deduplicated and pruned once,
    # with no normal form of a partial sum; beta is 2, read off the ends of
    # the mapped set, which holds every vertex of [-2, 2]^8
    m = 8
    f = ComposeAffine(Sum([(1.0, AbsCoord(j, m)) for j in range(m)]),
                      2.0 * np.eye(m), np.zeros(m))
    dedupe, prune, calls = geometry.dedupe_rows, geometry.prune_to_extreme, []
    monkeypatch.setattr(geometry, "dedupe_rows",
                        lambda g: calls.append("dedupe") or dedupe(g))
    monkeypatch.setattr(geometry, "prune_to_extreme",
                        lambda g: calls.append("prune") or prune(g))
    cert = beta(f, np.zeros(m))
    assert sorted(calls) == ["dedupe", "prune"]
    assert cert.beta == 2.0 and cert.subdiff.lo is not None


def test_a_long_sum_reads_its_row_off_its_ends():
    # a sum of 3000 affine terms is a box (one point) summed 2999 times;
    # its one row is built from its ends on first read, and is the row of
    # the pairwise fold over the terms' sets
    x = np.zeros(2)
    f = Sum([(1.0, Affine([1.0, -2.0], 0.0))] * 3000)
    s = subdifferential(f, x)
    assert s._rows is None
    want = _old_sum([t._subdiff(x) for _, t in f.terms])
    assert s.generators.tobytes() == want.generators.tobytes()
