"""Semi-infinite systems: the sup as a Max node, active sets, perturbations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import geometry, scenarios, systems
from ebstab.expressions import (
    _ACTIVE_TOL,
    AbsCoord,
    Affine,
    Const,
    PosPartSquare,
    Sum,
    directional_derivative,
    subdifferential,
)
from ebstab.geometry import merge_active_subdiffs
from ebstab.moduli import (box_sample, classify_global_stability,
                           classify_local_stability, eta_global)
from ebstab.sphere import beta
from ebstab.systems import (
    FiniteFamily,
    IntervalFamily,
    active_set,
    check_active_set_hypotheses,
    materialize_sup,
)

from conftest import (max_rule_dd, random_expr, random_point, sup_value,
                      tilted_family)


def abs_family():
    return FiniteFamily([AbsCoord(0, 2), AbsCoord(1, 2)])


def halfplane_family():
    # {x1, -x1 + |x2| - 1}
    f2 = Sum([(1.0, Affine([-1.0, 0.0], -1.0)), (1.0, AbsCoord(1, 2))])
    return FiniteFamily([Affine([1.0, 0.0], 0.0), f2])


def test_sup_value_abs_family():
    assert sup_value(abs_family(), [3.0, -4.0]) == 4.0


def test_sup_value_halfplane_family():
    assert sup_value(halfplane_family(), [0.0, 0.0]) == 0.0


def test_sup_value_singleton():
    fam = FiniteFamily([Affine([2.0], -1.0)])
    assert sup_value(fam, [3.0]) == 5.0


def test_active_set_abs_family_origin():
    act = active_set(abs_family(), [0.0, 0.0])
    assert set(act.indices) == {1, 2}
    assert act.sup_value == 0.0


def test_active_set_halfplane_family_origin():
    act = active_set(halfplane_family(), [0.0, 0.0])
    assert set(act.indices) == {1}


def test_active_set_strict_maximizer():
    act = active_set(abs_family(), [1.0, 0.5])
    assert set(act.indices) == {1}


def test_active_set_is_the_one_beta_reads():
    # the second member sits 1e-9 below the sup at the origin, outside the
    # Max node's active tolerance: beta reads the first member alone, and
    # so does the active set, which the tie then does not contain
    fam = FiniteFamily([Affine([1.0, 0.0], 0.0), Affine([0.0, 1.0], -1e-9)])
    tie = FiniteFamily([Affine([1.0, 0.0], 0.0), Affine([0.0, 1.0], 0.0)])
    assert active_set(fam, [0.0, 0.0]).indices == (1,)
    hc = check_active_set_hypotheses(fam, tie, [0.0, 0.0])
    assert hc.active_f == (1,) and hc.active_g == (1, 2)
    assert not hc.ok and hc.violated_side == "I_g not subset I_f"


def test_dd_max_formula_abs_family():
    s = 1.0 / math.sqrt(2.0)
    got = max_rule_dd(abs_family(), [0.0, 0.0], [s, s])
    assert got == pytest.approx(s, abs=1e-15)


def test_dd_max_formula_halfplane_family():
    got = max_rule_dd(halfplane_family(), [0.0, 0.0], [-1.0, 0.0])
    assert got == -1.0


def test_dd_max_formula_singleton():
    fam = FiniteFamily([Affine([2.0, 1.0], 0.0)])
    assert max_rule_dd(fam, [0.0, 0.0], [1.0, 1.0]) == 3.0


def test_system_subdifferential_cross_polytope():
    s = subdifferential(materialize_sup(abs_family()), [0.0, 0.0])
    got = {tuple(g) for g in np.asarray(s.generators).round(12).tolist()}
    assert got == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_system_subdifferential_inactive_member_excluded():
    s = subdifferential(materialize_sup(halfplane_family()), [0.0, 0.0])
    assert np.allclose(s.generators, [[1.0, 0.0]])


def test_perturb_system_zero_eps_identical():
    fam = abs_family()
    out = tilted_family(fam, [0.0, 1.0], 0.0, [0.0, 0.0])
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = random_point(rng, 2)
        assert sup_value(out, x) == sup_value(fam, x)


def test_perturb_system_matches_shifted_sup():
    fam = abs_family()
    out = tilted_family(fam, [0.0, 1.0], 0.3, [0.0, 0.0])
    assert sup_value(out, [0.0, 0.5]) == pytest.approx(0.5 + 0.3 * 0.5, abs=1e-15)


def test_perturb_system_builds_remark_tail_family():
    from ebstab.expressions import Exp1D

    fam = FiniteFamily([Exp1D(0, -1.0, 1)])
    out = tilted_family(fam, [-1.0], 0.1, [0.0])
    for x in (-3.0, 0.0, 1.5):
        want = math.exp(x) - 1.0 - 0.1 * x
        assert sup_value(out, [x]) == pytest.approx(want, abs=1e-12)


def test_sup_commutation_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        members = [random_expr(rng, m, depth=1, allow_ball=False)
                   for _ in range(int(rng.integers(1, 4)))]
        fam = FiniteFamily(members)
        u = rng.normal(size=m)
        u /= max(1.0, np.linalg.norm(u))
        eps = float(rng.uniform(0, 1))
        xbar = random_point(rng, m)
        out = tilted_family(fam, u, eps, xbar)
        x = random_point(rng, m)
        want = sup_value(fam, x) + eps * float(u @ (x - xbar))
        got = sup_value(out, x)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_hypotheses_rem12a_violation():
    eps = 0.1
    tilted = FiniteFamily([
        Sum([(1.0, AbsCoord(0, 2)), (eps, AbsCoord(1, 2))]),
        Sum([(1.0, AbsCoord(1, 2)), (1.0, Const(-eps, 2))]),
    ])
    hc = check_active_set_hypotheses(abs_family(), tilted, [0.0, 0.0])
    assert not hc.ok
    assert hc.violated_side == "I_f not subset I_g"
    assert hc.beta_value > 0
    cert = beta(materialize_sup(abs_family()), [0.0, 0.0])
    assert check_active_set_hypotheses(abs_family(), tilted, [0.0, 0.0],
                                       cert) == hc


def test_hypotheses_rem12b_violation():
    eps = 0.1
    tilted = FiniteFamily([
        Sum([(1.0, Affine([1.0, 0.0], 0.0)), (eps, AbsCoord(1, 2))]),
        Sum([(1.0, Affine([-1.0, 0.0], 0.0)), (eps, AbsCoord(1, 2))]),
    ])
    hc = check_active_set_hypotheses(halfplane_family(), tilted, [0.0, 0.0])
    assert not hc.ok
    assert hc.violated_side == "I_g not subset I_f"
    assert hc.beta_value < 0
    cert = beta(materialize_sup(halfplane_family()), [0.0, 0.0])
    assert check_active_set_hypotheses(halfplane_family(), tilted, [0.0, 0.0],
                                       cert) == hc


def test_hypotheses_shared_linear_perturbation_ok():
    fam = abs_family()
    out = tilted_family(fam, [0.6, 0.8], 0.2, [0.0, 0.0])
    hc = check_active_set_hypotheses(fam, out, [0.0, 0.0])
    assert hc.ok
    assert set(hc.active_f) == set(hc.active_g)


@pytest.mark.parametrize("name, family", [("REM12A", abs_family),
                                          ("REM12B", halfplane_family)])
def test_rem12_works_out_the_base_beta_once(name, family, monkeypatch):
    # the base family's beta at the origin serves its own check and both
    # eps rounds of the active-set hypotheses
    base, seen = materialize_sup(family()), []
    for module in (scenarios, systems):
        def spy(f, x, *args, _real=module.beta):
            if f == base and not np.any(x):
                seen.append(f)
            return _real(f, x, *args)
        monkeypatch.setattr(module, "beta", spy)
    assert scenarios.reproduce(name, seed=0).passed
    assert len(seen) == 1


@pytest.mark.parametrize("eps", [0.1, 0.01])
@pytest.mark.parametrize("families", [scenarios._rem12a_families,
                                      scenarios._rem12b_families])
def test_rem12_tilted_beta_reads_a_box(families, eps, monkeypatch):
    # the tilted sup's set at the origin is [-1, 1] x [-eps, eps]: in
    # REM12A the lone active member's box, passed through the max, in
    # REM12B the union of the two members' segments, whose four rows are
    # the box's vertices; beta is eps at -e_1, read off the ends, with no
    # facet pass and no NNLS
    calls = []
    for name in ("_inradius_at_origin", "_nnls_residual"):
        real = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *args, _real=real, _name=name:
                            calls.append(_name) or _real(*args))
    cert = beta(materialize_sup(families(eps)[1]), [0.0, 0.0])
    assert calls == []
    assert cert.beta == eps and cert.witness.tolist() == [0.0, -1.0]
    assert cert.origin_location.tag.value == "interior"
    assert cert.subdiff.lo.tolist() == [-1.0, -eps]
    assert cert.subdiff.hi.tolist() == [1.0, eps]


def test_classify_system_local_rem12a_stable():
    v = classify_local_stability(materialize_sup(abs_family()), [0.0, 0.0])
    assert v.verdict == "stable"
    assert v.beta_inf == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_classify_system_local_rem12b_stable():
    v = classify_local_stability(materialize_sup(halfplane_family()),
                                 [0.0, 0.0])
    assert v.verdict == "stable"
    assert v.beta_inf == pytest.approx(1.0, abs=1e-12)


def test_classify_system_pospartsquare_unstable():
    fam = FiniteFamily([PosPartSquare(0, 1)])
    v = classify_local_stability(materialize_sup(fam), [0.0])
    assert v.verdict == "unstable"


def test_classify_system_global_delegates():
    sup = materialize_sup(halfplane_family())
    box = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    sample = box_sample(sup, box, 300, 0)
    v = classify_global_stability(sup, 0.4, sample, eta_global(sup, sample))
    assert v.scope == "global"
    assert v.verdict in ("stable", "unstable", "undetermined")


def test_dd_max_formula_matches_materialized_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        members = [random_expr(rng, m, depth=1, allow_ball=False)
                   for _ in range(int(rng.integers(2, 5)))]
        fam = FiniteFamily(members)
        x, h = random_point(rng, m), random_point(rng, m)
        got = max_rule_dd(fam, x, h)
        want = directional_derivative(materialize_sup(fam), x, h)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


# --- interval families -------------------------------------------------------


def make_interval_family(grid_count=9):
    # f_t(x) = t x1 + (1 - t) x2 - 1 over t in [0, 1]
    return IntervalFamily(
        0.0, 1.0, grid_count,
        lambda t: Affine([t, 1.0 - t], -1.0),
    )


def test_interval_sup_matches_closed_form():
    fam = make_interval_family()
    for x in ([2.0, 0.5], [-1.0, 3.0], [0.3, 0.3]):
        want = max(x[0], x[1]) - 1.0
        assert sup_value(fam, x) == pytest.approx(want, abs=1e-9)


def test_interval_active_set_nonempty_and_refined():
    fam = make_interval_family()
    act = active_set(fam, [2.0, 0.5])
    assert act.indices
    # the sup over t is attained at the grid point t = 1 for x1 > x2
    assert any(abs(t - 1.0) <= 1e-6 for t in act.indices)


def test_interval_refinement_bound():
    coarse = make_interval_family(grid_count=8)
    fine = make_interval_family(grid_count=16)
    spacing = 1.0 / 7
    lipschitz = 8.0     # bounds |d f_t(x) / dt| = |x1 - x2| at both points
    for x in ([2.0, 0.5], [0.1, -0.4]):
        diff = abs(sup_value(coarse, x) - sup_value(fine, x))
        assert diff <= lipschitz * spacing


def test_interval_system_subdifferential():
    fam = make_interval_family()
    s = subdifferential(materialize_sup(fam), [2.0, 0.5])
    assert s.generators.shape[1] == 2
    # the sup is x1 - 1 near this point, so the subdifferential is {(1, 0)}
    assert np.allclose(s.generators, [[1.0, 0.0]], atol=1e-6)


def test_interval_member_cache_reused():
    fam = make_interval_family()
    a = fam.member(0.5)
    b = fam.member(0.5)
    assert a is b


def test_interval_member_cache_bounded():
    # the family holds one member per grid point, built once; no analysis
    # adds members
    fam = make_interval_family()
    rng = np.random.default_rng(7)
    members = [fam.member(t) for t in fam.labels]
    for _ in range(200):
        active_set(fam, rng.normal(size=2))
    assert len(fam.members) == fam.grid_count
    assert all(fam.member(t) is m for t, m in zip(fam.labels, members))


def test_interval_off_grid_parameter_is_not_an_index():
    fam = make_interval_family()
    with pytest.raises(KeyError):
        fam.member(0.3)


def test_interval_active_set_reads_the_grid():
    # the active set and the subdifferential come from the grid members,
    # the ones the Max node of materialize_sup holds, with no parameter
    # between grid points: the pointwise-max rule over the active grid
    # members gives the Max node's subdifferential
    fam = make_interval_family()
    assert active_set(fam, [2.0, 0.5]).indices == (1.0,)
    assert active_set(fam, [0.3, 0.3]).indices == fam.labels
    sup = materialize_sup(fam)
    for x in ([2.0, 0.5], [0.3, 0.3]):
        got = merge_active_subdiffs(
            [fam.member(i)._subdiff(np.asarray(x))
             for i in active_set(fam, x).indices]).generators
        want = sup._subdiff(np.asarray(x)).generators
        assert np.array_equal(got, want)


def test_perturbed_interval_family_keeps_labels():
    fam = make_interval_family()
    out = tilted_family(fam, [0.6, 0.8], 0.2, [1.0, 1.0])
    assert out.labels == fam.labels
    hc = check_active_set_hypotheses(fam, out, [1.0, 1.0])
    assert set(hc.active_f) == set(hc.active_g)


# interval templates with t in the affine, const, exp1d-shift and sum-weight
# slots; each is a family on R^2
TEMPLATES = [
    "(affine [t, 1-1*t] -1.0)",
    "(max (abs 0) (const -t))",
    "(exp1d 1 -0.5*t)",
    "(sum t (abs 0) 1-0.5*t (abs 1))",
    "(sum 1 (affine [-t, 0.5] t) 2*t (pospart2 0))",
]


def _template_family(index, grid_count):
    from ebstab.problems import parse_problem

    text = f"dim 2\nfamily interval 0.0 1.0 {grid_count} {TEMPLATES[index]}\n"
    return parse_problem(text).family


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       template=st.one_of(st.none(), st.integers(0, len(TEMPLATES) - 1)),
       grid_count=st.integers(2, 12))
def test_family_sup_and_active_set_read_the_max_node(seed, template, grid_count):
    # finite families of random members, or interval families parsed from a
    # template: the sup is the value of materialize_sup bitwise, and the
    # active set is exactly the labels within the Max node's tolerance of it
    rng = np.random.default_rng(seed)
    if template is None:
        m = int(rng.integers(1, 4))
        fam = FiniteFamily([random_expr(rng, m, depth=1, allow_ball=False)
                            for _ in range(int(rng.integers(1, 5)))])
    else:
        fam = _template_family(template, grid_count)
    x = random_point(rng, fam.dim)
    sup = materialize_sup(fam)._value(x)
    tol = _ACTIVE_TOL * (1.0 + abs(sup))
    want = tuple(i for i in fam.labels
                 if fam.member(i)._value(x) >= sup - tol)
    act = active_set(fam, x)
    assert act.indices == want and act.sup_value == sup
