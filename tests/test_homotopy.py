"""Homotopy category layer: hom_k, solvers, and hom_dpur.

The middle section checks the scope rule resolutions.termwise_ok on its
mathematics: complexes it passes kill maps from pure acyclic complexes
up to homotopy (and admit homotopy left inverses of pure
quasi-isomorphisms out of them), and every complex kills maps into pure
acyclic ones.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import (
    IntMatrix,
    LinearSystem,
    ZZ,
    Zmod,
    hstack,
    solve_linear,
)
from purcat.fpmod import (
    MapSolver,
    cokernel,
    cyclic_module,
    diagonal_module,
    factor_through_mono,
    free_module,
    identity_map,
    kernel,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Homotopy,
    cone,
    direct_sum_complexes,
    hom_complex,
    homology,
    identity_chain_map,
    module_complex,
    reduce_complex,
    shift,
    zero_complex,
)
from purcat.homotopy import (
    contract_complex,
    hom_dpur,
    hom_k,
    null_homotopy,
)
from purcat.purity import is_pure_acyclic, is_pure_qis
from purcat.randgen import (
    random_chain_map,
    random_complex,
    random_contractible,
    random_pure_acyclic,
    random_pure_qis,
)
from purcat.resolutions import (
    INJECTIVE,
    PROJECTIVE,
    UnsupportedRing,
    resolve,
    termwise_ok,
    validate_certificate,
)
from helpers import (
    chain_is_zero,
    _encode,
    make_chain_map,
    make_complex,
    make_homotopy,
    mat,
    null_homotopic_chain_map,
    pad_resolution,
    slow_contract_by_retractions,
    slow_contract_complex,
)


# ---------------------------------------------------------------------------
# hom_k


def test_hom_k_from_unit_is_h0():
    rng = random.Random(3)
    for ring in (ZZ, Zmod(12)):
        unit = module_complex(free_module(ring, 1), 0)
        m = random_complex(rng, ring, -1, 3)
        hk = hom_k(unit, m)
        assert hk.module.invariant_factors == homology(m, 0).invariant_factors


def test_hom_k_to_zero_vanishes():
    rng = random.Random(5)
    m = random_complex(rng, Zmod(8), 0, 3)
    assert hom_k(m, zero_complex(Zmod(8))).is_zero()


def test_hom_k_z2_z2():
    a = module_complex(cyclic_module(ZZ, 2), 0)
    hk = hom_k(a, a)
    assert hk.invariant_factors == (2,)


def test_hom_k_shift_identities():
    rng = random.Random(7)
    for _ in range(8):
        b = random_complex(rng, Zmod(12), -1, 3)
        c = random_complex(rng, Zmod(12), -1, 3)
        hc = hom_complex(b, c).complex
        for k in range(hc.lo, hc.hi + 1):
            want = homology(hc, k).invariant_factors
            assert hom_k(b, shift(c, k)).invariant_factors == want
            assert hom_k(shift(b, -k), c).invariant_factors == want


def test_hom_k_kills_boundaries():
    rng = random.Random(13)
    a = random_complex(rng, Zmod(4), 0, 3)
    b = random_complex(rng, Zmod(4), 0, 3)
    hk = hom_k(a, b)
    f = null_homotopic_chain_map(rng, a, b)
    # the degree 0 cocycles of hom(a, b) and their classes, which hk.module presents
    hc = hk.hom.complex
    _, incl = kernel(hc.differential(0))
    classes, class_proj = cokernel(factor_through_mono(incl, hc.differential(-1)))
    assert classes == hk.module
    # f as a degree 0 cocycle, then its class
    col = _encode(hk.hom, 0, {j: f.component(j) for j, _, _, _ in hk.hom.slots(0)})
    z = solve_linear(hstack(incl.matrix, incl.tgt.relations), col, a.ring)
    assert z is not None
    z_top = IntMatrix.from_rows(z.data[:incl.src.generators])
    assert hk.module.contains_in_relations(class_proj.matrix @ z_top)


# ---------------------------------------------------------------------------
# null homotopy and contraction


def test_null_homotopy_zero_map():
    rng = random.Random(17)
    a = random_complex(rng, ZZ, 0, 3, max_gens=1)
    from purcat.complexes import zero_chain_map

    h = null_homotopy(zero_chain_map(a, a))
    assert h is not None
    assert chain_is_zero(h.boundary())


def test_null_homotopy_identity_of_cone():
    z = module_complex(free_module(ZZ, 1), 0)
    cx = cone(identity_chain_map(z)).complex
    h = null_homotopy(identity_chain_map(cx))
    assert h is not None
    assert h.witnesses(identity_chain_map(cx))


def test_null_homotopy_absent_for_z2_identity():
    cx = module_complex(cyclic_module(ZZ, 2), 0)
    assert null_homotopy(identity_chain_map(cx)) is None


def test_null_homotopy_finds_boundaries():
    rng = random.Random(19)
    for ring in (ZZ, Zmod(12)):
        for _ in range(6):
            a = random_complex(rng, ring, -1, 3)
            b = random_complex(rng, ring, -1, 3)
            f = null_homotopic_chain_map(rng, a, b)
            h = null_homotopy(f)
            assert h is not None
            assert h.witnesses(f)


def test_contract_complex_agrees_with_joint_solve():
    rng = random.Random(23)
    for _ in range(10):
        if rng.random() < 0.5:
            cx = random_pure_acyclic(rng, Zmod(8))
        else:
            cx = random_complex(rng, Zmod(8), 0, 3)
        joint = null_homotopy(identity_chain_map(cx))
        fast = contract_complex(cx)
        assert (joint is None) == (fast is None)
        if fast is not None:
            assert fast.witnesses(identity_chain_map(cx))


def test_contract_complex_on_generated_contractibles():
    rng = random.Random(29)
    for ring in (ZZ, Zmod(12)):
        for _ in range(6):
            cx = random_contractible(rng, ring, pieces=2)
            h = contract_complex(cx)
            assert h is not None
            assert h.witnesses(identity_chain_map(cx))


def _short_exact_complex(ring):
    """0 -> R/2 -> R/4 -> R/2 -> 0: acyclic, not split, so not contractible."""
    z2, z4 = cyclic_module(ring, 2), cyclic_module(ring, 4)
    return make_complex(ring, 0, [z2, z4, z2], [mat([[2]]), mat([[1]])])


def _draw(rng, ring, kind):
    if kind == "contractible":
        return random_contractible(rng, ring, pieces=2)
    if kind == "pure_acyclic":
        return random_pure_acyclic(rng, ring)
    if kind == "identity_cone":
        return cone(identity_chain_map(random_complex(rng, ring, -1, 2))).complex
    if kind == "short_exact":
        return _short_exact_complex(ring)
    if kind == "non_acyclic":
        # a pure acyclic complex plus one nonzero term standing alone
        lone = module_complex(cyclic_module(ring, rng.choice((0, 2, 3, 4, 6))),
                              rng.randint(-1, 1))
        return direct_sum_complexes([random_pure_acyclic(rng, ring), lone])[0]
    return random_complex(rng, ring, -1, 3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([ZZ, Zmod(12), Zmod(60), Zmod(72), Zmod(210),
                             Zmod(7 ** 2 * 101 * 263)]),
       kind=st.sampled_from(["contractible", "pure_acyclic", "identity_cone",
                             "short_exact", "random"]))
def test_contract_complex_agrees_with_map_solver_oracle(seed, ring, kind):
    cx = _draw(random.Random(seed), ring, kind)
    fast = contract_complex(cx)
    oracle = slow_contract_complex(cx)
    assert (fast is None) == (oracle is None)
    if kind in ("contractible", "pure_acyclic", "identity_cone"):
        assert fast is not None
    if fast is not None:
        assert fast.witnesses(identity_chain_map(cx))


@pytest.mark.parametrize("ring", [ZZ, Zmod(8)], ids=str)
def test_contract_complex_rejects_acyclic_non_split(ring):
    cx = _short_exact_complex(ring)
    assert homology(cx, 1).is_zero()
    assert contract_complex(cx) is None
    assert slow_contract_complex(cx) is None


def _greedy_misses():
    """Contractible complexes that no unit entry cancels: the Euclid step
    (Z, Z/12) or the coprime split (the last) is needed."""
    z12 = Zmod(12)
    return [
        make_complex(ZZ, 0, [free_module(ZZ, 2)] * 2, [mat([[2, 3], [3, 5]])]),
        make_complex(z12, 0, [free_module(z12, 2)] * 2, [mat([[2, 3], [9, 2]])]),
        make_complex(z12, 0, [cyclic_module(z12, 6), diagonal_module(z12, [2, 12]),
                              cyclic_module(z12, 4)], [mat([[1], [2]]), mat([[2, 1]])]),
    ]


@pytest.mark.parametrize("index", range(3))
def test_complexes_greedy_cancellation_misses_reduce_to_zero(index):
    cx = _greedy_misses()[index]
    red, to, back, s = reduce_complex(cx)
    assert all(m.is_zero() for m in red.modules)
    assert contract_complex(cx) == s
    assert s.witnesses()
    assert slow_contract_complex(cx) is not None


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([ZZ, Zmod(12), Zmod(72)]),
       kind=st.sampled_from(["contractible", "pure_acyclic", "identity_cone",
                             "short_exact", "non_acyclic"]))
def test_top_down_contraction_agrees_with_both_oracles(seed, ring, kind):
    cx = _draw(random.Random(seed), ring, kind)
    fast = contract_complex(cx)
    assert (fast is None) == (slow_contract_by_retractions(cx) is None)
    assert (fast is None) == (slow_contract_complex(cx) is None)
    assert (fast is None) == (kind in ("short_exact", "non_acyclic"))
    if fast is not None:
        checked = make_homotopy(cx, cx, fast.lo, fast.components, check=True)
        assert checked.witnesses(identity_chain_map(cx))


def _refuse_everywhere(monkeypatch, owner, name):
    """Make every purcat module's binding of owner.name raise when called."""
    def refuse(*args, **kw):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(owner, name, refuse)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("purcat.")
                and module is not owner and hasattr(module, name)):
            monkeypatch.setattr(module, name, refuse)


def test_contraction_and_purity_use_no_kernel_retraction_or_joint_solve(monkeypatch):
    from purcat import fpmod

    # three terms with torsion and free summands: (4, 12), (2, 12, 12), (6,)
    pure = random_pure_acyclic(random.Random(80), Zmod(12), max_gens=3)
    not_pure = _short_exact_complex(ZZ)
    # has_retraction solves through MapSolver.solve, refused here
    for owner, name in ((fpmod, "kernel"), (fpmod, "factor_through_mono"),
                        (MapSolver, "solve"), (LinearSystem, "solve")):
        _refuse_everywhere(monkeypatch, owner, name)
    h = contract_complex(pure)
    assert h is not None and h.witnesses(identity_chain_map(pure))
    assert contract_complex(not_pure) is None
    assert is_pure_acyclic(pure).is_pure()
    verdict = is_pure_acyclic(not_pure)
    assert not verdict.is_pure()
    assert verdict.probe.invariant_factors == (2,)


def test_a_pure_verdict_solves_nothing(monkeypatch):
    from purcat import exact_linalg

    _refuse_everywhere(monkeypatch, exact_linalg, "solve_linear")
    rng = random.Random(31)
    cxs = _greedy_misses()
    for ring in (ZZ, Zmod(12), Zmod(72)):
        cxs += [random_pure_acyclic(rng, ring, max_gens=3),
                cone(identity_chain_map(random_complex(rng, ring, -1, 3))).complex]
    for cx in cxs:
        assert is_pure_acyclic(cx).is_pure()


def test_contraction_and_resolve_build_no_linear_system(monkeypatch):
    def refuse(self):
        raise AssertionError("LinearSystem.solve was called")

    monkeypatch.setattr(LinearSystem, "solve", refuse)
    rng = random.Random(83)
    for ring in (ZZ, Zmod(12)):
        for cx in (random_contractible(rng, ring, pieces=3), random_pure_acyclic(rng, ring),
                   cone(identity_chain_map(random_complex(rng, ring, -1, 3))).complex):
            h = contract_complex(cx)
            assert h is not None
            assert h.witnesses(identity_chain_map(cx))
    for side in (INJECTIVE, PROJECTIVE):
        for _ in range(4):
            m = random_complex(rng, Zmod(12), -1, 3)
            assert validate_certificate(resolve(m, side))


# ---------------------------------------------------------------------------
# the termwise scope rule


def test_certify_injective_z2_over_z():
    cx = module_complex(cyclic_module(ZZ, 2), 0)
    assert termwise_ok(INJECTIVE, cx) == (True,)
    assert validate_certificate(resolve(cx, INJECTIVE))


def test_certify_injective_any_zmod():
    rng = random.Random(31)
    cx = random_complex(rng, Zmod(12), -2, 4)
    assert all(termwise_ok(INJECTIVE, cx))
    assert validate_certificate(resolve(cx, INJECTIVE))


def test_free_z_term_is_not_pure_injective():
    cx = module_complex(free_module(ZZ, 1), 0)
    assert termwise_ok(INJECTIVE, cx) == (False,)
    with pytest.raises(UnsupportedRing):
        resolve(cx, INJECTIVE)


def test_certify_projective_any_window():
    rng = random.Random(37)
    for ring in (ZZ, Zmod(8)):
        cx = random_complex(rng, ring, -1, 3)
        assert all(termwise_ok(PROJECTIVE, cx))
        assert validate_certificate(resolve(cx, PROJECTIVE))
    assert termwise_ok(PROJECTIVE, zero_complex(ZZ)) == ()


def test_certified_injective_kills_pure_acyclic_maps():
    rng = random.Random(41)
    cx = random_complex(rng, Zmod(8), 0, 3)
    assert all(termwise_ok(INJECTIVE, cx))
    for _ in range(10):
        probe = random_pure_acyclic(rng, Zmod(8))
        f = random_chain_map(rng, probe, cx)
        h = null_homotopy(f)
        assert h is not None
        assert h.witnesses(f)


def test_certified_projective_kills_maps_to_pure_acyclic():
    rng = random.Random(43)
    cx = random_complex(rng, ZZ, 0, 2, max_gens=1)
    assert all(termwise_ok(PROJECTIVE, cx))
    for _ in range(10):
        probe = random_pure_acyclic(rng, ZZ, max_gens=1)
        f = random_chain_map(rng, cx, probe)
        assert null_homotopy(f) is not None


def left_inverse(u):
    """(v, h) with v a chain map and v . u - id = d h + h d, or None.

    One joint linear system in v and h; it has a solution whenever u is a
    pure quasi-isomorphism out of a K-pure injective complex.
    """
    b, c = u.src, u.tgt
    lo = min(b.lo, c.lo)
    hi = max(b.hi, c.hi)
    solver = MapSolver(b.ring)
    for i in range(lo, hi + 2):
        solver.add_map_unknown(("v", i), c.module(i), b.module(i))
        solver.add_map_unknown(("h", i), b.module(i), b.module(i - 1))
    for i in range(lo, hi + 1):
        one = IntMatrix.identity(b.module(i).generators)
        solver.add_equation(
            [
                (one, ("v", i), u.component(i).matrix),
                (b.differential(i - 1).matrix.scale(-1), ("h", i), one),
                (one.scale(-1), ("h", i + 1), b.differential(i).matrix),
            ],
            identity_map(b.module(i)),
        )
        solver.add_equation(
            [
                (IntMatrix.identity(b.module(i + 1).generators), ("v", i + 1),
                 c.differential(i).matrix),
                (b.differential(i).matrix.scale(-1), ("v", i),
                 IntMatrix.identity(c.module(i).generators)),
            ],
            zero_map(c.module(i), b.module(i + 1)),
        )
    sol = solver.solve()
    if sol is None:
        return None
    v = ChainMap(c, b, lo, tuple(sol[("v", i)] for i in range(lo, hi + 1)))
    h = Homotopy(b, b, lo, tuple(sol[("h", i)] for i in range(lo, hi + 2)))
    return v, h


def test_left_inverse_of_identity():
    rng = random.Random(47)
    cx = random_complex(rng, Zmod(4), 0, 3)
    assert all(termwise_ok(INJECTIVE, cx))
    v, h = left_inverse(identity_chain_map(cx))
    assert h.witnesses(v, identity_chain_map(cx))


def test_left_inverse_of_summand_inclusion():
    m = module_complex(cyclic_module(Zmod(4), 4), 0)
    pad = cone(identity_chain_map(module_complex(cyclic_module(Zmod(4), 2), 0))).complex
    total, injs, _ = direct_sum_complexes([m, pad])
    u = injs[0]
    assert all(termwise_ok(INJECTIVE, m))
    v, h = left_inverse(u)
    assert (v @ u).is_chain_map()
    assert h.witnesses(v @ u, identity_chain_map(m))


def test_left_inverse_on_random_pure_qis():
    rng = random.Random(53)
    for _ in range(6):
        m = random_complex(rng, Zmod(8), 0, 3)
        u = random_pure_qis(rng, m)
        assert all(termwise_ok(INJECTIVE, m))
        v, h = left_inverse(u)
        assert v.is_chain_map()
        assert h.witnesses(v @ u, identity_chain_map(m))


def test_left_inverse_rejects_non_pure_qis():
    m = module_complex(cyclic_module(Zmod(4), 4), 0)
    n = module_complex(cyclic_module(Zmod(4), 2), 0)
    f = make_chain_map(m, n, 0, [mat([[1]])])
    assert not is_pure_qis(f).is_pure()
    assert left_inverse(f) is None


# ---------------------------------------------------------------------------
# hom_dpur


def test_hom_dpur_kills_pure_acyclic_sources():
    rng = random.Random(61)
    for _ in range(3):
        a = random_pure_acyclic(rng, Zmod(8))
        b = random_complex(rng, Zmod(8), 0, 2)
        assert hom_dpur(a, b).is_zero()


def test_hom_dpur_agrees_with_hom_k_on_certified_targets():
    rng = random.Random(67)
    for _ in range(3):
        a = random_complex(rng, Zmod(12), 0, 2)
        b = random_complex(rng, Zmod(12), 0, 2)
        assert all(termwise_ok(INJECTIVE, b))
        derived = hom_dpur(a, b)
        plain = hom_k(a, b)
        assert derived.module.invariant_factors == plain.module.invariant_factors


def test_hom_dpur_of_unit_recovers_h0():
    rng = random.Random(71)
    unit = module_complex(free_module(Zmod(8), 1), 0)
    for _ in range(3):
        m = random_complex(rng, Zmod(8), -1, 3)
        group = hom_dpur(unit, m)
        assert group.invariant_factors == homology(m, 0).invariant_factors


def test_hom_dpur_ignores_resolution_choice():
    rng = random.Random(73)
    a = random_complex(rng, Zmod(12), 0, 2)
    b = random_complex(rng, Zmod(12), -1, 3)
    base = resolve(b, INJECTIVE)
    one = hom_k(a, pad_resolution(base, 5).target)
    two = hom_k(a, pad_resolution(base, 8).target)
    bare = hom_dpur(a, b)
    assert one.invariant_factors == two.invariant_factors
    assert one.invariant_factors == bare.invariant_factors


def test_hom_dpur_is_hom_k_for_free_targets_over_z():
    # a bounded complex of finitely presented modules is K-pure projective,
    # so its derived hom into any bounded b is hom_k, free terms over Z
    # included; a pure acyclic summand of b changes nothing
    a = module_complex(cyclic_module(ZZ, 4), 0)
    b = make_complex(ZZ, 0, [free_module(ZZ, 1), cyclic_module(ZZ, 2)], [mat([[1]])])
    assert not all(termwise_ok(INJECTIVE, b))
    assert hom_dpur(a, b) == hom_k(a, b)
    unit = module_complex(free_module(ZZ, 1), 0)
    assert hom_dpur(unit, b).invariant_factors == homology(b, 0).invariant_factors
    rng = random.Random(79)
    for _ in range(3):
        a = random_complex(rng, ZZ, -1, 2, max_gens=2)
        extra = cone(identity_chain_map(random_complex(rng, ZZ, -1, 2, max_gens=2))).complex
        padded, _, _ = direct_sum_complexes([b, extra])
        assert hom_dpur(a, b) == hom_k(a, b)
        assert hom_dpur(a, padded).invariant_factors == hom_dpur(a, b).invariant_factors
