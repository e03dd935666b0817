"""Resolution builders, towers, limits, lifts, and their certificates."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from purcat import resolutions
from purcat.exact_linalg import InputError, WorkbenchError, ZZ, Zmod
from purcat.fpmod import cyclic_module, free_module, identity_map, zero_map
from purcat.complexes import (
    Homotopy,
    cone,
    homology_invariants,
    identity_chain_map,
    minimize_complex,
    module_complex,
    reduce_complex,
    shift,
    shift_map,
    trim,
    vanishes,
    zero_complex,
    zero_homotopy,
)
from purcat.homotopy import contract_complex
from purcat.purity import default_battery, is_pure_qis
from purcat.randgen import random_chain_map, random_complex
from purcat.resolutions import (
    DegreewiseFamily,
    DepthInsufficient,
    ResolutionCertificate,
    SemiSplitDirectTower,
    SemiSplitInverseTower,
    UnsupportedRing,
    check_colimit_sum_formula,
    check_direct_level_cone_identity,
    check_inverse_level_cone_identity,
    check_limit_product_formula,
    colimit_tower,
    injective_tower,
    limit_tower,
    projective_tower,
    required_depth,
    resolve,
    termwise_ok,
    validate_certificate,
    validate_direct_tower,
    validate_inverse_tower,
)
from helpers import (
    chain_is_zero,
    complexes_equal,
    injective_step_conditions,
    lift_injective,
    lift_projective,
    make_chain_map,
    make_complex,
    pad_resolution,
    projective_step_conditions,
    slow_resolve,
    slow_resolve_by_inductions,
)


def x2_complex(ring, order=4):
    a = cyclic_module(ring, order)
    return make_complex(ring, 0, [a, a], [[[2]]])


def z_projective_example():
    zc = free_module(ZZ, 1)
    return make_complex(ZZ, 0, [zc, zc, cyclic_module(ZZ, 2)], [[[2]], [[1]]])


# ---------------------------------------------------------------------------
# resolve


def test_single_pure_injective_module_is_fixed_point():
    m = module_complex(cyclic_module(Zmod(4), 2), 0)
    cert = resolve(m, "injective")
    assert validate_certificate(cert)
    assert cert.target == m
    assert cert.map.component(0).equals(identity_map(m.module(0)))


def test_resolve_x2_over_z4():
    m = x2_complex(Zmod(4))
    cert = resolve(m, "injective")
    assert validate_certificate(cert)
    assert homology_invariants(cert.target)[0] == (2,)
    assert homology_invariants(cert.target)[1] == (2,)
    assert all(cert.termwise_flags)
    assert is_pure_qis(cert.map).is_pure()


def test_zero_complex_resolves_to_zero_both_sides():
    for ring in (ZZ, Zmod(6)):
        z = zero_complex(ring)
        for side in ("injective", "projective"):
            cert = resolve(z, side)
            assert validate_certificate(cert)
            assert all(m.is_zero() for m in cert.target.modules)


def test_projective_resolution_over_z():
    m = z_projective_example()
    cert = resolve(m, "projective")
    assert validate_certificate(cert)
    assert all(inv == () for inv in homology_invariants(cert.target).values())
    assert is_pure_qis(cert.map).is_pure()


def test_injective_scope_refuses_free_parts_over_z():
    m = z_projective_example()
    with pytest.raises(UnsupportedRing):
        slow_resolve_by_inductions(m, "injective")
    with pytest.raises(UnsupportedRing):
        resolve(m, "injective")


def test_injective_over_z_torsion_terms():
    a = cyclic_module(ZZ, 4)
    b = cyclic_module(ZZ, 8)
    m = make_complex(ZZ, 0, [a, b], [[[2]]])
    cert = resolve(m, "injective")
    assert validate_certificate(cert)
    assert is_pure_qis(cert.map).is_pure()


def test_resolutions_preserve_homology_z12():
    rng = random.Random(11)
    ring = Zmod(12)
    for _ in range(4):
        m = random_complex(rng, ring, -1, 3)
        for side in ("injective", "projective"):
            cert = resolve(m, side)
            assert validate_certificate(cert)
            hm = homology_invariants(m)
            ht = homology_invariants(cert.target)
            for i, inv in hm.items():
                assert ht.get(i, ()) == inv


def test_certified_maps_are_pure_qis_z8():
    rng = random.Random(23)
    ring = Zmod(8)
    for _ in range(3):
        m = random_complex(rng, ring, 0, 2)
        for side in ("injective", "projective"):
            cert = resolve(m, side)
            assert is_pure_qis(cert.map).is_pure()


# ---------------------------------------------------------------------------
# towers


def test_injective_tower_z8_window_crossing_zero():
    rng = random.Random(7)
    ring = Zmod(8)
    m = random_complex(rng, ring, -2, 3)
    need = required_depth(m, "injective")
    assert need == 2
    tower, fs = injective_tower(m, need)
    for n in range(1, need + 1):
        assert check_inverse_level_cone_identity(tower, fs, n)
    assert check_limit_product_formula(tower)
    assert validate_inverse_tower(tower, fs)
    for kern in tower.kernels:
        assert all(termwise_ok("injective", kern))
    cert = limit_tower(tower, fs)
    assert validate_certificate(cert)


def test_projective_tower_over_z():
    m = z_projective_example()
    need = required_depth(m, "projective")
    assert need == 2
    tower, fs = projective_tower(m, need)
    for n in range(1, need + 1):
        assert check_direct_level_cone_identity(tower, fs, n)
    assert check_colimit_sum_formula(tower)
    assert validate_direct_tower(tower, fs)
    for coker in tower.cokernels:
        assert all(termwise_ok("projective", coker))
    cert = colimit_tower(tower, fs)
    assert validate_certificate(cert)


def test_certificate_is_refused_unless_it_validates():
    # Z in degree 0 over Z: the identity's cone contracts, but a free term
    # over Z is not pure injective, so validate_certificate rejects it
    m = module_complex(free_module(ZZ, 1), 0)
    f = identity_chain_map(m)
    witness = contract_complex(cone(f).complex)
    assert witness.witnesses()
    with pytest.raises(WorkbenchError, match="resolution certificate fails to validate"):
        resolutions._certificate(m, m, f, "injective", witness)


def test_inverse_tower_rereads_kernel_terms():
    rng = random.Random(7)
    m = random_complex(rng, Zmod(8), -2, 3)
    tower, fs = injective_tower(m, 2)
    assert validate_inverse_tower(tower, fs)
    # same windows, but a free term over Z is not pure injective
    bad = tuple(module_complex(free_module(ZZ, 1), k.lo) if k.modules else k
                for k in tower.kernels)
    assert bad != tower.kernels
    rebuilt = SemiSplitInverseTower(
        tower.source, tower.truncations, tower.transitions, tower.levels,
        tower.surjections, tower.sections, bad, tower.kernel_inclusions,
        tower.cone_certificates)
    assert not validate_inverse_tower(rebuilt, fs)


def _zero_one_component(families, nonzero):
    """families with the first component whose nonzero() end is not the
    zero module replaced by the zero map."""
    n, k = next((n, k) for n, f in enumerate(families)
                for k, c in enumerate(f.components) if not nonzero(c).is_zero())
    f = families[n]
    zero = zero_map(f.components[k].src, f.components[k].tgt)
    bad = DegreewiseFamily(f.src, f.tgt, f.lo, f.components[:k] + (zero,) + f.components[k + 1:])
    return families[:n] + (bad,) + families[n + 1:]


def test_limit_tower_rejects_a_corrupted_section():
    rng = random.Random(7)
    m = random_complex(rng, Zmod(8), -2, 3)
    tower, fs = injective_tower(m, 2)
    assert validate_inverse_tower(tower, fs)
    # a zero section component breaks p . s = id in that degree
    bad = _zero_one_component(tower.sections, lambda c: c.src)
    rebuilt = SemiSplitInverseTower(
        tower.source, tower.truncations, tower.transitions, tower.levels,
        tower.surjections, bad, tower.kernels,
        tower.kernel_inclusions, tower.cone_certificates)
    assert not validate_inverse_tower(rebuilt, fs)
    with pytest.raises(WorkbenchError, match="re-validate"):
        limit_tower(rebuilt, fs)


def test_colimit_tower_rejects_a_corrupted_retraction():
    m = random_complex(random.Random(6), Zmod(8), -1, 4)
    tower, fs = projective_tower(m, required_depth(m, "projective"))
    assert validate_direct_tower(tower, fs)
    # a zero retraction component breaks r . incl = id in that degree
    bad = _zero_one_component(tower.retractions, lambda c: c.tgt)
    rebuilt = SemiSplitDirectTower(
        tower.source, tower.truncations, tower.transitions, tower.levels,
        tower.injections, bad, tower.cokernels,
        tower.cokernel_projections, tower.cone_certificates)
    assert not validate_direct_tower(rebuilt, fs)
    with pytest.raises(WorkbenchError, match="re-validate"):
        colimit_tower(rebuilt, fs)


def test_tower_depth_gate_reports_requirement():
    rng = random.Random(19)
    m = random_complex(rng, Zmod(8), -2, 3)
    tower, fs = injective_tower(m, 1)
    with pytest.raises(DepthInsufficient) as info:
        limit_tower(tower, fs)
    assert info.value.required == 2
    with pytest.raises(DepthInsufficient):
        resolve(m, "injective", depth=1)


def test_tower_stabilizes_beyond_required_depth():
    rng = random.Random(31)
    m = random_complex(rng, Zmod(8), -1, 2)
    tower, fs = injective_tower(m, 3)
    assert validate_inverse_tower(tower, fs)
    assert complexes_equal(tower.levels[-1], tower.levels[-2])
    assert all(m.is_zero() for m in tower.kernels[-1].modules)
    cert = limit_tower(tower, fs)
    assert validate_certificate(cert)


def test_resolve_accepts_extra_depth_on_bounded_input():
    m = x2_complex(Zmod(4))
    cert = resolve(m, "injective", depth=2)
    assert validate_certificate(cert)
    certp = resolve(m, "projective", depth=3)
    assert validate_certificate(certp)


def test_required_depth_windows():
    rng = random.Random(43)
    m = random_complex(rng, Zmod(4), -3, 5)
    assert required_depth(m, "injective") >= 0
    flat = x2_complex(Zmod(4))
    assert required_depth(flat, "injective") == 0
    assert required_depth(flat, "projective") == 1


# ---------------------------------------------------------------------------
# lifts


def test_lift_injective_strict_square():
    rng = random.Random(5)
    ring = Zmod(4)
    for _ in range(3):
        m1 = trim(random_complex(rng, ring, 0, 2))
        m2 = trim(random_complex(rng, ring, 0, 2))
        f = random_chain_map(rng, m2, m1)
        r1 = resolve(m1, "injective")
        r2, g, square = lift_injective(f, r1)
        assert validate_certificate(r2)
        assert g.is_chain_map()
        assert (g @ r2.map).equals(r1.map @ f)
        assert chain_is_zero(square.boundary())


def test_lift_projective_strict_square():
    rng = random.Random(6)
    ring = Zmod(8)
    for _ in range(3):
        m1 = trim(random_complex(rng, ring, 0, 2))
        m2 = trim(random_complex(rng, ring, 0, 2))
        f = random_chain_map(rng, m2, m1)
        r2 = resolve(m2, "projective")
        r1, g, square = lift_projective(f, r2)
        assert validate_certificate(r1)
        assert g.is_chain_map()
        assert (r1.map @ g).equals(f @ r2.map)
        assert chain_is_zero(square.boundary())


def test_lift_rejects_mismatched_certificate():
    ring = Zmod(4)
    m1 = x2_complex(ring)
    m2 = module_complex(cyclic_module(ring, 2), 0)
    f = make_chain_map(m2, m1, 0, [[[2]]])
    wrong = resolve(m1, "projective")
    with pytest.raises(InputError):
        lift_injective(f, wrong)
    with pytest.raises(InputError):
        lift_projective(f, resolve(m2, "injective"))


# ---------------------------------------------------------------------------
# padding


def test_pad_resolution_validates_and_varies():
    m = x2_complex(Zmod(4))
    base = resolve(m, "injective")
    one = pad_resolution(base, seed=1)
    two = pad_resolution(base, seed=2)
    again = pad_resolution(base, seed=1)
    assert validate_certificate(one)
    assert validate_certificate(two)
    assert one.target.modules == again.target.modules
    assert one.target.modules != base.target.modules


def test_pad_resolution_projective_side():
    m = z_projective_example()
    base = resolve(m, "projective")
    padded = pad_resolution(base, seed=9)
    assert validate_certificate(padded)
    assert all(inv == () for inv in homology_invariants(padded.target).values())


# ---------------------------------------------------------------------------
# per-step conditions of the inductions (the oracle's certificates)


def test_injective_step_conditions_hold_on_traced_runs():
    rng = random.Random(13)
    ring = Zmod(8)
    for _ in range(3):
        m = random_complex(rng, ring, 0, 3)
        cert = slow_resolve_by_inductions(m, "injective")
        battery = default_battery(ring, m, cert.target)
        report = injective_step_conditions(cert, battery)
        for per_probe in report.values():
            for coker_mono, homology_iso in per_probe.values():
                assert coker_mono
                assert homology_iso


def test_projective_step_conditions_hold_on_traced_runs():
    rng = random.Random(17)
    for ring in (ZZ, Zmod(8)):
        m = random_complex(rng, ring, -2, 3)
        cert = slow_resolve_by_inductions(m, "projective")
        battery = default_battery(ring, m, cert.target)
        report = projective_step_conditions(cert, battery)
        for per_probe in report.values():
            for ker_epi, homology_iso in per_probe.values():
                assert ker_epi
                assert homology_iso


# ---------------------------------------------------------------------------
# resolve against the tower route


def tower_input(rng, ring, side):
    """A random complex whose resolution on this side needs a tower."""
    while True:
        lo = rng.randint(-2, -1) if side == "injective" else rng.randint(-1, 1)
        m = random_complex(rng, ring, lo, rng.randint(2, 3), max_gens=3)
        if side == "injective" and not all(x.is_torsion() for x in m.modules):
            continue
        if required_depth(m, side) >= 1:
            return m


def nonzero_homology(cx):
    return {i: inv for i, inv in homology_invariants(cx).items() if inv}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from((Zmod(12), Zmod(72), ZZ)),
       side=st.sampled_from(("injective", "projective")))
def test_resolve_and_the_tower_route_certify_the_same_homology(seed, ring, side):
    m = tower_input(random.Random(seed), ring, side)
    fast, slow = resolve(m, side), slow_resolve(m, side)
    assert validate_certificate(fast) and validate_certificate(slow)
    assert nonzero_homology(fast.target) == nonzero_homology(m)
    assert nonzero_homology(slow.target) == nonzero_homology(m)


def in_scope_input(rng, ring, side):
    """A random complex on a window of one to four degrees, with torsion
    terms where the side needs them."""
    while True:
        m = random_complex(rng, ring, rng.randint(-2, 1), rng.randint(1, 4), max_gens=3)
        if all(termwise_ok(side, m)):
            return m


def generators(cx):
    return sum(x.generators for x in cx.modules)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from((ZZ, Zmod(12), Zmod(72))),
       side=st.sampled_from(("injective", "projective")))
def test_resolve_agrees_with_the_inductions(seed, ring, side):
    # resolve certifies reduce_complex's to (injective) or back
    # (projective); composed with the other one, the oracle's map
    # compares the two targets, and its cone is contractible
    m = in_scope_input(random.Random(seed), ring, side)
    fast, slow = resolve(m, side), slow_resolve_by_inductions(m, side)
    assert validate_certificate(fast) and validate_certificate(slow)
    assert nonzero_homology(fast.target) == nonzero_homology(slow.target)
    assert nonzero_homology(fast.target) == nonzero_homology(m)
    target, to, back, _ = resolutions._reduced(trim(m))
    assert fast.target == target
    if side == "injective":
        assert fast.map.equals(to)
        comparison = slow.map @ back
    else:
        assert fast.map.equals(back)
        comparison = to @ slow.map
    assert contract_complex(cone(comparison).complex) is not None
    assert generators(fast.target) <= generators(slow.target)


def tower_top(m, side):
    """The (co)limit certificate of the tower m needs, and the tower."""
    depth = required_depth(m, side)
    if side == "injective":
        tower, fs = injective_tower(m, depth)
        return limit_tower(tower, fs), tower
    tower, fs = projective_tower(m, depth)
    return colimit_tower(tower, fs), tower


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from((Zmod(12), Zmod(72), ZZ)),
       side=st.sampled_from(("injective", "projective")))
def test_towers_on_reduced_cones_agree_with_towers_on_whole_cones(seed, ring, side):
    # minimize_complex returns (C', to, back) like reduce_complex but
    # cancels nothing, and its back . to is the identity modulo relations,
    # so with s = 0 the patched run resolves each whole cone
    m = tower_input(random.Random(seed), ring, side)
    reduced, reduced_tower = tower_top(m, side)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolutions, "reduce_complex",
                      lambda cx: (*minimize_complex(cx), zero_homotopy(cx, cx)))
        whole, whole_tower = tower_top(m, side)
    for cert in (reduced, whole, *reduced_tower.cone_certificates,
                 *whole_tower.cone_certificates):
        assert validate_certificate(cert)
    assert nonzero_homology(reduced.target) == nonzero_homology(whole.target)
    assert nonzero_homology(reduced.target) == nonzero_homology(m)
    assert generators(reduced.target) <= generators(whole.target)


def tower_certificates(m, side, depth):
    """The cone certificates of m's tower of this depth and its (co)limit's."""
    if side == "injective":
        tower, fs = injective_tower(m, depth)
        return tower.cone_certificates + (limit_tower(tower, fs),)
    tower, fs = projective_tower(m, depth)
    return tower.cone_certificates + (colimit_tower(tower, fs),)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from((ZZ, Zmod(12), Zmod(72))))
def test_reduce_complex_homotopy_and_the_contractions_written_from_it(seed, ring):
    rng = random.Random(seed)
    m = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 4), max_gens=3)
    red, to, back, s = reduce_complex(m)
    assert s.witnesses(None, back @ to)
    # s . back = 0, to . s = 0 and s . s = 0, each of degree -1 or -2
    assert vanishes(red, shift(m, -1), ((1, s, back),))
    assert vanishes(m, shift(red, -1), ((1, shift_map(to, -1), s),))
    s_below = Homotopy(shift(m, -1), shift(m, -2), s.lo + 1, s.components)
    assert vanishes(m, shift(m, -2), ((1, s_below, s),))
    # every witness the resolutions write down validates, and the solver,
    # the oracle, finds each cone contractible too; depth need + 1 has a
    # stable level once the tower is nonempty
    for side in ("injective", "projective"):
        if not all(termwise_ok(side, m)):
            continue
        certs = (resolve(m, side),) + tower_certificates(
            m, side, required_depth(m, side) + 1)
        for cert in certs:
            assert validate_certificate(cert)
            assert contract_complex(cone(cert.map).complex) is not None


def test_cone_identity_checks_refute_a_negated_inner_map():
    # the checks read cone(-g) off the cone kept on g; with g negated they
    # compare against cone(g), which differs exactly where 2 g is nonzero
    cases = (("injective", random_complex(random.Random(7), Zmod(8), -2, 3)),
             ("projective", z_projective_example()))
    exercised = 0
    for side, m in cases:
        depth = required_depth(m, side)
        if side == "injective":
            tower, fs = injective_tower(m, depth)
            check, build = check_inverse_level_cone_identity, SemiSplitInverseTower
        else:
            tower, fs = projective_tower(m, depth)
            check, build = check_direct_level_cone_identity, SemiSplitDirectTower
        for n in range(1, depth + 1):
            inner = tower.cone_certificates[n - 1]
            flipped = ResolutionCertificate(inner.source, inner.target, -inner.map, inner.side,
                                            inner.qis_witness, inner.termwise_flags)
            certs = list(tower.cone_certificates)
            certs[n - 1] = flipped
            fields = [getattr(tower, name) for name in build._fields]
            rebuilt = build(*fields[:-1], tuple(certs))
            g = inner.map
            assert check(tower, fs, n)
            assert check(rebuilt, fs, n) == vanishes(g.src, g.tgt, ((2, g),))
            exercised += not check(rebuilt, fs, n)
    assert exercised
