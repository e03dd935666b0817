"""Resolution builders, towers, limits, lifts, and their certificates."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from purcat import resolutions
from purcat.exact_linalg import InputError, WorkbenchError, ZZ, Zmod
from purcat.fpmod import IllDefinedMap, cyclic_module, free_module, identity_map, make_map, zero_map
from purcat.complexes import (
    ChainMap,
    Complex,
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
    SemiSplitTower,
    UnsupportedRing,
    check_sum_formula,
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
    validate_tower,
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


SIDES = ("injective", "projective")
BUILD = {"injective": injective_tower, "projective": projective_tower}
VALIDATE = {"injective": validate_inverse_tower, "projective": validate_direct_tower}
TOP = {"injective": limit_tower, "projective": colimit_tower}
CONE_SHIFT = {"injective": -1, "projective": 0}


def tower_example(side):
    """A complex whose tower on this side needs depth 2: a Z/8 window
    crossing 0 (injective) or z_projective_example (projective)."""
    if side == "injective":
        return random_complex(random.Random(7), Zmod(8), -2, 3)
    return z_projective_example()


@pytest.mark.parametrize("side", SIDES)
def test_tower_levels_split_and_satisfy_the_cone_identity(side):
    m = tower_example(side)
    need = required_depth(m, side)
    assert need == 2
    tower, fs = BUILD[side](m, need)
    assert tower.side == side and tower.depth == need
    for n in range(1, need + 1):
        prev = tower.levels[n - 1]
        assert vanishes(prev, prev, ((1, tower.downs[n - 1], tower.ups[n - 1]), (-1,)))
        assert resolutions._matches_cone(cone(fs[n]).complex,
                                         tower.cone_certificates[n - 1].map, CONE_SHIFT[side])
    assert check_sum_formula(tower)
    assert validate_tower(tower, fs) and VALIDATE[side](tower, fs)
    for complement in tower.complements:
        assert all(termwise_ok(side, complement))
    cert = TOP[side](tower, fs)
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


# ---------------------------------------------------------------------------
# tampered towers: each corrupts one field so that one check fails alone


def rebuilt(tower, **fields):
    values = {name: getattr(tower, name) for name in SemiSplitTower._fields}
    return SemiSplitTower(**{**values, **fields})


def replaced(seq, k, value):
    return seq[:k] + (value,) + seq[k + 1:]


def legs(tower):
    """The field holding the chain-map half of each split."""
    return "downs" if tower.side == "injective" else "ups"


def composite_vanishes(tower, k, a, b):
    """Is k a . b (injective) or k b . a (projective) zero?"""
    outer, inner = (a, b) if tower.side == "injective" else (b, a)
    return vanishes(inner.src, outer.tgt, ((k, outer, inner),))


def zero_split_component(tower, fs):
    """A zero component in the split's degreewise half, where the level
    below is nonzero: down . up = id fails in that degree."""
    key = "ups" if tower.side == "injective" else "downs"
    below = (lambda c: c.src) if key == "ups" else (lambda c: c.tgt)
    n, k = next((n, k) for n, f in enumerate(getattr(tower, key))
                for k, c in enumerate(f.components) if not below(c).is_zero())
    f = getattr(tower, key)[n]
    bad = DegreewiseFamily(f.src, f.tgt, f.lo, replaced(f.components, k, zero_map(
        f.components[k].src, f.components[k].tgt)))
    return rebuilt(tower, **{key: replaced(getattr(tower, key), n, bad)})


def leg_on_another_source(tower, fs):
    """The leg on a copy of its source with one differential negated.
    Its components are fixed by down . up = id and its composite with the
    complement map, so only the ends it carries can break the chain law
    alone."""
    for n, leg in enumerate(getattr(tower, legs(tower))):
        cx = leg.src
        for k, d in enumerate(cx.diffs):
            bad = ChainMap(Complex(cx.ring, cx.lo, cx.modules, replaced(cx.diffs, k, -d)),
                           leg.tgt, leg.lo, leg.components)
            if not bad.is_chain_map():
                return rebuilt(tower, **{legs(tower): replaced(getattr(tower, legs(tower)), n, bad)})


def negated_complement_component(tower, fs):
    """One component of a complement map negated: still one to one or
    onto, still killed by the leg, no longer a chain map."""
    for n, c in enumerate(tower.complement_maps):
        for k, comp in enumerate(c.components):
            bad = ChainMap(c.src, c.tgt, c.lo, replaced(c.components, k, -comp))
            if not bad.is_chain_map():
                return rebuilt(tower, complement_maps=replaced(tower.complement_maps, n, bad))


def zero_complement_map(tower, fs):
    """The zero map in place of a nonzero complement's map."""
    n = next(n for n, c in enumerate(tower.complements) if any(x.generators for x in c.modules))
    c = tower.complement_maps[n]
    bad = ChainMap(c.src, c.tgt, c.lo, tuple(zero_map(x.src, x.tgt) for x in c.components))
    return rebuilt(tower, complement_maps=replaced(tower.complement_maps, n, bad))


def complement_map_through_the_split(tower, fs):
    """incl + s psi (injective) or proj + psi r (projective), psi a map
    with one nonzero entry between the complement and the level below:
    the first that keeps the complement map a chain map, one to one or
    onto, but not killed by the leg."""
    injective = tower.side == "injective"
    mod = tower.source.ring.modulus
    scalars = [x for x in range(1, mod) if mod % x == 0] if mod else [1]
    for n, c in enumerate(tower.complement_maps):
        split = (tower.ups if injective else tower.downs)[n]
        ends = (tower.complements[n], tower.levels[n])
        src, tgt = ends if injective else ends[::-1]
        for k, comp in enumerate(c.components):
            a, b = src.module(c.lo + k), tgt.module(c.lo + k)
            j = c.lo + k - split.lo
            if not 0 <= j < len(split.components):
                continue
            s = split.components[j]
            for row in range(b.generators):
                for col in range(a.generators):
                    for x in scalars:
                        try:
                            psi = make_map(a, b, [[x if (r, q) == (row, col) else 0
                                                   for q in range(a.generators)]
                                                  for r in range(b.generators)])
                        except IllDefinedMap:
                            continue
                        bad = ChainMap(c.src, c.tgt, c.lo, replaced(
                            c.components, k, comp + (s @ psi if injective else psi @ s)))
                        if bad.is_chain_map() and not composite_vanishes(
                                tower, 1, getattr(tower, legs(tower))[n], bad):
                            return rebuilt(tower, complement_maps=replaced(
                                tower.complement_maps, n, bad))


def free_kernel_terms(tower, fs):
    """The same windows, but a free term over Z is not pure injective."""
    bad = tuple(module_complex(free_module(ZZ, 1), k.lo) if k.modules else k
                for k in tower.complements)
    assert bad != tower.complements
    return rebuilt(tower, complements=bad)


def zero_complement(tower, fs):
    """A nonzero complement replaced by the zero complex: every check of
    the validator still holds, but the top level is no longer the sum."""
    n = next(n for n, c in enumerate(tower.complements) if any(x.generators for x in c.modules))
    return rebuilt(tower, complements=replaced(tower.complements, n,
                                               zero_complex(tower.source.ring)))


def negated_inner_map(tower, fs):
    """A cone certificate whose map is negated where 2 g is nonzero."""
    for n, inner in enumerate(tower.cone_certificates):
        g = inner.map
        if not vanishes(g.src, g.tgt, ((2, g),)):
            flipped = ResolutionCertificate(inner.source, inner.target, -g, inner.side,
                                            inner.qis_witness, inner.termwise_flags)
            return rebuilt(tower, cone_certificates=replaced(tower.cone_certificates, n, flipped))


def negated_transition(tower, fs):
    """A transition negated where 2 f_(n-1) t (2 t f_(n-1)) is nonzero:
    still onto, but the square no longer commutes."""
    for n, t in enumerate(tower.transitions):
        if not composite_vanishes(tower, 2, fs[n], t):
            return rebuilt(tower, transitions=replaced(tower.transitions, n, -t))


def transition_zeroed_below_an_empty_level(tower, fs):
    """A transition component zeroed in a degree where the truncation
    below is nonzero but its level is zero: the square still commutes,
    and only the transitions' surjectivity fails."""
    for n, t in enumerate(tower.transitions):
        for k, comp in enumerate(t.components):
            if comp.tgt.generators and not tower.levels[n].module(t.lo + k).generators:
                bad = ChainMap(t.src, t.tgt, t.lo, replaced(t.components, k, zero_map(
                    comp.src, comp.tgt)))
                return rebuilt(tower, transitions=replaced(tower.transitions, n, bad))


# check -> (tamper, sides, ring, the error the (co)limit raises).  Every
# term over Z/m is pure injective, so the kernel terms are re-read over Z;
# the projective side has no kernel terms to re-read (every finitely
# presented term is pure projective) and no surjectivity of its
# transitions to check
TAMPERS = {
    "down . up = id": (zero_split_component, SIDES, "Z72", "re-validate"),
    "leg is a chain map": (leg_on_another_source, SIDES, "Z72", "re-validate"),
    "complement map is a chain map": (negated_complement_component, SIDES, "Z72",
                                      "re-validate"),
    "complement map one to one or onto": (zero_complement_map, SIDES, "Z72", "re-validate"),
    "leg and complement map compose to 0": (complement_map_through_the_split, SIDES, "Z72",
                                            "re-validate"),
    "pure injective kernel terms": (free_kernel_terms, ("injective",), "Z", "product formula"),
    "sum formula": (zero_complement, SIDES, "Z72", "formula"),
    "cone identity": (negated_inner_map, SIDES, "Z72", "re-validate"),
    "commuting square": (negated_transition, SIDES, "Z72", "re-validate"),
    "transitions onto": (transition_zeroed_below_an_empty_level, ("injective",), "Z72",
                         "not degreewise surjective"),
}


@functools.lru_cache(maxsize=None)
def tamper_tower(side, ring_name):
    """A tower of depth 2 on which every tamper of its side and ring applies:
    random draws over Z/72 (on [-2, 1] or [-1, 2]) and, with torsion terms,
    over Z (on [-2, 0])."""
    seed, lo, length = {("injective", "Z72"): (117, -2, 4), ("projective", "Z72"): (62, -1, 4),
                        ("injective", "Z"): (5, -2, 3)}[side, ring_name]
    ring = Zmod(72) if ring_name == "Z72" else ZZ
    m = random_complex(random.Random(seed), ring, lo, length, max_gens=3)
    return BUILD[side](m, required_depth(m, side))


@pytest.mark.parametrize("side,check", [(side, check) for check, (_, sides, _, _) in TAMPERS.items()
                                        for side in sides])
def test_tower_checks_refuse_one_corrupted_field(side, check):
    tamper, _, ring_name, error = TAMPERS[check]
    tower, fs = tamper_tower(side, ring_name)
    assert tower.depth == 2 and VALIDATE[side](tower, fs)
    bad = tamper(tower, fs)
    assert bad is not None
    # the sum formula and the transitions are checked by the (co)limit, not
    # the validator
    assert VALIDATE[side](bad, fs) == (check in ("sum formula", "transitions onto"))
    with pytest.raises(WorkbenchError, match=error):
        TOP[side](bad, fs)


def test_cone_identity_checks_refute_a_negated_inner_map():
    # the check reads cone(-g) off the cone kept on g; with g negated it
    # compares against cone(g), which differs exactly where 2 g is nonzero
    exercised = 0
    for side in SIDES:
        m = tower_example(side)
        tower, fs = BUILD[side](m, required_depth(m, side))
        for n, inner in enumerate(tower.cone_certificates):
            flipped = ResolutionCertificate(inner.source, inner.target, -inner.map, inner.side,
                                            inner.qis_witness, inner.termwise_flags)
            bad = rebuilt(tower, cone_certificates=replaced(tower.cone_certificates, n, flipped))
            g = inner.map
            assert validate_tower(bad, fs) == vanishes(g.src, g.tgt, ((2, g),))
            exercised += not validate_tower(bad, fs)
    assert exercised


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
    assert all(m.is_zero() for m in tower.complements[-1].modules)
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
    tower, fs = BUILD[side](m, required_depth(m, side))
    return TOP[side](tower, fs), tower


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
    tower, fs = BUILD[side](m, depth)
    return tower.cone_certificates + (TOP[side](tower, fs),)


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
