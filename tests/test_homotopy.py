"""Homotopy category layer: hom_k, solvers, certificates, roofs."""

import random

import pytest

from purcat.exact_linalg import IntMatrix, InputError, ZZ, Zmod
from purcat.fpmod import (
    cyclic_module,
    free_module,
    is_isomorphic,
)
from purcat.complexes import (
    cone,
    direct_sum_complexes,
    hom_complex,
    homology,
    identity_chain_map,
    make_complex,
    module_complex,
    shift,
    zero_complex,
)
from purcat.homotopy import (
    BY_BOUNDED_INJECTIVE,
    BY_BOUNDED_PROJECTIVE,
    PROBE_CONSISTENT,
    certify_k_pure_injective,
    certify_k_pure_projective,
    contract_complex,
    hom_dpur,
    hom_k,
    homotopy_left_inverse,
    make_right_roof,
    normalize_roof,
    null_homotopy,
    validate_k_purity_certificate,
)
from purcat.randgen import (
    null_homotopic_chain_map,
    random_chain_map,
    random_complex,
    random_contractible,
    random_pure_acyclic,
    random_pure_qis,
)
from helpers import mat


# ---------------------------------------------------------------------------
# hom_k


def test_hom_k_from_unit_is_h0():
    rng = random.Random(3)
    for ring in (ZZ, Zmod(12)):
        unit = module_complex(free_module(ring, 1), 0)
        m = random_complex(rng, ring, -1, 3)
        hk = hom_k(unit, m)
        assert is_isomorphic(hk.module, homology(m, 0))


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


def test_hom_k_class_round_trip():
    rng = random.Random(11)
    a = random_complex(rng, Zmod(4), 0, 2)
    b = random_complex(rng, Zmod(4), 0, 2)
    hk = hom_k(a, b)
    for idx in range(hk.module.generators):
        coords = IntMatrix.column_vector(
            [1 if r == idx else 0 for r in range(hk.module.generators)]
        )
        f = hk.to_chain_map(coords)
        assert f.is_chain_map()
        back = hk.from_chain_map(f)
        assert hk.module.contains_in_relations(back - coords)


def test_hom_k_kills_boundaries():
    rng = random.Random(13)
    a = random_complex(rng, Zmod(4), 0, 3)
    b = random_complex(rng, Zmod(4), 0, 3)
    hk = hom_k(a, b)
    f = null_homotopic_chain_map(rng, a, b)
    assert hk.module.contains_in_relations(hk.from_chain_map(f))


# ---------------------------------------------------------------------------
# null homotopy and contraction


def test_null_homotopy_zero_map():
    rng = random.Random(17)
    a = random_complex(rng, ZZ, 0, 3, max_gens=1)
    from purcat.complexes import zero_chain_map

    h = null_homotopy(zero_chain_map(a, a))
    assert h is not None
    assert h.boundary().is_zero()


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


# ---------------------------------------------------------------------------
# certificates


def test_certify_injective_z2_over_z():
    cx = module_complex(cyclic_module(ZZ, 2), 0)
    cert = certify_k_pure_injective(cx)
    assert cert.route == BY_BOUNDED_INJECTIVE
    assert validate_k_purity_certificate(cert)


def test_certify_injective_any_zmod():
    rng = random.Random(31)
    cx = random_complex(rng, Zmod(12), -2, 4)
    cert = certify_k_pure_injective(cx)
    assert cert.route == BY_BOUNDED_INJECTIVE
    assert all(cert.evidence)
    assert validate_k_purity_certificate(cert)


def test_certify_injective_free_z_is_probe_consistent():
    cx = module_complex(free_module(ZZ, 1), 0)
    cert = certify_k_pure_injective(cx, trials=5)
    assert cert.route == PROBE_CONSISTENT
    assert not cert.is_certified()
    assert validate_k_purity_certificate(cert)


def test_certify_projective_any_window():
    rng = random.Random(37)
    for ring in (ZZ, Zmod(8)):
        cx = random_complex(rng, ring, -1, 3)
        cert = certify_k_pure_projective(cx, trials=3)
        assert cert.route == BY_BOUNDED_PROJECTIVE
        assert validate_k_purity_certificate(cert)
    cert = certify_k_pure_projective(zero_complex(ZZ))
    assert cert.route == BY_BOUNDED_PROJECTIVE


def test_certified_injective_kills_pure_acyclic_maps():
    rng = random.Random(41)
    cx = random_complex(rng, Zmod(8), 0, 3)
    cert = certify_k_pure_injective(cx)
    assert cert.route == BY_BOUNDED_INJECTIVE
    for _ in range(10):
        probe = random_pure_acyclic(rng, Zmod(8))
        f = random_chain_map(rng, probe, cx)
        h = null_homotopy(f)
        assert h is not None
        assert h.witnesses(f)


def test_certified_projective_kills_maps_to_pure_acyclic():
    rng = random.Random(43)
    cx = random_complex(rng, ZZ, 0, 2, max_gens=1)
    cert = certify_k_pure_projective(cx)
    assert cert.route == BY_BOUNDED_PROJECTIVE
    for _ in range(10):
        probe = random_pure_acyclic(rng, ZZ, max_gens=1)
        f = random_chain_map(rng, cx, probe)
        assert null_homotopy(f) is not None


# ---------------------------------------------------------------------------
# homotopy left inverses and roofs


def test_left_inverse_of_identity():
    rng = random.Random(47)
    cx = random_complex(rng, Zmod(4), 0, 3)
    cert = certify_k_pure_injective(cx)
    v, h = homotopy_left_inverse(identity_chain_map(cx), cert)
    assert h.witnesses(v - identity_chain_map(cx))


def test_left_inverse_of_summand_inclusion():
    m = module_complex(cyclic_module(Zmod(4), 4), 0)
    pad = cone(identity_chain_map(module_complex(cyclic_module(Zmod(4), 2), 0))).complex
    total, injs, _ = direct_sum_complexes([m, pad])
    u = injs[0]
    cert = certify_k_pure_injective(m)
    v, h = homotopy_left_inverse(u, cert)
    assert (v @ u).is_chain_map()
    assert h.witnesses(v @ u, identity_chain_map(m))


def test_left_inverse_on_random_pure_qis():
    rng = random.Random(53)
    for _ in range(6):
        m = random_complex(rng, Zmod(8), 0, 3)
        u = random_pure_qis(rng, m)
        cert = certify_k_pure_injective(m)
        v, h = homotopy_left_inverse(u, cert, check=False)
        assert v.is_chain_map()
        assert h.witnesses(v @ u, identity_chain_map(m))


def test_left_inverse_rejects_non_pure_qis():
    from purcat.complexes import make_chain_map

    m = module_complex(cyclic_module(Zmod(4), 4), 0)
    n = module_complex(cyclic_module(Zmod(4), 2), 0)
    f = make_chain_map(m, n, 0, [mat([[1]])])
    cert = certify_k_pure_injective(m)
    with pytest.raises(InputError):
        homotopy_left_inverse(f, cert)


def test_left_inverse_requires_matching_certificate():
    cx = module_complex(cyclic_module(Zmod(4), 2), 0)
    other = module_complex(cyclic_module(Zmod(4), 4), 0)
    cert = certify_k_pure_injective(other)
    with pytest.raises(InputError):
        homotopy_left_inverse(identity_chain_map(cx), cert)


def test_normalize_roof_with_identity_leg():
    rng = random.Random(59)
    a = random_complex(rng, Zmod(8), 0, 2)
    c = random_complex(rng, Zmod(8), 0, 2)
    f = random_chain_map(rng, a, c)
    roof = make_right_roof(f, identity_chain_map(c))
    assert roof.validate()
    cert = certify_k_pure_injective(c)
    g = normalize_roof(roof, cert)
    h = null_homotopy(g - f)
    assert h is not None


def test_make_right_roof_rejects_bad_leg():
    m = module_complex(cyclic_module(Zmod(4), 4), 0)
    n = module_complex(cyclic_module(Zmod(4), 2), 0)
    from purcat.complexes import make_chain_map

    u = make_chain_map(m, n, 0, [mat([[1]])])
    with pytest.raises(InputError):
        make_right_roof(identity_chain_map(n), u)


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
        assert certify_k_pure_injective(b).route == BY_BOUNDED_INJECTIVE
        derived = hom_dpur(a, b)
        plain = hom_k(a, b)
        assert is_isomorphic(derived.module, plain.module)


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
    one = hom_dpur(a, b, seed=5)
    two = hom_dpur(a, b, seed=8)
    bare = hom_dpur(a, b)
    assert one.invariant_factors == two.invariant_factors
    assert one.invariant_factors == bare.invariant_factors


def test_hom_dpur_honors_depth_gate():
    from purcat.resolutions import DepthInsufficient

    rng = random.Random(79)
    b = random_complex(rng, Zmod(8), -2, 3)
    a = module_complex(cyclic_module(Zmod(8), 2), 0)
    with pytest.raises(DepthInsufficient):
        hom_dpur(a, b, depth=0)
    group = hom_dpur(a, b, depth=2)
    assert group.invariant_factors == hom_dpur(a, b).invariant_factors


def test_hom_dpur_rejects_free_targets_over_z_before_any_hom(monkeypatch):
    from purcat import homotopy
    from purcat.resolutions import UnsupportedRing

    calls = []
    real = homotopy.hom_k
    monkeypatch.setattr(homotopy, "hom_k",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    a = module_complex(cyclic_module(ZZ, 4), 0)
    b = make_complex(ZZ, 0, [free_module(ZZ, 1), cyclic_module(ZZ, 2)], [mat([[1]])])
    with pytest.raises(UnsupportedRing):
        hom_dpur(a, b)
    assert calls == []
