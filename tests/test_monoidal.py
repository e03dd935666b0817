"""Closed structure: swap, tensor descent, derived hom, adjunction."""

import random

import pytest

from purcat.exact_linalg import ZZ, Zmod
from purcat.fpmod import cyclic_module, free_module
from purcat.complexes import (
    cone,
    homology_invariants,
    identity_chain_map,
    make_complex,
    module_complex,
    tensor_complex,
    tensor_fixed_left_map,
    zero_chain_map,
    zero_complex,
)
from purcat.purity import is_pure_qis
from purcat.resolutions import INJECTIVE, PROJECTIVE, UnsupportedRing, resolve
import purcat.monoidal as monoidal
from purcat.monoidal import (
    adjunction_iso,
    check_dpur_adjunction,
    check_internal_hom_identity,
    check_phom_invariance,
    check_tensor_descends,
    phom,
    tensor_swap,
    validate_adjunction_witness,
    validate_derived_hom,
)
from purcat.randgen import random_complex, random_pure_acyclic, random_pure_qis
from purcat.exact_linalg import InputError


def same_homology(x, y) -> bool:
    hx = homology_invariants(x)
    hy = homology_invariants(y)
    return all(hx.get(i, ()) == hy.get(i, ()) for i in set(hx) | set(hy))


# ---------------------------------------------------------------------------
# tensor swap


def test_tensor_swap_is_iso_of_complexes():
    rng = random.Random(3)
    ring = Zmod(8)
    a = random_complex(rng, ring, 0, 3)
    b = random_complex(rng, ring, -1, 2)
    s = tensor_swap(a, b)
    t = tensor_swap(b, a)
    assert s.is_chain_map() and t.is_chain_map()
    assert (t @ s).equals(identity_chain_map(s.src))
    assert (s @ t).equals(identity_chain_map(t.src))


def test_tensor_swap_sign_in_odd_degrees():
    # both factors supported in odd degrees, so the (-1)^(i*j) sign is
    # exercised; a wrong sign breaks the chain-map condition, not the
    # involution
    ring = Zmod(12)
    a = make_complex(ring, 1, [cyclic_module(ring, 4), cyclic_module(ring, 4)],
                     [[[2]]])
    b = make_complex(ring, 1, [cyclic_module(ring, 6), cyclic_module(ring, 6)],
                     [[[3]]])
    s = tensor_swap(a, b)
    assert s.is_chain_map()
    assert (tensor_swap(b, a) @ s).equals(identity_chain_map(s.src))


def test_tensor_swap_matches_homology_symmetry():
    rng = random.Random(7)
    ring = Zmod(12)
    a = random_complex(rng, ring, 0, 2)
    b = random_complex(rng, ring, 1, 2)
    ab = tensor_complex(a, b).complex
    ba = tensor_complex(b, a).complex
    assert same_homology(ab, ba)


# ---------------------------------------------------------------------------
# the currying witness


def test_adjunction_witness_one_term():
    # over Z/12: Z/4 (x) Z/6 = Z/2 and Hom(Z/2, Z/12) = Z/2, while the
    # nested side is Hom(Z/4, Hom(Z/6, Z/12)) = Hom(Z/4, Z/6) = Z/2
    ring = Zmod(12)
    a = module_complex(cyclic_module(ring, 4), 0)
    b = module_complex(cyclic_module(ring, 6), 0)
    c = module_complex(cyclic_module(ring, 12), 0)
    w = adjunction_iso(a, b, c)
    assert validate_adjunction_witness(w)
    assert homology_invariants(w.flat.complex)[0] == (2,)
    assert homology_invariants(w.nested.complex)[0] == (2,)


def test_adjunction_witness_random():
    rng = random.Random(11)
    ring = Zmod(12)
    for _ in range(4):
        a = random_complex(rng, ring, 0, 2)
        b = random_complex(rng, ring, 0, 2)
        c = random_complex(rng, ring, 0, 2)
        assert validate_adjunction_witness(adjunction_iso(a, b, c))


def test_adjunction_witness_shifted_windows():
    rng = random.Random(13)
    ring = Zmod(8)
    a = random_complex(rng, ring, -2, 2)
    b = random_complex(rng, ring, 1, 2)
    c = random_complex(rng, ring, -1, 3)
    assert validate_adjunction_witness(adjunction_iso(a, b, c))


def test_adjunction_witness_over_z():
    rng = random.Random(17)
    a = random_complex(rng, ZZ, 0, 2)
    b = random_complex(rng, ZZ, 0, 2)
    c = random_complex(rng, ZZ, 0, 2)
    assert validate_adjunction_witness(adjunction_iso(a, b, c))


def test_adjunction_witness_zero_factor():
    rng = random.Random(19)
    ring = Zmod(8)
    b = random_complex(rng, ring, 0, 2)
    c = random_complex(rng, ring, 0, 2)
    w = adjunction_iso(zero_complex(ring), b, c)
    assert validate_adjunction_witness(w)


def test_adjunction_witness_rejects_mixed_rings():
    a = module_complex(cyclic_module(Zmod(8), 2), 0)
    b = module_complex(cyclic_module(Zmod(12), 2), 0)
    with pytest.raises(InputError):
        adjunction_iso(a, b, b)


# ---------------------------------------------------------------------------
# tensor descent


def test_tensor_descent_on_resolution_map():
    rng = random.Random(23)
    ring = Zmod(8)
    m = random_complex(rng, ring, 0, 3)
    a = random_complex(rng, ring, 0, 2)
    cert = resolve(m, INJECTIVE)
    report = check_tensor_descends(cert.map, a)
    assert report.ok
    assert report.induced.src == tensor_complex(a, cert.source).complex
    assert report.induced.tgt == tensor_complex(a, cert.target).complex
    assert report.truncation_verdicts


def test_tensor_descent_on_synthetic_pure_qis():
    rng = random.Random(29)
    ring = Zmod(12)
    m = random_complex(rng, ring, -1, 2)
    u = random_pure_qis(rng, m)
    a = random_complex(rng, ring, 0, 2)
    assert check_tensor_descends(u, a).ok


def test_tensor_descent_rejects_non_pure_input():
    ring = Zmod(8)
    m = module_complex(cyclic_module(ring, 4), 0)
    with pytest.raises(InputError):
        check_tensor_descends(zero_chain_map(m, m), m)


def test_tensor_descent_rejects_mixed_rings():
    m = module_complex(cyclic_module(Zmod(8), 4), 0)
    a = module_complex(cyclic_module(Zmod(12), 4), 0)
    with pytest.raises(InputError):
        check_tensor_descends(identity_chain_map(m), a)


def test_cone_commutes_with_tensor_up_to_purity():
    # a (x) cone(u) and cone(a (x) u) have the same degreewise sizes and
    # are both pure acyclic when u is a pure qis
    rng = random.Random(31)
    ring = Zmod(8)
    m = random_complex(rng, ring, 0, 2)
    u = random_pure_qis(rng, m)
    a = random_complex(rng, ring, 0, 2)
    left = tensor_complex(a, cone(u).complex).complex
    induced = tensor_fixed_left_map(tensor_complex(a, u.src),
                                    tensor_complex(a, u.tgt), u)
    right = cone(induced).complex
    for i in range(min(left.lo, right.lo), max(left.hi, right.hi) + 1):
        assert left.module(i).generators == right.module(i).generators
    for x in (left, right):
        collapse = zero_chain_map(x, zero_complex(ring))
        assert is_pure_qis(collapse).is_pure()
    assert same_homology(left, right)


# ---------------------------------------------------------------------------
# derived hom


def test_phom_unit_recovers_homology():
    rng = random.Random(37)
    ring = Zmod(8)
    unit = module_complex(free_module(ring, 1), 0)
    m = random_complex(rng, ring, -1, 3)
    assert same_homology(phom(unit, m).value, m)


def test_phom_frozen_oracles_over_z():
    a = module_complex(cyclic_module(ZZ, 4), 0)
    b = module_complex(cyclic_module(ZZ, 8), 0)
    h = homology_invariants(phom(a, b).value)
    assert h[0] == (4,)
    assert all(v == () for k, v in h.items() if k != 0)
    unit = module_complex(free_module(ZZ, 1), 0)
    h2 = homology_invariants(phom(unit, module_complex(cyclic_module(ZZ, 6), 0)).value)
    assert h2[0] == (6,)
    assert all(v == () for k, v in h2.items() if k != 0)


def test_phom_kills_pure_acyclic_arguments():
    rng = random.Random(41)
    ring = Zmod(8)
    m = random_complex(rng, ring, 0, 2)
    pa = random_pure_acyclic(rng, ring)
    for value in (phom(pa, m).value, phom(m, pa).value):
        assert all(v == () for v in homology_invariants(value).values())


def test_phom_zero_arguments():
    rng = random.Random(43)
    ring = Zmod(12)
    m = random_complex(rng, ring, 0, 2)
    z = zero_complex(ring)
    for value in (phom(z, m).value, phom(m, z).value):
        assert all(v == () for v in homology_invariants(value).values())


def test_phom_certificates_validate():
    rng = random.Random(47)
    ring = Zmod(12)
    m = random_complex(rng, ring, -1, 3)
    n = random_complex(rng, ring, 0, 2)
    result = phom(m, n)
    assert result.proj_res.side == PROJECTIVE
    assert result.inj_res.side == INJECTIVE
    assert validate_derived_hom(result)


def test_phom_rejects_free_targets_over_z():
    a = module_complex(cyclic_module(ZZ, 4), 0)
    target = module_complex(free_module(ZZ, 1), 0)
    with pytest.raises(UnsupportedRing):
        phom(a, target)


def test_phom_rejects_free_targets_before_resolving(monkeypatch):
    calls = []
    monkeypatch.setattr(monoidal, "_resolution_for",
                        lambda *args: calls.append(args))
    a = module_complex(cyclic_module(ZZ, 4), 0)
    target = module_complex(free_module(ZZ, 1), 0)
    with pytest.raises(UnsupportedRing,
                       match="pure injective resolutions over the integers need torsion terms"):
        phom(a, target)
    assert calls == []


def test_phom_invariance_across_paddings():
    rng = random.Random(53)
    ring = Zmod(8)
    m = random_complex(rng, ring, 0, 3)
    n = random_complex(rng, ring, -1, 2)
    assert check_phom_invariance(m, n, seeds=(4, 11)).ok


# ---------------------------------------------------------------------------
# the closed structure


def test_internal_hom_identity_one_term():
    ring = Zmod(12)
    a = module_complex(cyclic_module(ring, 4), 0)
    b = module_complex(cyclic_module(ring, 6), 0)
    c = module_complex(cyclic_module(ring, 12), 0)
    comparison = check_internal_hom_identity(a, b, c)
    assert comparison.ok
    assert comparison.degrees[0] == ((2,), (2,))


def test_internal_hom_identity_random():
    rng = random.Random(59)
    ring = Zmod(12)
    for _ in range(3):
        a = random_complex(rng, ring, 0, 2)
        b = random_complex(rng, ring, -1, 2)
        c = random_complex(rng, ring, 0, 2)
        assert check_internal_hom_identity(a, b, c).ok


def test_dpur_adjunction_links_one_term():
    ring = Zmod(12)
    a = module_complex(cyclic_module(ring, 4), 0)
    b = module_complex(cyclic_module(ring, 6), 0)
    c = module_complex(cyclic_module(ring, 12), 0)
    report = check_dpur_adjunction(a, b, c)
    assert report.ok
    assert report.links[0].left == (2,)
    assert tuple(link.name for link in report.links) == (
        "replace-by-resolutions",
        "descend-to-homotopy",
        "curry",
        "return-to-derived",
        "end-to-end",
    )


def test_dpur_adjunction_random_triples():
    rng = random.Random(61)
    ring = Zmod(12)
    for _ in range(3):
        a = random_complex(rng, ring, 0, 2)
        b = random_complex(rng, ring, 0, 2)
        c = random_complex(rng, ring, -1, 2)
        report = check_dpur_adjunction(a, b, c)
        assert report.witness_ok
        for link in report.links:
            assert link.ok, link.name


def test_dpur_adjunction_with_zero_argument():
    rng = random.Random(67)
    ring = Zmod(8)
    b = random_complex(rng, ring, 0, 2)
    c = random_complex(rng, ring, 0, 2)
    report = check_dpur_adjunction(zero_complex(ring), b, c)
    assert report.ok
    assert all(link.left == () for link in report.links)


def test_dpur_adjunction_rejects_free_c_before_resolving(monkeypatch):
    calls = []
    monkeypatch.setattr(monoidal, "resolve", lambda *args, **kw: calls.append(args))
    rng = random.Random(71)
    a = random_complex(rng, ZZ, 0, 2)
    b = random_complex(rng, ZZ, 0, 2)
    c = make_complex(ZZ, 0, [cyclic_module(ZZ, 3), free_module(ZZ, 1)], [[[0]]])
    with pytest.raises(UnsupportedRing,
                       match="pure injective resolutions over the integers need torsion terms"):
        check_dpur_adjunction(a, b, c)
    assert calls == []
