"""Closed structure: swap, tensor descent, derived hom, adjunction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import ZZ, Zmod
from purcat.fpmod import cyclic_module, free_module
from purcat.complexes import (
    cone,
    hom_complex,
    homology_invariants,
    identity_chain_map,
    module_complex,
    tensor_complex,
    tensor_fixed_left_map,
    zero_chain_map,
    zero_complex,
)
from purcat.purity import is_pure_qis
import purcat.resolutions as resolutions
from purcat.resolutions import (
    INJECTIVE,
    PROJECTIVE,
    UnsupportedRing,
    required_depth,
    resolve,
    termwise_ok,
)
import purcat.monoidal as monoidal
from purcat.monoidal import (
    adjunction_iso,
    check_dpur_adjunction,
    check_tensor_descends,
    phom,
    tensor_swap,
    validate_adjunction_witness,
    validate_derived_hom,
)
from purcat.randgen import random_complex, random_pure_acyclic, random_pure_qis
from purcat.exact_linalg import InputError
import helpers
from helpers import (
    adjunction_complexes,
    check_internal_hom_identity,
    check_phom_invariance,
    make_complex,
    slow_check_dpur_adjunction,
)


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
    w = adjunction_iso(*adjunction_complexes(a, b, c))
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
        assert validate_adjunction_witness(adjunction_iso(*adjunction_complexes(a, b, c)))


def test_adjunction_witness_shifted_windows():
    rng = random.Random(13)
    ring = Zmod(8)
    a = random_complex(rng, ring, -2, 2)
    b = random_complex(rng, ring, 1, 2)
    c = random_complex(rng, ring, -1, 3)
    assert validate_adjunction_witness(adjunction_iso(*adjunction_complexes(a, b, c)))


def test_adjunction_witness_over_z():
    rng = random.Random(17)
    a = random_complex(rng, ZZ, 0, 2)
    b = random_complex(rng, ZZ, 0, 2)
    c = random_complex(rng, ZZ, 0, 2)
    assert validate_adjunction_witness(adjunction_iso(*adjunction_complexes(a, b, c)))


def test_adjunction_witness_zero_factor():
    rng = random.Random(19)
    ring = Zmod(8)
    b = random_complex(rng, ring, 0, 2)
    c = random_complex(rng, ring, 0, 2)
    w = adjunction_iso(*adjunction_complexes(zero_complex(ring), b, c))
    assert validate_adjunction_witness(w)


def test_adjunction_witness_rejects_mixed_rings():
    a = module_complex(cyclic_module(Zmod(8), 2), 0)
    b = module_complex(cyclic_module(Zmod(12), 2), 0)
    with pytest.raises(InputError):
        adjunction_iso(*adjunction_complexes(a, b, b))


@pytest.mark.parametrize("other_ring", [Zmod(8), Zmod(12)])
@pytest.mark.parametrize("swapped", range(4))
def test_adjunction_iso_rejects_complexes_that_do_not_fit(swapped, other_ring):
    rng = random.Random(23)
    fits = adjunction_complexes(*(random_complex(rng, Zmod(8), 0, 2) for _ in range(3)))
    assert validate_adjunction_witness(adjunction_iso(*fits))
    # one of the four from another triple, one degree up
    other = adjunction_complexes(*(random_complex(rng, other_ring, 1, 2) for _ in range(3)))
    pieces = list(fits)
    pieces[swapped] = other[swapped]
    with pytest.raises(InputError):
        adjunction_iso(*pieces)


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
    monkeypatch.setattr(monoidal, "resolve", lambda *args: calls.append(args))
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


def _generators(cx) -> int:
    return sum(m.generators for m in cx.modules)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from((ZZ, Zmod(12), Zmod(72))),
       length=st.integers(1, 4), max_gens=st.integers(1, 3))
def test_phom_resolves_both_arguments_and_keeps_the_homology(seed, ring, length, max_gens):
    rng = random.Random(seed)
    m = random_complex(rng, ring, rng.randint(-1, 1), length, max_gens=max_gens)
    while True:
        # over Z only a torsion n has a pure injective resolution
        n = random_complex(rng, ring, rng.randint(-1, 1), length, max_gens=max_gens,
                           max_rels=max_gens + 1)
        if all(termwise_ok(INJECTIVE, n)):
            break
    result = phom(m, n)
    # both certificates re-validate and the value is their hom complex
    assert validate_derived_hom(result)
    # the resolutions are homotopy equivalent to m and n, and so is the value
    # to the plain hom complex
    assert same_homology(result.value, hom_complex(m, n).complex)
    assert _generators(result.proj_res.target) <= _generators(m)
    assert _generators(result.inj_res.target) <= _generators(n)


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
    # no link compares hom_dpur with hom_k of one pair: both are the
    # same memoized group, so such a link could never fail
    assert tuple(link.name for link in report.links) == (
        "replace-by-resolutions",
        "curry",
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


def test_dpur_adjunction_on_a_length_three_z12_triple():
    # three complexes on [-1, 1] with 4, 7 and 4 invariant factors; the
    # hom and tensor complexes are large and mostly zeros
    rng = random.Random(7)
    ring = Zmod(12)
    a, b, c = (random_complex(rng, ring, -1, 3, max_gens=3) for _ in range(3))
    report = check_dpur_adjunction(a, b, c)
    assert report.ok
    # recorded from the dense products, before they skipped zero entries
    factors = (2,) * 12 + (6,) * 6 + (12,) * 6
    assert [(link.left, link.right) for link in report.links] == [(factors, factors)] * 3


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

    def record(*args, **kw):
        calls.append(args)

    monkeypatch.setattr(monoidal, "resolve", record)
    monkeypatch.setattr(helpers, "slow_resolve", record)
    rng = random.Random(71)
    a = random_complex(rng, ZZ, 0, 2)
    b = random_complex(rng, ZZ, 0, 2)
    c = make_complex(ZZ, 0, [cyclic_module(ZZ, 3), free_module(ZZ, 1)], [[[0]]])
    for check in (check_dpur_adjunction, slow_check_dpur_adjunction):
        with pytest.raises(UnsupportedRing,
                           match="pure injective resolutions over the integers need torsion terms"):
            check(a, b, c)
    assert calls == []


@pytest.mark.parametrize("depth", [None, 1])
def test_dpur_adjunction_resolves_each_argument_once(monkeypatch, depth):
    calls = []

    def counted(m, side, depth=None):
        calls.append(side)
        return resolve(m, side, depth)

    monkeypatch.setattr(monoidal, "resolve", counted)
    rng = random.Random(5)
    ring = Zmod(12)
    a, b, c = (random_complex(rng, ring, 0, 2) for _ in range(3))
    report = check_dpur_adjunction(a, b, c, depth=depth)
    assert report.ok
    assert sorted(calls) == [INJECTIVE, PROJECTIVE, PROJECTIVE]


def _no_zero_terms(rng, ring, lo, length, torsion=False):
    """A random complex on [lo, lo + length - 1] whose terms are all nonzero
    (and, if asked, pure injective, which over Z means torsion)."""
    while True:
        cx = random_complex(rng, ring, lo, length)
        if any(m.is_zero() for m in cx.modules):
            continue
        if not torsion or all(termwise_ok(INJECTIVE, cx)):
            return cx


def test_dpur_adjunction_builds_no_tower(monkeypatch):
    # a and b reach above 0 and c below 0, so the tower route would build towers
    rng = random.Random(5)
    ring = Zmod(12)
    a, b = (_no_zero_terms(rng, ring, 0, 2) for _ in range(2))
    c = _no_zero_terms(rng, ring, -1, 2)
    assert required_depth(a, PROJECTIVE) == required_depth(c, INJECTIVE) == 1

    def refuse(m, depth):
        raise AssertionError("a tower was built")

    monkeypatch.setattr(resolutions, "projective_tower", refuse)
    monkeypatch.setattr(resolutions, "injective_tower", refuse)
    report = check_dpur_adjunction(a, b, c)
    assert report.ok
    # a depth is only checked against the one a tower would need
    assert check_dpur_adjunction(a, b, c, depth=1) == report
    with pytest.raises(resolutions.DepthInsufficient, match="at least 1"):
        check_dpur_adjunction(a, b, c, depth=0)


def test_dpur_adjunction_on_a_length_five_z12_triple():
    # three complexes on [-1, 3] with 5, 7 and 5 invariant factors; resolved
    # through towers this triple ran for over ten minutes
    rng = random.Random(7)
    ring = Zmod(12)
    a, b, c = (random_complex(rng, ring, -1, 5, max_gens=3) for _ in range(3))
    report = check_dpur_adjunction(a, b, c)
    assert report.ok


# ---------------------------------------------------------------------------
# the bounded route against the tower route


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from((Zmod(12), Zmod(72), ZZ)),
       zero=st.sampled_from((None, "a", "b", "c")))
def test_dpur_adjunction_matches_the_tower_route(seed, ring, zero):
    rng = random.Random(seed)
    args = {
        "a": _no_zero_terms(rng, ring, rng.randint(0, 1), 2),
        "b": _no_zero_terms(rng, ring, rng.randint(0, 1), 2),
        "c": _no_zero_terms(rng, ring, -1, 2, torsion=True),
    }
    # the oracle builds a direct tower for a and b and an inverse one for c
    assert required_depth(args["a"], PROJECTIVE) >= 1
    assert required_depth(args["b"], PROJECTIVE) >= 1
    assert required_depth(args["c"], INJECTIVE) >= 1
    if zero is not None:
        args[zero] = zero_complex(ring)
    fast = check_dpur_adjunction(args["a"], args["b"], args["c"])
    slow = slow_check_dpur_adjunction(args["a"], args["b"], args["c"])
    assert fast.links == slow.links
    assert fast.witness_ok == slow.witness_ok
    assert fast.ok
