"""Closed-form hom functoriality and block assembly against slow oracles.

hom_post/hom_pre read every induced slot off one change-of-basis
product, maps between direct sums are placed block by block, the cone
forms its structure maps only when they are read, and the currying
witness is read off in Smith coordinates; the oracles in helpers.py
build the same matrices from full maps, dense inj . x . proj sums, up
front and one basis map at a time.  The results must agree entry for
entry.  The cost-shape tests at the end patch the slow constructions to
raise and check that the fast paths never reach them.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import IntMatrix, InputError, WorkbenchError, ZZ, Zmod
from purcat.fpmod import (
    HomModule,
    cyclic_module,
    hom_modules,
    hom_post,
    hom_pre,
    make_map,
    zero_map,
    zero_module,
)
from purcat.complexes import Complex, cone, hom_complex, tensor_complex, zero_complex
from purcat.homotopy import contract_complex
from purcat.monoidal import adjunction_iso, validate_adjunction_witness
from purcat.randgen import (
    random_chain_map,
    random_complex,
    random_contractible,
    random_map,
    random_module,
    random_pure_acyclic,
)
from purcat.resolutions import INJECTIVE, PROJECTIVE, resolve, validate_certificate
from helpers import (
    adjunction_complexes,
    slow_adjunction_iso,
    slow_adjunction_maps,
    slow_cone,
    slow_cone_differentials,
    slow_hom_differentials,
    slow_hom_post,
    slow_hom_pre,
    slow_tensor_differentials,
)

RINGS = (ZZ, Zmod(12), Zmod(72))
SEEDS = st.integers(0, 2 ** 32 - 1)
SAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def small_complex(rng, ring, max_length=3):
    """A random complex on a window of 1..max_length degrees, no zero terms."""
    while True:
        cx = random_complex(rng, ring, rng.randint(-1, 1), rng.randint(1, max_length),
                            max_gens=3)
        if not any(m.is_zero() for m in cx.modules):
            return cx


@SAMPLES
@given(seed=SEEDS, ring=st.sampled_from(RINGS))
def test_decomposition_bases_are_inverse(seed, ring):
    # the closed forms drop to_diag . from_diag from the middle of a product
    m = random_module(random.Random(seed), ring, max_gens=4, max_rels=4)
    dec = m.decomposition()
    assert ring.reduce_matrix(dec.to_diag @ dec.from_diag) == IntMatrix.identity(m.generators)


@SAMPLES
@given(seed=SEEDS, ring=st.sampled_from(RINGS))
def test_hom_post_and_pre_match_full_map_oracle(seed, ring):
    rng = random.Random(seed)
    a, a2, b, b2 = (random_module(rng, ring, max_gens=3, max_rels=3) for _ in range(4))
    phi = random_map(rng, b, b2)
    psi = random_map(rng, a2, a)
    hm = hom_modules(a, b)
    post_tgt, pre_tgt = hom_modules(a, b2), hom_modules(a2, b)
    assert hom_post(hm, post_tgt, phi) == slow_hom_post(hm, post_tgt, phi)
    assert hom_pre(hm, pre_tgt, psi) == slow_hom_pre(hm, pre_tgt, psi)


def test_hom_post_and_pre_reject_ill_defined_maps():
    z2, z4 = cyclic_module(ZZ, 2), cyclic_module(ZZ, 4)
    # 1 -> 1 sends the relation 2 of Z/2 to 2, which is not zero in Z/4
    phi = make_map(z2, z4, [[1]], check=False)
    for induced, oracle, src, tgt in (
            (hom_post, slow_hom_post, hom_modules(z2, z2), hom_modules(z2, z4)),
            (hom_pre, slow_hom_pre, hom_modules(z4, z4), hom_modules(z2, z4))):
        with pytest.raises(WorkbenchError, match="not a hom element"):
            induced(src, tgt, phi)
        with pytest.raises(WorkbenchError, match="not a hom element"):
            oracle(src, tgt, phi)


def test_hom_post_and_pre_reject_mismatched_maps():
    z2, z4 = cyclic_module(ZZ, 2), cyclic_module(ZZ, 4)
    phi = make_map(z4, z2, [[1]])
    with pytest.raises(InputError):
        hom_post(hom_modules(z2, z2), hom_modules(z2, z2), phi)
    with pytest.raises(InputError):
        hom_pre(hom_modules(z4, z2), hom_modules(z4, z2), phi)


@SAMPLES
@given(seed=SEEDS, ring=st.sampled_from(RINGS))
def test_hom_complex_matches_dense_oracle(seed, ring):
    rng = random.Random(seed)
    source, target = small_complex(rng, ring), small_complex(rng, ring)
    hc = hom_complex(source, target)
    assert list(hc.complex.diffs) == slow_hom_differentials(source, target)


@SAMPLES
@given(seed=SEEDS, ring=st.sampled_from(RINGS))
def test_tensor_complex_matches_dense_oracle(seed, ring):
    rng = random.Random(seed)
    left, right = small_complex(rng, ring), small_complex(rng, ring)
    tc = tensor_complex(left, right)
    assert list(tc.complex.diffs) == slow_tensor_differentials(left, right)




# ---------------------------------------------------------------------------
# the cone's structure maps and the currying witness against the oracles
# that form every map up front


def cone_ends(rng, ring, shape):
    """(src, tgt) for a cone: overlapping, disjoint or empty windows, or a
    source with a zero term inside its window."""
    if shape == "empty":
        # both empty with src.lo = tgt.lo + 1: the cone's window is empty
        lo = rng.randint(-2, 2)
        return Complex(ring, lo + 1, (), ()), Complex(ring, lo, (), ())
    if shape == "zero-term":
        mods = (random_module(rng, ring, max_gens=3), zero_module(ring),
                random_module(rng, ring, max_gens=3))
        src = Complex(ring, rng.randint(-1, 1), mods,
                      (zero_map(mods[0], mods[1]), zero_map(mods[1], mods[2])))
    else:
        src = random_complex(rng, ring, rng.randint(-1, 1), rng.randint(1, 3), max_gens=3)
    tgt_lo = src.hi + 2 if shape == "disjoint" else rng.randint(-1, 1)
    return src, random_complex(rng, ring, tgt_lo, rng.randint(1, 3), max_gens=3)


@SAMPLES
@given(seed=SEEDS, ring=st.sampled_from(RINGS),
       shape=st.sampled_from(("overlap", "disjoint", "empty", "zero-term")))
def test_cone_matches_dense_oracle(seed, ring, shape):
    rng = random.Random(seed)
    src, tgt = cone_ends(rng, ring, shape)
    f = random_chain_map(rng, src, tgt)
    c = cone(f)
    assert list(c.complex.diffs) == slow_cone_differentials(f)
    want_cx, want_incl, want_proj = slow_cone(f)
    assert c.complex == want_cx
    assert c.inclusion == want_incl
    assert c.projection == want_proj


def adjunction_triple(rng, ring, shape):
    """Three complexes: small ones, one of them zero, or spread windows."""
    if shape == "shifted":
        return tuple(random_complex(rng, ring, rng.randint(-3, 3), rng.randint(1, 2),
                                    max_gens=3) for _ in range(3))
    triple = [small_complex(rng, ring, max_length=2) for _ in range(3)]
    if shape == "zero-factor":
        triple[rng.randrange(3)] = zero_complex(ring)
    return tuple(triple)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, ring=st.sampled_from(RINGS),
       shape=st.sampled_from(("plain", "zero-factor", "shifted")))
def test_adjunction_iso_matches_whole_complex_oracle(seed, ring, shape):
    complexes = adjunction_complexes(*adjunction_triple(random.Random(seed), ring, shape))
    w = adjunction_iso(*complexes)
    slow = slow_adjunction_iso(*complexes)
    assert w.forward == slow.forward
    assert w.backward == slow.backward
    _, _, inner, _ = complexes
    forward, backward = slow_adjunction_maps(w, inner)
    assert [f.matrix for f in w.forward.components] == forward
    assert [f.matrix for f in w.backward.components] == backward
    assert validate_adjunction_witness(w)


# ---------------------------------------------------------------------------
# cost shape: what the fast paths never build


def refuse(*args, **kwargs):
    raise AssertionError("a construction the caller does not read was formed")


def refuse_everywhere(monkeypatch, name):
    """Patch name to refuse in every loaded purcat module that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("purcat") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, refuse)


def test_adjunction_iso_forms_no_map_per_basis_element(monkeypatch):
    rng = random.Random(29)
    cases = []
    for ring in RINGS:
        complexes = adjunction_complexes(
            *(random_complex(rng, ring, -1, 2, max_gens=3) for _ in range(3)))
        cases.append((complexes, slow_adjunction_iso(*complexes)))
    monkeypatch.setattr(HomModule, "to_map", refuse)
    monkeypatch.setattr(HomModule, "from_map", refuse)
    for complexes, want in cases:
        w = adjunction_iso(*complexes)
        assert w.forward == want.forward
        assert w.backward == want.backward


def test_assembly_and_resolve_form_no_discarded_summand_maps(monkeypatch):
    rng = random.Random(41)
    ring = Zmod(12)
    pairs = [(random_complex(rng, ring, -1, 3), random_complex(rng, ring, 0, 2))
             for _ in range(3)]
    sources = [random_complex(rng, ring, -1, 3) for _ in range(4)]
    contractible = [cx for r in (ZZ, ring) for cx in
                    (random_contractible(rng, r, pieces=3), random_pure_acyclic(rng, r))]
    # direct_sum forms every injection and projection of a sum
    refuse_everywhere(monkeypatch, "direct_sum")
    for side in (INJECTIVE, PROJECTIVE):
        for m in sources:
            assert validate_certificate(resolve(m, side))
    # assembly and contraction place no single summand map either
    refuse_everywhere(monkeypatch, "summand_injection")
    refuse_everywhere(monkeypatch, "summand_projection")
    for left, right in pairs:
        assert hom_complex(left, right).complex.modules
        assert tensor_complex(left, right).complex.modules
    for cx in contractible:
        assert contract_complex(cx) is not None


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_terms_outside_the_window_share_one_zero_module(ring):
    cx = random_complex(random.Random(5), ring, -1, 2)
    z = cx.module(cx.hi + 1)
    assert z is cx.module(cx.lo - 3) is zero_complex(ring).module(0) is zero_module(ring)
    dec = z.decomposition()
    assert dec.factors == ()
    assert dec.to_diag == IntMatrix.zeros(0, 0) == dec.from_diag
    assert z.is_zero() and zero_module(ring) is not zero_module(Zmod(7))
