"""Closed-form hom functoriality and block assembly against slow oracles.

hom_post/hom_pre read every induced slot off one change-of-basis
product, and maps between direct sums are placed block by block; the
oracles in helpers.py build the same matrices from full maps and dense
inj . x . proj sums.  The results must agree entry for entry.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import IntMatrix, InputError, WorkbenchError, ZZ, Zmod
from purcat.fpmod import cyclic_module, hom_modules, hom_post, hom_pre, make_map
from purcat.complexes import cone, hom_complex, tensor_complex
from purcat.monoidal import adjunction_iso, validate_adjunction_witness
from purcat.randgen import random_chain_map, random_complex, random_map, random_module
from helpers import (
    adjunction_complexes,
    slow_adjunction_maps,
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
def test_cone_matches_dense_oracle(seed, ring):
    rng = random.Random(seed)
    src, tgt = small_complex(rng, ring), small_complex(rng, ring)
    f = random_chain_map(rng, src, tgt)
    assert list(cone(f).complex.diffs) == slow_cone_differentials(f)


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


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, ring=st.sampled_from(RINGS))
def test_adjunction_iso_matches_whole_complex_oracle(seed, ring):
    rng = random.Random(seed)
    a, b, c = (small_complex(rng, ring, max_length=2) for _ in range(3))
    w = adjunction_iso(*adjunction_complexes(a, b, c))
    forward, backward = slow_adjunction_maps(w)
    assert [f.matrix for f in w.forward.components] == forward
    assert [f.matrix for f in w.backward.components] == backward
    assert validate_adjunction_witness(w)
