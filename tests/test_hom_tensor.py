"""Hom and tensor complexes: signs, slots, induced maps, counting oracles."""

import itertools
import random

import pytest

from purcat.exact_linalg import IntMatrix, ZZ, Zmod
from purcat.fpmod import (
    cyclic_module,
    free_module,
    hom_modules,
    make_module,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Homotopy,
    hom_complex,
    homology,
    homology_invariants,
    module_complex,
    tensor_complex,
    tensor_fixed_left_map,
    tensor_fixed_right_map,
    tensor_module_complex,
    truncate_leq_map,
    zero_homotopy,
)
from purcat.randgen import (
    random_chain_map,
    random_complex,
    random_homotopy,
    random_map,
    random_module,
    random_pure_qis,
)
from helpers import (
    _encode,
    enumerate_module_elements,
    hom_module_chain_map,
    hom_module_complex,
    hom_post_chain_map,
    hom_pre_chain_map,
    make_complex,
    make_homotopy,
    mat,
    slow_tensor_module_chain_map,
    slow_tensor_module_complex,
    tensor_module_chain_map,
    truncate_geq_map,
)

RINGS = [ZZ, Zmod(4), Zmod(12)]


def two_term(ring, d, lo=0):
    z = make_module(ring, 1)
    return make_complex(ring, lo, [z, z], [mat([[d]])])


def assert_square_zero(cx):
    for i in range(cx.lo, cx.hi):
        comp = cx.differential(i + 1) @ cx.differential(i)
        assert comp.is_zero(), f"d.d != 0 at degree {i}"


def all_elements(mod):
    """Generator-coordinate columns of every element of a finite module."""
    dec = mod.decomposition()
    for diag in enumerate_module_elements(dec.factors):
        col = dec.from_diag @ IntMatrix.column_vector(list(diag))
        yield mod.ring.reduce_matrix(col)


# ---------------------------------------------------------------------------
# homotopies


def test_homotopy_boundary_is_chain_map():
    rng = random.Random(5)
    for ring in RINGS:
        for _ in range(6):
            a = random_complex(rng, ring, -1, 3)
            b = random_complex(rng, ring, -1, 3)
            h = random_homotopy(rng, a, b)
            assert h.boundary().is_chain_map()


def test_homotopy_witnesses():
    rng = random.Random(7)
    a = random_complex(rng, Zmod(4), 0, 3)
    b = random_complex(rng, Zmod(4), 0, 3)
    h = random_homotopy(rng, a, b)
    f = h.boundary()
    assert h.witnesses(f)
    g = random_chain_map(rng, a, b)
    assert h.witnesses(f + g, g)
    assert zero_homotopy(a, b).witnesses(f) == f.is_zero()


def test_make_homotopy_rejects_bad_shapes():
    a = two_term(ZZ, 2)
    with pytest.raises(Exception):
        make_homotopy(a, a, 1, [mat([[1, 0]])])


# ---------------------------------------------------------------------------
# hom complex structure


def test_hom_complex_square_zero():
    rng = random.Random(11)
    for ring in RINGS:
        for _ in range(4):
            a = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 3))
            b = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 3))
            assert_square_zero(hom_complex(a, b).complex)


def test_hom_complex_window():
    a = two_term(ZZ, 2, lo=1)
    b = two_term(ZZ, 3, lo=-1)
    hc = hom_complex(a, b)
    assert hc.complex.lo == -3
    assert hc.complex.hi == -1


def test_hom_from_ring_recovers_target():
    rng = random.Random(13)
    for ring in RINGS:
        unit = module_complex(free_module(ring, 1), 0)
        b = random_complex(rng, ring, -1, 3)
        hc = hom_complex(unit, b)
        assert homology_invariants(hc.complex) == homology_invariants(b)


def test_hom_element_round_trip():
    rng = random.Random(17)
    a = random_complex(rng, Zmod(12), 0, 3)
    b = random_complex(rng, Zmod(12), -1, 3)
    hc = hom_complex(a, b)
    for i in range(hc.complex.lo, hc.complex.hi + 1):
        mod = hc.complex.module(i)
        for _ in range(3):
            fam = {j: random_map(rng, a.module(j), b.module(i + j))
                   for j, _, _, _ in hc.slots(i)}
            col = _encode(hc, i, fam)
            back = hc.element_components(i, col)
            for j, f in fam.items():
                assert back[j].equals(f)
            again = _encode(hc, i, back)
            assert mod.contains_in_relations(col - again)


def test_hom_degree_zero_cocycles_are_chain_maps():
    rng = random.Random(19)
    for _ in range(8):
        a = random_complex(rng, Zmod(4), 0, 2)
        b = random_complex(rng, Zmod(4), 0, 2)
        hc = hom_complex(a, b)
        d0 = hc.complex.differential(0)
        for col in all_elements(hc.complex.module(0)):
            fam = hc.element_components(0, col)
            comps = [fam.get(i, zero_map(a.module(i), b.module(i)))
                     for i in range(a.lo, a.hi + 1)]
            f = ChainMap(a, b, a.lo, tuple(comps))
            cocycle = d0.tgt.contains_in_relations(d0.matrix @ col)
            assert f.is_chain_map() == cocycle


def test_hom_degree_minus_one_boundary_matches_homotopy():
    rng = random.Random(23)
    for _ in range(6):
        a = random_complex(rng, Zmod(4), 0, 2)
        b = random_complex(rng, Zmod(4), 0, 2)
        hc = hom_complex(a, b)
        dm1 = hc.complex.differential(-1)
        for col in itertools.islice(all_elements(hc.complex.module(-1)), 12):
            sfam = hc.element_components(-1, col)
            comps = [sfam.get(i, zero_map(a.module(i), b.module(i - 1)))
                     for i in range(a.lo, a.hi + 1)]
            h = Homotopy(a, b, a.lo, tuple(comps))
            ffam = hc.element_components(0, dm1.matrix @ col)
            want = h.boundary()
            for j, f in ffam.items():
                assert f.equals(want.component(j))


def count_elements(mod, pred=None):
    n = 0
    for col in all_elements(mod):
        if pred is None or pred(col):
            n += 1
    return n


def test_hom_counting_oracle():
    """|Z^0| chain maps, |H^0| homotopy classes, via brute enumeration."""
    rng = random.Random(29)
    for _ in range(5):
        a = random_complex(rng, Zmod(4), 0, 2, max_gens=1, max_rels=1)
        b = random_complex(rng, Zmod(4), 0, 2, max_gens=1, max_rels=1)
        hc = hom_complex(a, b)
        cx = hc.complex

        # direct count of chain maps, fully independent of the hom complex
        homs = [hom_modules(a.module(i), b.module(i)) for i in range(a.lo, a.hi + 1)]
        brute = 0
        for cols in itertools.product(*(all_elements(h.module) for h in homs)):
            fs = [h.to_map([c.at(r, 0) for r in range(c.rows)])
                  for h, c in zip(homs, cols)]
            f = ChainMap(a, b, a.lo, tuple(fs))
            if f.is_chain_map():
                brute += 1

        d0 = cx.differential(0)
        z0 = count_elements(cx.module(0),
                            lambda col: d0.tgt.contains_in_relations(d0.matrix @ col))
        assert brute == z0

        dm1 = cx.differential(-1)
        hm1 = count_elements(cx.module(-1))
        zm1 = count_elements(cx.module(-1),
                             lambda col: dm1.tgt.contains_in_relations(dm1.matrix @ col))
        b0 = hm1 // zm1
        h0_size = 1
        for f in homology(cx, 0).invariant_factors:
            h0_size *= f
        assert h0_size * b0 == z0


# ---------------------------------------------------------------------------
# tensor complex structure


def test_tensor_complex_square_zero():
    rng = random.Random(31)
    for ring in RINGS:
        for _ in range(4):
            a = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 3))
            b = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 3))
            assert_square_zero(tensor_complex(a, b).complex)


def test_tensor_frozen_example():
    a = two_term(ZZ, 2)
    tc = tensor_complex(a, a).complex
    assert homology(tc, 0).is_zero()
    assert homology(tc, 1).invariant_factors == (2,)
    assert homology(tc, 2).invariant_factors == (2,)


def test_tensor_with_unit_recovers_complex():
    rng = random.Random(37)
    for ring in RINGS:
        unit = module_complex(free_module(ring, 1), 0)
        b = random_complex(rng, ring, -1, 3)
        tc = tensor_complex(unit, b)
        assert homology_invariants(tc.complex) == homology_invariants(b)
        tc = tensor_complex(b, unit)
        assert homology_invariants(tc.complex) == homology_invariants(b)


# ---------------------------------------------------------------------------
# induced maps


def test_hom_post_and_pre_are_chain_maps():
    rng = random.Random(41)
    for _ in range(5):
        a = random_complex(rng, Zmod(12), -1, 3)
        m = random_complex(rng, Zmod(12), 0, 2)
        n = random_complex(rng, Zmod(12), -1, 2)
        u = random_chain_map(rng, m, n)
        post = hom_post_chain_map(hom_complex(a, m), hom_complex(a, n), u)
        assert post.is_chain_map()
        pre = hom_pre_chain_map(hom_complex(n, a), hom_complex(m, a), u)
        assert pre.is_chain_map()


def test_hom_post_decodes_to_composition():
    rng = random.Random(43)
    a = random_complex(rng, Zmod(4), 0, 2)
    m = random_complex(rng, Zmod(4), 0, 2)
    n = random_complex(rng, Zmod(4), 0, 2)
    u = random_chain_map(rng, m, n)
    src_hc = hom_complex(a, m)
    tgt_hc = hom_complex(a, n)
    post = hom_post_chain_map(src_hc, tgt_hc, u)
    for col in itertools.islice(all_elements(src_hc.complex.module(0)), 10):
        fam = src_hc.element_components(0, col)
        out = tgt_hc.element_components(0, post.component(0).matrix @ col)
        for j in out:
            want = u.component(j) @ fam[j]
            assert out[j].equals(want)


def test_tensor_fixed_maps_are_chain_maps():
    rng = random.Random(47)
    for _ in range(5):
        a = random_complex(rng, Zmod(12), -1, 3)
        m = random_complex(rng, Zmod(12), 0, 2)
        n = random_complex(rng, Zmod(12), -1, 2)
        u = random_chain_map(rng, m, n)
        left = tensor_fixed_left_map(tensor_complex(a, m), tensor_complex(a, n), u)
        assert left.is_chain_map()
        right = tensor_fixed_right_map(tensor_complex(m, a), tensor_complex(n, a), u)
        assert right.is_chain_map()


def test_termwise_module_functors():
    rng = random.Random(53)
    q = cyclic_module(Zmod(12), 4)
    for _ in range(4):
        a = random_complex(rng, Zmod(12), -1, 3)
        b = random_complex(rng, Zmod(12), -1, 3)
        f = random_chain_map(rng, a, b)
        ta = tensor_module_complex(a, q)
        assert_square_zero(ta)
        tf = tensor_module_chain_map(f, q)
        assert tf.is_chain_map()
        ha = hom_module_complex(q, a)
        assert_square_zero(ha)
        hf = hom_module_chain_map(q, f)
        assert hf.is_chain_map()


@pytest.mark.parametrize("ring", [ZZ, Zmod(12), Zmod(72)])
def test_termwise_tensor_matches_tensor_map(ring):
    rng = random.Random(61)
    for _ in range(6):
        a = random_complex(rng, ring, -1, 3)
        b = random_complex(rng, ring, -1, 3)
        f = random_chain_map(rng, a, b)
        q = random_module(rng, ring, max_gens=2)
        assert tensor_module_complex(a, q) == slow_tensor_module_complex(a, q)
        assert tensor_module_chain_map(f, q) == slow_tensor_module_chain_map(f, q)


def test_truncation_induced_maps_commute():
    rng = random.Random(59)
    for _ in range(5):
        a = random_complex(rng, Zmod(8), -1, 4)
        b = random_complex(rng, Zmod(8), -1, 4)
        f = random_chain_map(rng, a, b)
        n = rng.randint(-1, 2)
        g, (ts, incl_s), (tt, incl_t) = truncate_leq_map(f, n)
        assert g.is_chain_map()
        assert (incl_t @ g).equals(f @ incl_s)
        g, (ts, proj_s), (tt, proj_t) = truncate_geq_map(f, n)
        assert g.is_chain_map()
        assert (g @ proj_s).equals(proj_t @ f)


# ---------------------------------------------------------------------------
# random generators built on the hom complex


def test_random_chain_map_is_chain_map():
    rng = random.Random(61)
    for ring in RINGS:
        for _ in range(6):
            a = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 3))
            b = random_complex(rng, ring, rng.randint(-2, 0), rng.randint(1, 3))
            f = random_chain_map(rng, a, b)
            assert f.is_chain_map()


def test_random_chain_map_reaches_outside_boundaries():
    """Some sampled map must not be null-homotopic."""
    rng = random.Random(67)
    a = module_complex(cyclic_module(Zmod(4), 2), 0)
    found = False
    for _ in range(20):
        f = random_chain_map(rng, a, a)
        if not f.is_zero():
            found = True
    assert found


def test_random_pure_qis_shape():
    rng = random.Random(71)
    for _ in range(5):
        a = random_complex(rng, Zmod(12), -1, 3)
        u = random_pure_qis(rng, a)
        assert u.src == a
        assert u.is_chain_map()
