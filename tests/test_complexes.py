"""Complex layer tests: shifts, cones, homology, truncation, minimization."""

import random
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import IntMatrix, InputError, ZZ, Zmod
from purcat.fpmod import (
    cyclic_module,
    free_module,
    identity_map,
    is_surjective,
    make_module,
    zero_module,
)
from purcat.complexes import (
    ChainMap,
    _coprime_base,
    cone,
    direct_sum_complexes,
    homology,
    homology_degrees,
    homology_invariants,
    identity_chain_map,
    minimize_complex,
    module_complex,
    reduce_complex,
    shift,
    shift_map,
    trim,
    truncate_geq,
    truncate_leq,
    zero_chain_map,
    zero_complex,
)
from purcat.homotopy import contract_complex
from purcat.resolutions import resolve, validate_certificate
from purcat.randgen import random_complex, random_contractible, random_pure_acyclic
from helpers import (
    chain_is_zero,
    complexes_equal,
    homology_map,
    is_zero_map,
    make_chain_map,
    make_complex,
    mat,
    null_homotopic_chain_map,
    slow_cone_differentials,
)

RINGS = [ZZ, Zmod(4), Zmod(6), Zmod(12)]


def two_term(ring, d, lo=0):
    z = make_module(ring, 1)
    return make_complex(ring, lo, [z, z], [mat([[d]])])


# ---------------------------------------------------------------------------
# construction and accessors


def test_make_complex_validates():
    z = free_module(ZZ, 1)
    with pytest.raises(InputError):
        make_complex(ZZ, 0, [z, z, z], [mat([[2]]), mat([[3]])])  # d.d = 6 != 0
    cx = make_complex(ZZ, 0, [z, z, z], [mat([[2]]), mat([[0]])])
    assert cx.module(0) == z
    assert cx.module(5).is_zero()
    assert cx.differential(2).tgt.is_zero()
    assert cx.hi == 2


def test_zero_and_module_complex():
    zc = zero_complex(Zmod(6))
    assert zc.modules == ()
    assert zc.hi == -1
    mc = module_complex(cyclic_module(ZZ, 3), degree=2)
    assert mc.lo == 2 and mc.hi == 2
    assert homology(mc, 2).invariant_factors == (3,)


def test_trim_removes_zero_ends():
    z = free_module(ZZ, 1)
    nul = zero_module(ZZ)
    cx = make_complex(ZZ, -1, [nul, z, nul])
    t = trim(cx)
    assert t.lo == 0 and t.hi == 0
    assert complexes_equal(t, cx)
    assert trim(make_complex(ZZ, 3, [nul, nul])).modules == ()


# ---------------------------------------------------------------------------
# chain maps


def test_make_chain_map_validates_commutation():
    c4 = two_term(ZZ, 4)
    c2 = two_term(ZZ, 2)
    f = make_chain_map(c4, c2, 0, [mat([[2]]), mat([[1]])])
    assert f.is_chain_map()
    with pytest.raises(InputError):
        make_chain_map(c4, c2, 0, [mat([[1]]), mat([[1]])])


def test_chain_map_algebra():
    c2 = two_term(ZZ, 2)
    ident = identity_chain_map(c2)
    f = make_chain_map(c2, c2, 0, [mat([[3]]), mat([[3]])])
    assert chain_is_zero(f + -f)
    assert (f + ident).equals(make_chain_map(c2, c2, 0, [mat([[4]]), mat([[4]])]))
    assert (f @ ident).equals(f)
    assert (f + f + f).equals(make_chain_map(c2, c2, 0, [mat([[9]]), mat([[9]])]))
    assert not f.equals(ident)
    assert is_zero_map(zero_chain_map(c2, c2).component(0))


# ---------------------------------------------------------------------------
# shift


def test_shift_window_and_sign():
    cx = two_term(ZZ, 2, lo=0)
    s = shift(cx, 1)
    assert s.lo == -1 and s.hi == 0
    assert s.differential(-1).matrix == mat([[-2]])
    ss = shift(s, 1)
    assert ss.differential(-2).matrix == mat([[2]])
    assert complexes_equal(shift(cx, 0), cx)
    assert complexes_equal(shift(shift(cx, 3), -3), cx)


def test_shift_homology():
    rng = random.Random(11)
    for ring in RINGS:
        cx = random_complex(rng, ring, lo=0, length=3)
        for n in [1, -2]:
            s = shift(cx, n)
            for i in range(cx.lo, cx.hi + 1):
                assert homology(s, i - n).invariant_factors == homology(cx, i).invariant_factors


def test_shift_map_is_chain_map():
    rng = random.Random(13)
    ring = Zmod(8)
    src = random_complex(rng, ring, lo=0, length=3)
    f = null_homotopic_chain_map(rng, src, src)
    assert f.is_chain_map()
    g = shift_map(f, 1)
    assert g.is_chain_map()
    assert g.src == shift(src, 1)


# ---------------------------------------------------------------------------
# cones


def test_cone_of_identity_is_acyclic():
    for ring in RINGS:
        m = make_module(ring, 2, mat([[4, 0], [1, 2]]))
        c = cone(identity_chain_map(module_complex(m, 0)))
        assert not homology_degrees(c.complex)
        assert c.inclusion.is_chain_map()
        assert c.projection.is_chain_map()


def test_cone_frozen_example():
    z = free_module(ZZ, 1)
    f = make_chain_map(module_complex(z), module_complex(z), 0, [mat([[2]])])
    c = cone(f)
    assert c.complex.lo == -1 and c.complex.hi == 0
    assert homology(c.complex, -1).is_zero()
    assert homology(c.complex, 0).invariant_factors == (2,)
    # projection to src[1] and inclusion from tgt compose to zero
    assert chain_is_zero(c.projection @ c.inclusion)


def test_cone_complex_is_built_once_per_map():
    """A second cone(f) wraps the very complex of the first; an equal but
    distinct map builds its own, equal one, and nothing is cached on an
    equal map by building the other's cone."""
    rng = random.Random(23)
    for ring in (ZZ, Zmod(12), Zmod(72)):
        src = random_complex(rng, ring, lo=-1, length=3)
        f = null_homotopic_chain_map(rng, src, random_complex(rng, ring, lo=0, length=3))
        first = cone(f)
        assert cone(f).complex is first.complex and cone(f) == first
        twin = ChainMap(f.src, f.tgt, f.lo, f.components)
        assert twin == f and twin is not f and twin._cone is None
        again = cone(twin).complex
        assert again == first.complex and again is not first.complex
        assert again.diffs == tuple(slow_cone_differentials(f))
        # the cone is no field: equal maps stay equal and hash alike
        assert hash(twin) == hash(ChainMap(f.src, f.tgt, f.lo, f.components))


def test_certificates_check_the_cone_their_producer_contracted():
    rng = random.Random(29)
    for ring, side in ((ZZ, "projective"), (Zmod(12), "injective"), (Zmod(72), "projective")):
        cert = resolve(random_complex(rng, ring, lo=-1, length=3), side)
        contracted = cert.qis_witness.src
        assert cone(cert.map).complex is contracted
        assert validate_certificate(cert)
        assert cone(cert.map).complex is contracted


def test_cone_differential_shape():
    rng = random.Random(17)
    ring = Zmod(12)
    src = random_complex(rng, ring, lo=0, length=3)
    f = null_homotopic_chain_map(rng, src, src)
    c = cone(f)
    assert c.complex.lo == -1
    for i in range(c.complex.lo, c.complex.hi):
        d1 = c.complex.differential(i)
        d2 = c.complex.differential(i + 1)
        assert is_zero_map(d2 @ d1)
    assert c.inclusion.is_chain_map()
    assert c.projection.is_chain_map()


def test_contractible_generator_is_acyclic():
    rng = random.Random(23)
    for ring in RINGS:
        cx = random_contractible(rng, ring, pieces=3)
        assert not homology_degrees(cx)


# ---------------------------------------------------------------------------
# homology


def test_homology_frozen_examples():
    c = two_term(ZZ, 2)
    assert homology(c, 0).is_zero()
    assert homology(c, 1).invariant_factors == (2,)
    z4 = cyclic_module(ZZ, 4)
    c2 = make_complex(ZZ, 0, [z4, z4], [mat([[2]])])
    assert homology(c2, 0).invariant_factors == (2,)
    assert homology(c2, 1).invariant_factors == (2,)


def test_acyclic_frozen_example():
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0 is exact
    z2, z4 = cyclic_module(ZZ, 2), cyclic_module(ZZ, 4)
    cx = make_complex(ZZ, 0, [z2, z4, z2], [mat([[2]]), mat([[1]])])
    assert not homology_degrees(cx)


def test_homology_map_frozen():
    c4 = two_term(ZZ, 4)
    c2 = two_term(ZZ, 2)
    f = make_chain_map(c4, c2, 0, [mat([[2]]), mat([[1]])])
    h = homology_map(f, 1)
    assert h.src.invariant_factors == (4,)
    assert h.tgt.invariant_factors == (2,)
    assert is_surjective(h)


def test_homology_map_functorial():
    rng = random.Random(31)
    ring = Zmod(8)
    for _ in range(6):
        a = random_complex(rng, ring, lo=0, length=3)
        f = null_homotopic_chain_map(rng, a, a)
        ident = identity_chain_map(a)
        for i in range(a.lo, a.hi + 1):
            assert homology_map(ident, i).equals(identity_map(homology(a, i)))
            lhs = homology_map(f @ f, i)
            rhs = homology_map(f, i) @ homology_map(f, i)
            assert lhs.equals(rhs)


def test_null_homotopic_maps_vanish_in_homology():
    rng = random.Random(37)
    for ring in [ZZ, Zmod(6)]:
        src = random_complex(rng, ring, lo=-1, length=3)
        tgt = random_complex(rng, ring, lo=-1, length=3)
        f = null_homotopic_chain_map(rng, src, tgt)
        assert f.is_chain_map()
        for i in range(-2, 3):
            assert is_zero_map(homology_map(f, i))


# ---------------------------------------------------------------------------
# truncation


def test_truncate_frozen():
    cx = two_term(ZZ, 2)
    t, proj = truncate_geq(cx, 1)
    assert t.lo == 1 and t.hi == 1
    assert t.module(1).invariant_factors == (2,)
    assert proj.is_chain_map()
    b, incl = truncate_leq(cx, 0)
    assert b.module(0).is_zero()
    assert incl.is_chain_map()


def test_truncate_preserves_homology():
    rng = random.Random(41)
    for ring in [ZZ, Zmod(12)]:
        for _ in range(5):
            cx = random_complex(rng, ring, lo=-2, length=4)
            n = rng.randint(-3, 2)
            t, proj = truncate_geq(cx, n)
            for i in range(cx.lo - 1, cx.hi + 2):
                if i >= n:
                    assert homology(t, i).invariant_factors == homology(cx, i).invariant_factors
                    assert homology_map(proj, i).is_well_defined()
                else:
                    assert homology(t, i).is_zero()
            b, incl = truncate_leq(cx, n)
            for i in range(cx.lo - 1, cx.hi + 2):
                if i <= n:
                    assert homology(b, i).invariant_factors == homology(cx, i).invariant_factors
                else:
                    assert homology(b, i).is_zero()


def test_truncate_geq_induced_map_iso_in_kept_degrees():
    rng = random.Random(43)
    cx = random_complex(rng, Zmod(8), lo=0, length=4)
    t, proj = truncate_geq(cx, 1)
    for i in range(1, cx.hi + 1):
        h = homology_map(proj, i)
        assert is_surjective(h)
        assert h.src.invariant_factors == h.tgt.invariant_factors


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_complexes_laws():
    rng = random.Random(47)
    ring = Zmod(6)
    parts = [random_complex(rng, ring, lo=-1, length=2),
             random_complex(rng, ring, lo=0, length=3)]
    total, injs, projs = direct_sum_complexes(parts)
    assert total.lo == -1 and total.hi == 2
    for k, part in enumerate(parts):
        assert injs[k].is_chain_map()
        assert projs[k].is_chain_map()
        assert (projs[k] @ injs[k]).equals(identity_chain_map(part))
    assert chain_is_zero(projs[0] @ injs[1])
    ident = injs[0] @ projs[0] + injs[1] @ projs[1]
    assert ident.equals(identity_chain_map(total))
    for i in range(-1, 3):
        hs = homology(total, i)
        expect = sorted(homology(parts[0], i).invariant_factors
                        + homology(parts[1], i).invariant_factors)
        assert sorted(hs.invariant_factors) == expect


# ---------------------------------------------------------------------------
# minimization


def test_minimize_complex_round_trip():
    rng = random.Random(53)
    for ring in RINGS:
        for _ in range(4):
            cx = random_complex(rng, ring, lo=0, length=3, max_gens=3, max_rels=3)
            mini, to, back = minimize_complex(cx)
            assert to.is_chain_map()
            assert back.is_chain_map()
            assert (to @ back).equals(identity_chain_map(mini))
            assert (back @ to).equals(identity_chain_map(cx))
            for k, m in enumerate(mini.modules):
                assert m.generators == len(m.invariant_factors)
            for i in range(cx.lo, cx.hi + 1):
                assert homology(mini, i).invariant_factors == homology(cx, i).invariant_factors


# ---------------------------------------------------------------------------
# reduction


def cyclic_factors(mod):
    """The a_i of a term presented as R/(a_1) (+) ... (+) R/(a_k): each
    relation column has one nonzero entry, and a generator with none is
    free."""
    factors = [mod.ring.modulus or 0] * mod.generators
    for col in range(mod.relations.cols):
        (i,) = [r for r in range(mod.generators) if mod.relations.at(r, col)]
        factors[i] = mod.relations.at(i, col)
    return factors


def reduction_input(rng, ring, kind):
    if kind == "random":
        return random_complex(rng, ring, rng.randint(-2, 1), rng.randint(1, 5),
                              max_gens=3, max_rels=3)
    if kind == "contractible":
        return random_contractible(rng, ring, pieces=3)
    return random_pure_acyclic(rng, ring)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from((ZZ, Zmod(8), Zmod(12), Zmod(72))),
       kind=st.sampled_from(("random", "contractible", "pure acyclic")))
def test_reduce_complex_is_a_homotopy_equivalence_with_no_unit_left(seed, ring, kind):
    cx = reduction_input(random.Random(seed), ring, kind)
    red, to, back, s = reduce_complex(cx)
    assert to.is_chain_map() and back.is_chain_map()
    ident = to @ back
    assert ident.equals(identity_chain_map(red))
    if ring == Zmod(8):
        # over Z/p^k nothing splits, so to . back is the identity matrix
        for i in range(red.lo, red.hi + 1):
            assert ident.component(i).matrix == IntMatrix.identity(red.module(i).generators)
    assert s.witnesses(identity_chain_map(cx), back @ to)
    assert contract_complex(cone(to).complex) is not None
    assert homology_invariants(red) == homology_invariants(cx)
    if kind != "random":
        assert all(m.is_zero() for m in red.modules)
    for d in red.diffs:
        # no summand X is left whose entries in the rows of its order have
        # a unit gcd, which the Euclid step would cancel
        src, tgt = cyclic_factors(d.src), cyclic_factors(d.tgt)
        for x, a in enumerate(src):
            g = gcd(*(d.matrix.at(y, x) for y, b in enumerate(tgt) if b == a))
            assert not (g == 1 if a == 0 else gcd(g, a) == 1)
    assert reduce_complex(cx) == (red, to, back, s)
    # the terms are minimal, so the tower steps that resolve red do not
    # minimize them again: minimizing changes nothing
    assert minimize_complex(red) == (red, identity_chain_map(red), identity_chain_map(red))


def test_the_coprime_base_of_chained_semiprimes_is_quick():
    # p_i the primes from 10^6 + 3, orders p_i p_(i+1): each order shares a
    # prime with the last, so a base that restarts its scan on every split
    # does cubic work
    primes, n = [], 10 ** 6 + 3
    while len(primes) < 1001:
        if all(n % d for d in range(3, int(n ** 0.5) + 1, 2)):
            primes.append(n)
        n += 2
    orders = [p * q for p, q in zip(primes, primes[1:])]
    start = time.perf_counter()
    base = _coprime_base(orders)
    assert time.perf_counter() - start < 1
    assert sorted(base) == primes
