"""Module calculus tests: presentations, maps, hom/tensor, exactness.

Finite cases over Z/m are checked against brute enumeration of module
elements; over Z we rely on frozen hand-computed examples plus the
structural identities (factorizations, universal properties).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from purcat.exact_linalg import IntMatrix, WorkbenchError, ZZ, Zmod, hstack, lincomb, solve_linear
from purcat.fpmod import (
    FpModule,
    IllDefinedMap,
    MapSolver,
    NotMono,
    _induced,
    block_map,
    canonical_form,
    cokernel,
    cyclic_module,
    direct_sum,
    factor_through_mono,
    free_module,
    has_retraction,
    hom_modules,
    hom_post,
    hom_pre,
    identity_map,
    is_injective,
    is_surjective,
    kernel,
    lincomb_in_relations,
    make_map,
    make_module,
    retraction,
    tensor_map,
    tensor_modules,
    zero_module,
)
from helpers import (
    enumerate_module_elements,
    factor_through_epi,
    is_zero_map,
    mat,
    pullback,
    pushout,
    short_exact_sequence,
    slow_contains_in_relations,
    slow_decomposition,
    slow_hom_post,
    slow_hom_pre,
    slow_induced,
    slow_lincomb,
    slow_lincomb_in_relations,
    slow_retraction,
)

RINGS = [ZZ, Zmod(2), Zmod(5), Zmod(6), Zmod(8), Zmod(12)]
THREE_RINGS = [ZZ, Zmod(12), Zmod(72)]


def module_size(module):
    """Number of elements, or None when infinite."""
    n = 1
    for a in module.invariant_factors:
        if a == 0:
            return None
        n *= a
    return n


def random_module(rng, ring, max_gens=3, max_rels=3):
    g = rng.randint(0, max_gens)
    r = rng.randint(0, max_rels)
    rel = mat([[rng.randint(-6, 6) for _ in range(r)] for _ in range(g)]) \
        if g and r else IntMatrix.zeros(g, r)
    return make_module(ring, g, rel)


def random_hom_element(rng, hom):
    coords = []
    for slot in hom.slots:
        if slot.order == 0:
            coords.append(rng.randint(-4, 4))
        else:
            coords.append(rng.randint(0, slot.order - 1))
    return coords


def random_map(rng, src, tgt):
    hom = hom_modules(src, tgt)
    return hom.to_map(random_hom_element(rng, hom))


# ---------------------------------------------------------------------------
# presentations


def test_invariant_factors_frozen():
    m = make_module(ZZ, 2, mat([[2, 0], [0, 3]]))
    assert m.invariant_factors == (6,)
    assert not m.is_zero()
    assert m.is_torsion()
    assert free_module(ZZ, 2).invariant_factors == (0, 0)
    assert not free_module(ZZ, 1).is_torsion()
    assert zero_module(Zmod(6)).is_zero()
    assert cyclic_module(Zmod(6), 4).invariant_factors == (2,)
    assert cyclic_module(Zmod(6), 1).is_zero()
    assert make_module(Zmod(4), 1).invariant_factors == (4,)


@pytest.mark.parametrize("ring", RINGS)
def test_membership_matches_solver(ring):
    rng = random.Random(101 + (ring.modulus or 0))
    for _ in range(40):
        m = random_module(rng, ring)
        if m.generators == 0:
            continue
        x = mat([[rng.randint(-9, 9)] for _ in range(m.generators)])
        x = ring.reduce_matrix(x)
        fast = m.contains_in_relations(x)
        slow = solve_linear(m.relations, x, ring) is not None
        assert fast == slow, f"membership disagrees on {x} in {m}"


@st.composite
def membership_cases(draw):
    """(module, columns): relations with at most one nonzero entry per
    column, or arbitrary ones; shapes 0..6, empty rows and columns, and
    negative, unreduced and m-divisible entries in both the relations
    and the columns, a column of the span or a perturbed one."""
    ring = draw(st.sampled_from(THREE_RINGS))
    m = ring.modulus or 12
    entry = st.one_of(st.sampled_from((0, 0, 1, -1, 2, m, -m, 2 * m + 3, m // 2, m // 3)),
                      st.integers(-3 * m, 3 * m))
    g, r = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    monomial = draw(st.booleans())
    rows = [[0] * r for _ in range(g)]
    for j in range(r if g else 0):
        if monomial:
            rows[draw(st.integers(0, g - 1))][j] = draw(entry)
        else:
            for i in range(g):
                rows[i][j] = draw(entry)
    rel = IntMatrix(g, r, tuple(map(tuple, rows)))
    module = make_module(ring, g, rel) if draw(st.booleans()) else FpModule(ring, g, rel)
    k = draw(st.integers(0, 3))
    coeffs = IntMatrix(r, k, tuple(tuple(draw(entry) for _ in range(k)) for _ in range(r)))
    noise = IntMatrix(g, k, tuple(tuple(draw(st.sampled_from((0, 0, 0, 1, m, -m * 5, 7)))
                                        for _ in range(k)) for _ in range(g)))
    # summed over Z, so the entries stay unreduced
    return module, slow_lincomb(g, k, ((1, rel, coeffs), (1, noise)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(membership_cases())
def test_membership_matches_the_decomposition_oracle(case):
    module, cols = case
    assert module.contains_in_relations(cols) == slow_contains_in_relations(module, cols), (
        f"{cols.data} in {module.relations.data} over {module.ring}")
    assert module.decomposition() == slow_decomposition(module)


@st.composite
def lincomb_cases(draw):
    """(module, cols, terms): a module of membership_cases and up to four
    terms (c,), (c, A), (c, A, B) or with a None matrix, entries far outside
    0..m-1; half the time a last pair of terms moves the sum into the
    relation span, maybe off it again by a small perturbation."""
    module, _ = draw(membership_cases())
    g, rel = module.generators, module.relations
    m = module.ring.modulus or 12
    entry = st.integers(-3 * m, 3 * m)
    k = draw(st.integers(0, 3))

    def matrix(rows, cols):
        return IntMatrix(rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                           for _ in range(rows)))

    terms = []
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.sampled_from((1, -1, 2, m, -m - 1)))
        kind = draw(st.sampled_from(("id", "one", "two", "none")))
        if kind == "id" and k == g:
            terms.append((c,))
        elif kind == "one":
            terms.append((c, matrix(g, k)))
        elif kind == "two":
            inner = draw(st.integers(0, 3))
            terms.append((c, matrix(g, inner), matrix(inner, k)))
        elif kind == "none":
            terms.append((c, None, matrix(3, k)))
    if draw(st.booleans()):
        terms += [(-1, slow_lincomb(g, k, terms)), (1, rel, matrix(rel.cols, k))]
        if draw(st.booleans()):
            terms.append((1, IntMatrix(g, k, tuple(tuple(draw(st.sampled_from((0, 0, 1, m)))
                                                          for _ in range(k))
                                                    for _ in range(g)))))
    return module, k, terms


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lincomb_cases())
def test_lincomb_matches_the_compose_then_compare_oracle(case):
    """The fused sum and its one membership test against the old path:
    the difference map from dense products, then Smith membership.  A
    module with at most one nonzero relation entry per column is decided
    per generator, without its Smith form."""
    module, k, terms = case
    ring, g = module.ring, module.generators
    assert lincomb(ring, g, k, terms) == ring.reduce_matrix(slow_lincomb(g, k, terms))
    fast = lincomb_in_relations(module, k, terms)
    assert fast == slow_lincomb_in_relations(module, k, terms), (terms, module)
    monomial = all(len(col) - col.count(0) <= 1 for col in zip(*module.relations.data))
    if g and k:
        assert bool(module._gcds) == monomial
        assert (module._decomp is None) == monomial


def test_canonical_form_round_trip():
    rng = random.Random(7)
    for ring in RINGS:
        for _ in range(15):
            m = random_module(rng, ring)
            mini, to_min, from_min = canonical_form(m)
            assert mini.invariant_factors == m.invariant_factors
            assert mini.generators == len(m.invariant_factors)
            assert (to_min @ from_min).equals(identity_map(mini))
            assert (from_min @ to_min).equals(identity_map(m))


# ---------------------------------------------------------------------------
# maps


def test_make_map_checks_well_definedness():
    z2 = cyclic_module(ZZ, 2)
    z4 = cyclic_module(ZZ, 4)
    # doubling Z/2 -> Z/4 is fine, identity matrix is not
    make_map(z2, z4, [[2]])
    with pytest.raises(IllDefinedMap):
        make_map(z2, z4, [[1]])
    # into the integers nothing nonzero is allowed from torsion
    with pytest.raises(IllDefinedMap):
        make_map(z2, free_module(ZZ, 1), [[3]])
    make_map(z2, free_module(ZZ, 1), [[0]])


def test_map_algebra():
    z6 = cyclic_module(ZZ, 6)
    f = make_map(z6, z6, [[2]])
    g = make_map(z6, z6, [[5]])
    assert (f + g).equals(make_map(z6, z6, [[1]]))
    assert (f @ g).equals(make_map(z6, z6, [[4]]))
    assert is_zero_map(f + -f)
    assert (-f).equals(make_map(z6, z6, [[4]]))
    assert f.scale(3).equals(make_map(z6, z6, [[0]]))
    # equality is modulo target relations
    assert make_map(z6, z6, [[8]]).equals(f)


# ---------------------------------------------------------------------------
# kernel / cokernel / image


def test_kernel_frozen_examples():
    z = free_module(ZZ, 1)
    z2 = cyclic_module(ZZ, 2)
    proj = make_map(z, z2, [[1]])
    k, incl = kernel(proj)
    assert k.invariant_factors == (0,)
    assert is_injective(incl)
    assert is_zero_map(proj @ incl)
    # the kernel of multiplication by 2 on Z/4 is 2Z/4 = Z/2
    z4 = cyclic_module(ZZ, 4)
    twice = make_map(z4, z4, [[2]])
    k2, incl2 = kernel(twice)
    assert k2.invariant_factors == (2,)
    assert is_zero_map(twice @ incl2)


def test_cokernel_frozen_examples():
    z = free_module(ZZ, 1)
    two = make_map(z, z, [[2]])
    c, proj = cokernel(two)
    assert c.invariant_factors == (2,)
    assert is_surjective(proj)
    assert is_zero_map(proj @ two)


@pytest.mark.parametrize("modulus", [2, 6, 8, 12])
def test_kernel_image_cokernel_sizes(modulus):
    ring = Zmod(modulus)
    rng = random.Random(500 + modulus)
    for _ in range(25):
        src = random_module(rng, ring)
        tgt = random_module(rng, ring)
        f = random_map(rng, src, tgt)
        k, incl = kernel(f)
        c, proj = cokernel(f)
        assert is_zero_map(f @ incl)
        assert is_zero_map(proj @ f)
        # |im f| = |src| / |ker f| = |tgt| / |coker f|
        assert module_size(k) * module_size(tgt) == module_size(src) * module_size(c)


@pytest.mark.parametrize("modulus", [4, 6])
def test_kernel_is_exhaustive(modulus):
    """Every element killed by f is hit by the kernel inclusion."""
    ring = Zmod(modulus)
    rng = random.Random(42 + modulus)
    for _ in range(12):
        src = random_module(rng, ring, max_gens=2, max_rels=2)
        tgt = random_module(rng, ring, max_gens=2, max_rels=2)
        f = random_map(rng, src, tgt)
        k, incl = kernel(f)
        for elt in enumerate_module_elements([modulus] * src.generators):
            x = mat([[v] for v in elt]) if src.generators else IntMatrix.zeros(0, 1)
            fx = ring.reduce_matrix(f.matrix @ x)
            if not tgt.contains_in_relations(fx):
                continue
            # x must be in the image of incl modulo src relations
            stacked = hstack(incl.matrix, src.relations) \
                if src.relations.cols else incl.matrix
            assert solve_linear(stacked, x, ring) is not None, \
                f"kernel misses {elt} for f={f.matrix.data}"


# ---------------------------------------------------------------------------
# direct sums


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)])
def test_direct_sum_biproduct_laws(ring):
    mods = [cyclic_module(ring, 2), free_module(ring, 2), cyclic_module(ring, 3)]
    s, injs, projs = direct_sum(mods)
    assert s.generators == 4
    for i, mi in enumerate(mods):
        for j, mj in enumerate(mods):
            comp = projs[j] @ injs[i]
            if i == j:
                assert comp.equals(identity_map(mi))
            else:
                assert is_zero_map(comp)
    total = None
    for inj, proj in zip(injs, projs):
        term = inj @ proj
        total = term if total is None else total + term
    assert total.equals(identity_map(s))


# ---------------------------------------------------------------------------
# tensor


def test_tensor_frozen_examples():
    z4 = cyclic_module(ZZ, 4)
    z6 = cyclic_module(ZZ, 6)
    assert tensor_modules(z4, z6).invariant_factors == (2,)
    z = free_module(ZZ, 1)
    assert tensor_modules(z, z6).invariant_factors == z6.invariant_factors
    assert tensor_modules(free_module(ZZ, 2), free_module(ZZ, 3)).invariant_factors \
        == (0,) * 6


def test_tensor_map_functorial():
    rng = random.Random(9)
    ring = Zmod(12)
    for _ in range(10):
        a, b, c = (random_module(rng, ring, max_gens=2) for _ in range(3))
        a2, b2 = (random_module(rng, ring, max_gens=2) for _ in range(2))
        f = random_map(rng, a, b)
        g = random_map(rng, b, c)
        u = random_map(rng, a2, b2)
        left = tensor_map(g @ f, u)
        # interchange with (g x id) . (f x u) composed in stages
        right = tensor_map(g, identity_map(b2)) @ tensor_map(f, u)
        assert left.equals(right)
        assert tensor_map(identity_map(a), identity_map(a2)) \
            .equals(identity_map(tensor_modules(a, a2)))


def test_tensor_map_well_defined():
    rng = random.Random(19)
    for ring in [ZZ, Zmod(8)]:
        for _ in range(10):
            a, b = random_module(rng, ring), random_module(rng, ring)
            c, d = random_module(rng, ring), random_module(rng, ring)
            f = random_map(rng, a, b)
            g = random_map(rng, c, d)
            assert tensor_map(f, g).is_well_defined()


# ---------------------------------------------------------------------------
# hom


def test_hom_frozen_examples():
    z4 = cyclic_module(ZZ, 4)
    z6 = cyclic_module(ZZ, 6)
    assert hom_modules(z4, z6).invariant_factors == (2,)
    z = free_module(ZZ, 1)
    assert hom_modules(z4, z).invariant_factors == ()
    assert hom_modules(z, z6).module.invariant_factors == z6.invariant_factors
    assert hom_modules(free_module(ZZ, 2), free_module(ZZ, 2)).invariant_factors \
        == (0,) * 4


@pytest.mark.parametrize("modulus", [2, 4, 6, 12])
def test_hom_order_matches_enumeration(modulus):
    """|Hom(A, B)| equals the brute count of homomorphisms."""
    ring = Zmod(modulus)
    rng = random.Random(300 + modulus)
    for _ in range(12):
        a = random_module(rng, ring, max_gens=2, max_rels=2)
        b = random_module(rng, ring, max_gens=2, max_rels=2)
        hom = hom_modules(a, b)
        bf = b.decomposition().factors
        expected = 1
        for fa in a.decomposition().factors:
            # elements y of B with fa * y = 0
            count = 0
            for elt in enumerate_module_elements(list(bf)):
                if all((fa * y) % fb == 0 for y, fb in zip(elt, bf)):
                    count += 1
            expected *= count
        assert module_size(hom.module) == expected


def test_hom_round_trip_and_injectivity():
    rng = random.Random(77)
    for ring in RINGS:
        for _ in range(10):
            a = random_module(rng, ring, max_gens=2)
            b = random_module(rng, ring, max_gens=2)
            hom = hom_modules(a, b)
            coords = random_hom_element(rng, hom)
            f = hom.to_map(coords)
            assert f.is_well_defined()
            back = hom.from_map(f)
            # compare inside the hom module
            diff = mat([[x - y] for x, y in zip(coords, back)]) \
                if hom.slots else IntMatrix.zeros(0, 1)
            assert hom.module.contains_in_relations(diff)
            assert hom.to_map(back).equals(f)


def test_hom_zero_iff_no_slots():
    z2 = cyclic_module(ZZ, 2)
    z3 = cyclic_module(ZZ, 3)
    hom = hom_modules(z2, z3)
    assert hom.module.is_zero()
    assert is_zero_map(hom.to_map([])) if not hom.slots else True


def test_hom_post_pre_functorial():
    rng = random.Random(131)
    ring = Zmod(8)
    for _ in range(8):
        a = random_module(rng, ring, max_gens=2)
        b = random_module(rng, ring, max_gens=2)
        b2 = random_module(rng, ring, max_gens=2)
        a2 = random_module(rng, ring, max_gens=2)
        phi = random_map(rng, b, b2)
        psi = random_map(rng, a2, a)
        hom_ab = hom_modules(a, b)
        hom_ab2 = hom_modules(a, b2)
        hom_a2b = hom_modules(a2, b)
        post = hom_post(hom_ab, hom_ab2, phi)
        pre = hom_pre(hom_ab, hom_a2b, psi)
        assert post.is_well_defined()
        assert pre.is_well_defined()
        coords = random_hom_element(rng, hom_ab)
        f = hom_ab.to_map(coords)
        # applying the induced matrix = composing then re-reading coordinates
        via_post = hom_ab2.to_map(
            [sum(post.matrix.at(i, j) * coords[j] for j in range(len(coords)))
             for i in range(len(hom_ab2.slots))])
        assert via_post.equals(phi @ f)
        via_pre = hom_a2b.to_map(
            [sum(pre.matrix.at(i, j) * coords[j] for j in range(len(coords)))
             for i in range(len(hom_a2b.slots))])
        assert via_pre.equals(f @ psi)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(THREE_RINGS))
def test_induced_maps_match_the_dense_slot_walk(seed, ring):
    # _induced visits only the slot pairs with nonzero change-of-basis
    # entries; the oracles visit every pair, or build every full map
    rng = random.Random(seed)
    a, a2, b, b2 = (random_module(rng, ring, max_gens=4) for _ in range(4))
    phi, psi = random_map(rng, b, b2), random_map(rng, a2, a)
    hm, post_tgt, pre_tgt = hom_modules(a, b), hom_modules(a, b2), hom_modules(a2, b)
    post = hom_post(hm, post_tgt, phi)
    t = b2.decomposition().to_diag @ phi.matrix @ b.decomposition().from_diag
    assert post == slow_induced(hm, post_tgt, t, IntMatrix.identity(a.generators))
    assert post == slow_hom_post(hm, post_tgt, phi)
    pre = hom_pre(hm, pre_tgt, psi)
    t = a.decomposition().to_diag @ psi.matrix @ a2.decomposition().from_diag
    assert pre == slow_induced(hm, pre_tgt, IntMatrix.identity(b.generators), t)
    assert pre == slow_hom_pre(hm, pre_tgt, psi)
    # arbitrary change-of-basis matrices on both sides, where some entry
    # may not be a hom element: both raise, or both give the same map
    def sparse(rows, cols):
        return IntMatrix(rows, cols, tuple(
            tuple(rng.choice((0, 0, 1, rng.randint(-9, 9))) for _ in range(cols))
            for _ in range(rows)))

    hm2 = hom_modules(a2, b2)
    left, right = sparse(b2.generators, b.generators), sparse(a.generators, a2.generators)
    try:
        want = slow_induced(hm, hm2, left, right)
    except WorkbenchError:
        with pytest.raises(WorkbenchError, match="not a hom element"):
            _induced(hm, hm2, left, right)
    else:
        assert _induced(hm, hm2, left, right) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(THREE_RINGS))
def test_kernel_inclusion_is_well_defined(seed, ring):
    # kernel builds its inclusion without the well-definedness check
    rng = random.Random(seed)
    src, tgt = random_module(rng, ring, max_gens=4), random_module(rng, ring, max_gens=4)
    f = random_map(rng, src, tgt)
    k, incl = kernel(f)
    assert (incl.src, incl.tgt) == (k, src)
    assert incl.is_well_defined()
    assert is_zero_map(f @ incl)
    assert make_map(k, src, incl.matrix) == incl


# ---------------------------------------------------------------------------
# pushout / pullback (the oracle's, in helpers)


def test_pushout_frozen():
    z = free_module(ZZ, 1)
    two = make_map(z, z, [[2]])
    three = make_map(z, z, [[3]])
    d, from_b, from_c = pushout(two, three)
    assert d.invariant_factors == (0,)
    assert (from_b @ two).equals(from_c @ three)
    d2, fb2, fc2 = pushout(two, two)
    assert sorted(d2.invariant_factors) == [0, 2]


def test_pullback_frozen():
    z = free_module(ZZ, 1)
    z6 = cyclic_module(ZZ, 6)
    p = make_map(z, z6, [[1]])
    l, to_b, to_c = pullback(p, p)
    assert sorted(l.invariant_factors) == [0, 0]
    assert (p @ to_b).equals(p @ to_c)


def test_pushout_of_mono_is_mono():
    # pushouts preserve injectivity along the other leg over these rings
    rng = random.Random(55)
    ring = Zmod(12)
    for _ in range(10):
        a = random_module(rng, ring, max_gens=2)
        b = random_module(rng, ring, max_gens=2)
        c = random_module(rng, ring, max_gens=2)
        f = random_map(rng, a, b)
        g = random_map(rng, a, c)
        if not is_injective(f):
            continue
        d, from_b, from_c = pushout(f, g)
        assert is_injective(from_c)


# ---------------------------------------------------------------------------
# factorizations, retractions, solver


def test_factor_through_mono():
    z = free_module(ZZ, 1)
    two = make_map(z, z, [[2]])
    four = make_map(z, z, [[4]])
    x = factor_through_mono(two, four)
    assert (two @ x).equals(four)
    with pytest.raises(WorkbenchError):
        factor_through_mono(two, make_map(z, z, [[3]]))


def test_factor_through_mono_rejects_a_first_map_with_a_kernel():
    # R/(4) -> R/(2) by 1 is onto with kernel 2R/(4); mono . X = id needs
    # X odd, and an odd R/(2) -> R/(4) sends the relation 2 to 2, not 0
    for ring, top in ((ZZ, cyclic_module(ZZ, 4)), (Zmod(4), make_module(Zmod(4), 1))):
        z2 = cyclic_module(ring, 2)
        with pytest.raises(NotMono):
            factor_through_mono(make_map(top, z2, [[1]]), identity_map(z2))


def test_factor_through_epi():
    z = free_module(ZZ, 1)
    z4 = cyclic_module(ZZ, 4)
    z2 = cyclic_module(ZZ, 2)
    proj4 = make_map(z, z4, [[1]])
    proj2 = make_map(z, z2, [[1]])
    x = factor_through_epi(proj4, proj2)
    assert (x @ proj4).equals(proj2)
    # nothing factors the other way: Z/4 -> Z can only be zero
    with pytest.raises(WorkbenchError):
        factor_through_epi(proj2, identity_map(z))


def test_has_retraction():
    z = free_module(ZZ, 1)
    two = make_map(z, z, [[2]])
    assert has_retraction(two) is None
    s, injs, projs = direct_sum([cyclic_module(ZZ, 2), cyclic_module(ZZ, 4)])
    r = has_retraction(injs[0])
    assert r is not None
    assert (r @ injs[0]).equals(identity_map(cyclic_module(ZZ, 2)))
    # Z/2 -> Z/4 by doubling is mono but not split
    dbl = make_map(cyclic_module(ZZ, 2), cyclic_module(ZZ, 4), [[2]])
    assert has_retraction(dbl) is None
    with pytest.raises(NotMono):
        has_retraction(make_map(cyclic_module(ZZ, 4), cyclic_module(ZZ, 2), [[1]]))


def _mono(rng, ring, kind):
    """An injective map of the given kind: "split" is (id; h) into a sum,
    "doubling" adds Z/2 -> Z/4 by 2 (never split) to a split one, and
    "kernel" / "image" include the kernel or image of a random map, which
    may split or not; the image is the kernel of the cokernel projection."""
    a = random_module(rng, ring)
    b = random_module(rng, ring)
    if kind in ("split", "doubling"):
        h = random_map(rng, a, b)
        s, _, _ = direct_sum([a, b])
        f = block_map(a, s, [(0, 0, 1, IntMatrix.identity(a.generators)),
                             (a.generators, 0, 1, h.matrix)])
        if kind == "split":
            return f
        dbl = make_map(cyclic_module(ring, 2), cyclic_module(ring, 4), [[2]])
        src, _, _ = direct_sum([dbl.src, f.src])
        tgt, _, _ = direct_sum([dbl.tgt, f.tgt])
        return block_map(src, tgt, [(0, 0, 1, dbl.matrix), (1, 1, 1, f.matrix)])
    g = random_map(rng, a, b)
    return kernel(g if kind == "kernel" else cokernel(g)[1])[1]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([ZZ, Zmod(12), Zmod(72)]),
       kind=st.sampled_from(["split", "doubling", "kernel", "image"]))
def test_retraction_agrees_with_the_joint_solver(seed, ring, kind):
    f = _mono(random.Random(seed), ring, kind)
    assert is_injective(f)
    r = retraction(f)
    oracle = slow_retraction(f)
    assert (r is None) == (oracle is None)
    if kind == "split":
        assert r is not None
    if kind == "doubling":
        assert r is None
    if r is not None:
        assert r.is_well_defined()
        assert (r @ f).equals(identity_map(f.src))
    assert (has_retraction(f) is None) == (r is None)


@pytest.mark.parametrize("ring", [ZZ, Zmod(12), Zmod(72), Zmod(7 ** 2 * 101 * 263)],
                         ids=str)
def test_cyclic_decomposition_matches_smith(ring):
    # the 1x1 fast path of decomposition against the Smith path, entry
    # for entry, on reduced and unreduced relations
    for d in range(-60, 61):
        for module in (cyclic_module(ring, d),
                       FpModule(ring, 1, IntMatrix.from_rows([[d]]))):
            assert module.decomposition() == slow_decomposition(module)


def test_map_solver_two_unknowns():
    ring = Zmod(6)
    z6 = make_module(ring, 1)
    solver = MapSolver(ring)
    solver.add_map_unknown("x", z6, z6)
    solver.add_map_unknown("y", z6, z6)
    ident = IntMatrix.identity(1)
    # x + y = id and x - y = 3 id forces 2x = 4 id
    solver.add_equation([(ident, "x", ident), (ident, "y", ident)], identity_map(z6))
    solver.add_equation([(ident, "x", ident), (ident.scale(-1), "y", ident)],
                        make_map(z6, z6, [[3]]))
    sol = solver.solve()
    assert sol is not None
    assert (sol["x"] + sol["y"]).equals(identity_map(z6))


def test_map_solver_respects_well_definedness():
    # any unknown Z/2 -> Z/4 must be even, so x = odd has no solution
    solver = MapSolver(ZZ)
    z2, z4 = cyclic_module(ZZ, 2), cyclic_module(ZZ, 4)
    solver.add_map_unknown("x", z2, z4)
    solver.add_equation([(IntMatrix.identity(1), "x", IntMatrix.identity(1))],
                        make_map(z2, z4, [[2]], check=True))
    assert solver.solve() is not None
    solver2 = MapSolver(ZZ)
    solver2.add_map_unknown("x", z2, z4)
    # demand x = the ill-defined odd map; bypass the constructor check
    from purcat.fpmod import ModuleMap
    bad = ModuleMap(z2, z4, IntMatrix.from_rows([[1]]))
    solver2.add_equation([(IntMatrix.identity(1), "x", IntMatrix.identity(1))], bad)
    assert solver2.solve() is None


# ---------------------------------------------------------------------------
# short exact sequences


def test_short_exact_sequence_accepts_valid():
    z = free_module(ZZ, 1)
    two = make_map(z, z, [[2]])
    c, proj = cokernel(two)
    ses = short_exact_sequence(two, proj)
    assert ses.i is two


def test_short_exact_sequence_rejects_inexact():
    z = free_module(ZZ, 1)
    four = make_map(z, z, [[4]])
    z2 = cyclic_module(ZZ, 2)
    proj = make_map(z, z2, [[1]])
    assert is_zero_map(proj @ four)
    with pytest.raises(WorkbenchError):
        short_exact_sequence(four, proj)


def test_short_exact_sequence_rejects_non_mono():
    z4 = cyclic_module(ZZ, 4)
    z2 = cyclic_module(ZZ, 2)
    halve = make_map(z4, z2, [[1]])
    with pytest.raises(WorkbenchError):
        short_exact_sequence(halve, make_map(z2, zero_module(ZZ), IntMatrix.zeros(0, 1)))
