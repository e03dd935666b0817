"""Independent oracles used to cross-check the library.

The first oracles call nothing of the elimination code under test: Smith
diagonals are recomputed from gcds of minors, solvability is decided by
exhaustive search over bounded boxes, and module arithmetic is checked
against hand enumeration.  The probe oracles after them walk every
divisor candidate and tensor every probe directly, through tensor_map
for each differential, and build a homology module in every degree of
every probe tensor, where the library divides m up to its square root
and reads every probe off gcds with the Smith diagonals of the complex
itself.  Beside them sits the former probe pass, which tensored only R
and the prime powers and read composite probes off those parts by the
Chinese remainder theorem (probe_outcomes), and the prime-power battery
of the Smith entries, listing each prime power one exponent past the
largest (uncapped_smith_battery), where the library lists powers of a
coprime base; both factor by trial division (slow_factor).  The
assembly oracles after them build every induced map on Hom from full
maps (to_map, compose, from_map), every map between direct sums as a sum
of full-size inj . x . proj products, and the currying isomorphism by
decoding and re-encoding whole hom complexes, where the library reads
slots off one change-of-basis product and places blocks.  The oracles
near the end are the library's former paths, kept verbatim so the
leaner ones can be compared with them output for output: the Smith
elimination that tracked both inverses, the Smith diagonals of a
complex eliminated afresh for every term and image, exact solving
through the full U and V of the Smith form, LinearSystem assembly
through dense Kronecker products, the tower path of resolve that
certified the (co)limit before minimizing it and certifying again, the
degreewise pushout and pullback inductions that resolve ran before it reduced its
input (slow_resolve_by_inductions), with the module pushout and
pullback they take, the adjunction
check that resolved its bounded arguments through that tower path,
module decompositions through the Smith form even for one
cyclic relation,
retractions and contractions solved as vectorized MapSolver systems,
the contraction by a retraction onto the cycles and a section of the
differential in each degree,
matrix products and induced Hom maps that visit every entry and every
pair of slots, zero or not, kernels and membership read off the
full Smith form for every presentation, every identity between maps
checked on its difference map formed from dense products
(slow_lincomb_in_relations), the cone with both structure
maps formed up front, and the currying witness built one basis map at
a time through to_map and from_map.  A few constructions
that only tests use live here too: the chain maps induced on hom
complexes, the inverse of a unimodular matrix, the internal hom
identity phom(a (x) b, c) ~ phom(a, phom(b, c)), validated builders of
complexes, chain maps and homotopies, null-homotopic chain maps,
validated short exact sequences, the map between >= n truncations,
lifts of resolutions along a map, resolutions padded by a contractible
summand with the derived hom compared across them, factoring through
an epi, maps induced on homology and by Hom(Q, -) and - (x) Q, and the
displayed conditions of each step of the two inductions.  Keep it slow
and obvious.
"""

import random
from itertools import combinations, permutations, product
from math import gcd

from purcat.exact_linalg import (
    IntMatrix,
    InputError,
    Record,
    WorkbenchError,
    _rows,
    _set,
    _unit_scaling_mod,
    from_columns,
    hstack,
    smith_normal_form,
    solve_linear,
)
from purcat.fpmod import (
    Decomposition,
    MapSolver,
    ModuleMap,
    block_map,
    cokernel,
    cyclic_module,
    direct_sum,
    factor_through_mono,
    free_module,
    hom_modules,
    hom_post,
    hom_pre,
    identity_map,
    is_injective,
    is_surjective,
    kernel,
    make_map,
    sum_module,
    summand_injection,
    summand_projection,
    tensor_map,
    tensor_modules,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    Homotopy,
    _window,
    cone,
    direct_sum_complexes,
    hom_complex,
    homology,
    homology_invariants,
    identity_chain_map,
    minimize_complex,
    module_complex,
    shift,
    smith_diagonals,
    tensor_complex,
    tensor_module_complex,
    trim,
    truncate_geq,
    zero_chain_map,
    zero_complex,
    zero_homotopy,
)
from purcat.homotopy import hom_dpur, hom_k
from purcat.monoidal import (
    AdjunctionReport,
    AdjunctionWitness,
    LinkCheck,
    adjunction_iso,
    phom,
    validate_adjunction_witness,
)
from purcat.purity import ProbeBattery
from purcat.randgen import random_homotopy
from purcat.resolutions import (
    INJECTIVE,
    PROJECTIVE,
    ResolutionCertificate,
    _certificate,
    _extend_injective,
    _extend_projective,
    _recast,
    _require_injective_scope,
    colimit_tower,
    injective_tower,
    limit_tower,
    projective_tower,
    required_depth,
    termwise_ok,
)


def det_int(rows):
    """Determinant of a small square integer matrix, by permutations."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
            if prod == 0:
                break
        total += sign * prod
    return total


def determinantal_divisors(rows):
    """d_k chain of an integer matrix from gcds of k x k minors.

    Returns a list of length min(r, c); entries past the rank are 0.
    """
    r = len(rows)
    c = len(rows[0]) if r else 0
    k_max = min(r, c)
    chain = []
    prev = 1
    for k in range(1, k_max + 1):
        g = 0
        for ris in combinations(range(r), k):
            for cis in combinations(range(c), k):
                minor = det_int([[rows[i][j] for j in cis] for i in ris])
                g = gcd(g, minor)
        if g == 0:
            chain.extend([0] * (k_max - len(chain)))
            break
        chain.append(g // prev)
        prev = g
    return chain


def expected_smith_diagonal(rows, modulus):
    """What the Smith diagonal must be, from the minors oracle."""
    chain = determinantal_divisors(rows)
    if modulus is None:
        return chain
    return [gcd(d, modulus) % modulus for d in chain]


def brute_solve_column(a_rows, b_col, modulus, bound=6):
    """Search A x = b exhaustively; returns a solution list or None.

    Over Z/m the search is complete; over Z it only scans the box
    [-bound, bound]^c, so a None here is not a proof of unsolvability.
    """
    r = len(a_rows)
    c = len(a_rows[0]) if r else 0
    values = range(modulus) if modulus else range(-bound, bound + 1)
    for cand in product(values, repeat=c):
        ok = True
        for i in range(r):
            s = sum(a_rows[i][j] * cand[j] for j in range(c)) - b_col[i]
            if (s % modulus if modulus else s) != 0:
                ok = False
                break
        if ok:
            return list(cand)
    return None


def random_matrix_rows(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def mat(rows):
    return IntMatrix.from_rows(rows)


def enumerate_module_elements(factors):
    """All elements of a product of cyclic groups Z/f (f > 0)."""
    ranges = [range(f) for f in factors]
    return product(*ranges)


# ---------------------------------------------------------------------------
# probe batteries, probe by probe


def slow_probe_battery(ring, bound=1):
    """The battery by brute force: over Z/m, every d in range(2, m) dividing m."""
    probes = [free_module(ring, 1)]
    if ring.modulus is None:
        probes += [cyclic_module(ring, d) for d in range(2, bound + 1)]
    else:
        m = ring.modulus
        probes += [cyclic_module(ring, d) for d in range(2, m) if m % d == 0]
    return ProbeBattery(ring, tuple(probes))


def uncapped_smith_battery(cx, extra=1):
    """The prime-power battery of the Smith diagonals: the free probe,
    then R/(p^k) ascending for k = 1..K_p + extra, K_p the largest
    p-valuation of a nonzero diagonal entry (over Z/m, p^k a proper
    divisor of m).  With extra 0 it lists each prime's own exponents,
    and smith_battery is never longer; extra 1 goes one exponent past."""
    m = cx.ring.modulus
    terms, images = smith_diagonals(cx)
    tops = {}
    for d in {abs(d) for diag in terms + images for d in diag} - {0, 1}:
        for p, k in slow_factor(d):
            tops[p] = max(tops.get(p, 0), k)
    qs = sorted(p ** k for p, top in tops.items() for k in range(1, top + 1 + extra)
                if m is None or (m % p ** k == 0 and p ** k != m))
    return ProbeBattery(cx.ring, (free_module(cx.ring, 1),)
                        + tuple(cyclic_module(cx.ring, q) for q in qs))


def slow_homology_degrees(cx):
    """Degrees of the window where cx has homology, one homology module each."""
    return [i for i in range(cx.lo, cx.hi + 1) if not homology(cx, i).is_zero()]


def slow_tensor_module_complex(cx, mod):
    """- (x) mod on every term, each differential through tensor_map, which
    tensors its source and target terms again."""
    mods = tuple(tensor_modules(m, mod) for m in cx.modules)
    ident = identity_map(mod)
    diffs = tuple(tensor_map(d, ident) for d in cx.diffs)
    return Complex(cx.ring, cx.lo, mods, diffs)


def slow_tensor_module_chain_map(f, mod):
    """- (x) mod on every component, each through tensor_map."""
    src = slow_tensor_module_complex(f.src, mod)
    tgt = slow_tensor_module_complex(f.tgt, mod)
    ident = identity_map(mod)
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        c = f.component(i)
        if c.src.generators == 0 or c.tgt.generators == 0:
            comps.append(zero_map(src.module(i), tgt.module(i)))
        else:
            comps.append(tensor_map(c, ident))
    return ChainMap(src, tgt, lo, tuple(comps))


def probe_homology_degrees(cx, probe):
    """Degrees where probe (x) cx has homology, from a direct tensor."""
    return slow_homology_degrees(slow_tensor_module_complex(cx, probe))


def slow_failing_probe_for_acyclic(cx, battery):
    """First probe whose direct tensor with cx has homology, with the degree."""
    for probe in battery.probes:
        degrees = probe_homology_degrees(cx, probe)
        if degrees:
            return probe, degrees[0]
    return None


def _primary_parts(probe):
    """The summands of probe's primary decomposition, as memo keys.

    0 stands for a free summand R, q > 1 for a cyclic summand R/(q)
    with q a prime power.
    """
    free = probe.ring.modulus or 0
    parts = []
    for a in probe.invariant_factors:
        if a == free:
            parts.append(0)
        else:
            parts.extend(p ** k for p, k in slow_factor(a))
    return parts


def probe_outcomes(battery, failures):
    """Yield (probe, failed) for each battery probe, lazily, in battery order.

    The library's former probe pass, kept as an oracle.  failures(module)
    lists the places where tensoring with module breaks the property
    under test, and is only ever called on R and on cyclic prime-power
    modules R/(p^k), at most once each (memoised by invariant factor);
    every other probe is read off those parts.  By the Chinese remainder
    theorem R/(d) is the direct sum of the R/(p^k) over the prime powers
    exactly dividing d, over Z and over Z/m alike, and a probe with
    several invariant factors splits factor by factor; tensor products,
    homology and kernels are additive, so a probe fails exactly where
    one of its parts does.
    """
    memo = {}
    for probe in battery.probes:
        failed = frozenset()
        for q in _primary_parts(probe):
            if q not in memo:
                part = free_module(probe.ring, 1) if q == 0 else cyclic_module(probe.ring, q)
                memo[q] = frozenset(failures(part))
            failed |= memo[q]
        yield probe, failed


def slow_factor(n):
    """[(p, k), ...] by trial division over every candidate up to sqrt(n)."""
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# induced maps on Hom, slot by slot through full maps


def _unit(k, n):
    return [1 if r == k else 0 for r in range(n)]


def slow_hom_post(hm_src, hm_tgt, phi):
    """Hom(A, B) -> Hom(A, B'): each basis map, composed with phi, read back."""
    n = len(hm_src.slots)
    cols = [hm_tgt.from_map(phi @ hm_src.to_map(_unit(s, n))) for s in range(n)]
    mat = from_columns(cols, len(hm_tgt.slots))
    return ModuleMap(hm_src.module, hm_tgt.module, hm_src.module.ring.reduce_matrix(mat))


def slow_hom_pre(hm_src, hm_tgt, psi):
    """Hom(A, B) -> Hom(A', B): each basis map, precomposed with psi, read back."""
    n = len(hm_src.slots)
    cols = [hm_tgt.from_map(hm_src.to_map(_unit(s, n)) @ psi) for s in range(n)]
    mat = from_columns(cols, len(hm_tgt.slots))
    return ModuleMap(hm_src.module, hm_tgt.module, hm_src.module.ring.reduce_matrix(mat))


# ---------------------------------------------------------------------------
# chain maps induced on hom complexes, slot by slot


def hom_post_chain_map(src_hc, tgt_hc, u):
    """Post-composition Hom(A, M) -> Hom(A, N) along u: M -> N."""
    if src_hc.source != tgt_hc.source:
        raise InputError("post-composition needs a common hom source")
    if u.src != src_hc.target or u.tgt != tgt_hc.target:
        raise InputError("map endpoints do not match the hom complexes")
    return _hom_induced(src_hc, tgt_hc,
                        lambda i, j, hm, hm2: hom_post(hm, hm2, u.component(i + j)))


def hom_pre_chain_map(src_hc, tgt_hc, u):
    """Pre-composition Hom(M, C) -> Hom(N, C) along u: N -> M."""
    if src_hc.target != tgt_hc.target:
        raise InputError("pre-composition needs a common hom target")
    if u.tgt != src_hc.source or u.src != tgt_hc.source:
        raise InputError("map endpoints do not match the hom complexes")
    return _hom_induced(src_hc, tgt_hc,
                        lambda i, j, hm, hm2: hom_pre(hm, hm2, u.component(j)))


def _hom_induced(src_hc, tgt_hc, step):
    """The chain map placing step(i, j, hm, hm2) from slot j into slot j."""
    a, b = src_hc.complex, tgt_hc.complex
    comps = []
    for i in _window(a, b):
        tgt_slots = {j: (hm, start) for j, hm, start, _ in tgt_hc.slots(i)}
        blocks = [(tgt_slots[j][1], start, 1, step(i, j, hm, tgt_slots[j][0]).matrix)
                  for j, hm, start, _ in src_hc.slots(i) if j in tgt_slots]
        comps.append(block_map(a.module(i), b.module(i), blocks))
    return ChainMap(a, b, _window(a, b).start, tuple(comps))


# ---------------------------------------------------------------------------
# maps between direct sums as sums of inj . x . proj


def _dense_sum(src, tgt, terms):
    """Sum of the full-size maps (sign * inj @ x @ proj) from src to tgt."""
    total = zero_map(src, tgt)
    for sign, inj, x, proj in terms:
        total = total + (inj @ x @ proj).scale(sign)
    return total


def slow_cone_differentials(f):
    """The differentials of cone(f), summed from summand maps."""
    src, tgt = f.src, f.tgt
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    sums = {i: direct_sum([src.module(i + 1), tgt.module(i)]) for i in range(lo, hi + 1)}
    diffs = []
    for i in range(lo, hi):
        s, _, (proj_a, proj_b) = sums[i]
        s2, (inj_a2, inj_b2), _ = sums[i + 1]
        diffs.append(_dense_sum(s, s2, [
            (-1, inj_a2, src.differential(i + 1), proj_a),
            (1, inj_b2, f.component(i + 1), proj_a),
            (1, inj_b2, tgt.differential(i), proj_b),
        ]))
    return diffs


def _hom_sums(source, target, i):
    """[(j, hom module, injection, projection)] and the sum for hom degree i."""
    js = [j for j in range(source.lo, source.hi + 1) if target.lo <= i + j <= target.hi]
    homs = [hom_modules(source.module(j), target.module(i + j)) for j in js]
    total, injs, projs = direct_sum([hm.module for hm in homs])
    return list(zip(js, homs, injs, projs)), total


def slow_hom_differentials(source, target):
    """The differentials of hom_complex(source, target), from slow_hom_post/pre."""
    lo = target.lo - source.hi
    hi = target.hi - source.lo
    diffs = []
    for i in range(lo, hi):
        here, total = _hom_sums(source, target, i)
        there, total2 = _hom_sums(source, target, i + 1)
        nxt = {j: (hm, inj) for j, hm, inj, _ in there}
        sign = -1 if i % 2 == 0 else 1
        terms = []
        for j, hm, _, proj in here:
            if j in nxt:
                hm2, inj2 = nxt[j]
                terms.append((1, inj2, slow_hom_post(hm, hm2, target.differential(i + j)), proj))
            if j - 1 in nxt:
                hm3, inj3 = nxt[j - 1]
                terms.append((sign, inj3, slow_hom_pre(hm, hm3, source.differential(j - 1)), proj))
        diffs.append(_dense_sum(total, total2, terms))
    return diffs


def _tensor_sums(left, right, t):
    """[(i, j, injection, projection)] and the sum for tensor degree t."""
    ids = [i for i in range(left.lo, left.hi + 1) if right.lo <= t - i <= right.hi]
    total, injs, projs = direct_sum(
        [tensor_modules(left.module(i), right.module(t - i)) for i in ids])
    return [(i, t - i, inj, proj) for i, inj, proj in zip(ids, injs, projs)], total


def slow_tensor_differentials(left, right):
    """The differentials of tensor_complex(left, right), from tensor_map."""
    diffs = []
    for t in range(left.lo + right.lo, left.hi + right.hi):
        here, total = _tensor_sums(left, right, t)
        there, total2 = _tensor_sums(left, right, t + 1)
        nxt = {i: inj for i, _, inj, _ in there}
        terms = []
        for i, j, _, proj in here:
            if i + 1 in nxt:
                step = tensor_map(left.differential(i), identity_map(right.module(j)))
                terms.append((1, nxt[i + 1], step, proj))
            if i in nxt:
                step = tensor_map(identity_map(left.module(i)), right.differential(j))
                terms.append((-1 if i % 2 else 1, nxt[i], step, proj))
        diffs.append(_dense_sum(total, total2, terms))
    return diffs


# ---------------------------------------------------------------------------
# currying by decoding and re-encoding whole hom complexes


def _hom_summands(hc, i):
    """{j: (hom module, injection, projection)} for degree i of a HomComplex."""
    slots = hc.slots(i)
    if not slots:
        return {}
    _, injs, projs = direct_sum([hm.module for _, hm, _, _ in slots])
    return {j: (hm, inj, proj) for (j, hm, _, _), inj, proj in zip(slots, injs, projs)}


def _tensor_injections(tc, t):
    """{(i, j): (injection, projection)} for degree t of a TensorComplex."""
    slots = tc.slots(t)
    if not slots:
        return {}
    _, injs, projs = direct_sum([tensor_modules(tc.left.module(i), tc.right.module(j))
                                 for i, j, _, _ in slots])
    return {(i, j): (inj, proj) for (i, j, _, _), inj, proj in zip(slots, injs, projs)}


def _decode(hc, i, col):
    return {j: hm.to_map([(proj.matrix @ col).at(r, 0) for r in range(hm.module.generators)])
            for j, (hm, _, proj) in _hom_summands(hc, i).items()}


def _encode(hc, i, family):
    terms = [(1, inj.matrix, IntMatrix.column_vector(hm.from_map(family[j])))
             for j, (hm, inj, _) in _hom_summands(hc, i).items() if j in family]
    return hc.complex.ring.reduce_matrix(slow_lincomb(hc.complex.module(i).generators, 1, terms))


def _curry_piece(m, a, b, hm):
    gb, gc = b.generators, m.tgt.generators
    cols = []
    for p in range(a.generators):
        f_cols = [[m.matrix.at(r, p * gb + q) for r in range(gc)] for q in range(gb)]
        cols.append(list(hm.from_map(ModuleMap(b, m.tgt, from_columns(f_cols, gc)))))
    return ModuleMap(a, hm.module, a.ring.reduce_matrix(from_columns(cols, hm.module.generators)))


def _uncurry_piece(g, a, b, hm, pair):
    gc = hm.target.generators
    cols = []
    for p in range(a.generators):
        f = hm.to_map([g.matrix.at(r, p) for r in range(g.tgt.generators)])
        for q in range(b.generators):
            cols.append([f.matrix.at(r, q) for r in range(gc)])
    return ModuleMap(pair, hm.target, a.ring.reduce_matrix(from_columns(cols, gc)))


def adjunction_complexes(a, b, c):
    """(tensor, flat, inner, nested): the four complexes monoidal.adjunction_iso
    relates, built from a, b and c as check_dpur_adjunction holds them."""
    tc = tensor_complex(a, b)
    inner = hom_complex(b, c)
    return tc, hom_complex(tc.complex, c), inner, hom_complex(a, inner.complex)


def slow_adjunction_maps(w, inner):
    """(forward, backward) component matrices of an AdjunctionWitness, rebuilt
    one unit column at a time through whole-complex decoding; inner is the
    hom complex hom_complex(b, c) the witness was built on."""
    flat, nested = w.flat, w.nested
    a, b = nested.source, inner.source
    tc = tensor_complex(a, b)
    x, y = flat.complex, nested.complex
    lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
    fwd, bwd = [], []
    for n in range(lo, hi + 1):
        xg, yg = x.module(n).generators, y.module(n).generators
        cols = []
        for g in range(xg):
            family = _decode(flat, n, IntMatrix.column_vector(_unit(g, xg)))
            out = {}
            for i, (hm_a, _, _) in _hom_summands(nested, n).items():
                comp = zero_map(a.module(i), hm_a.target)
                for j, (hm_bc, inj_h, _) in _hom_summands(inner, n + i).items():
                    pieces = _tensor_injections(tc, i + j)
                    if i + j not in family or (i, j) not in pieces:
                        continue
                    big = family[i + j] @ pieces[(i, j)][0]
                    comp = comp + inj_h @ _curry_piece(big, a.module(i), b.module(j), hm_bc)
                out[i] = comp
            cols.append(list(_encode(nested, n, out).column(0)))
        fwd.append(a.ring.reduce_matrix(from_columns(cols, yg)))
        cols = []
        for g in range(yg):
            family = _decode(nested, n, IntMatrix.column_vector(_unit(g, yg)))
            out = {}
            for t, (hm_f, _, _) in _hom_summands(flat, n).items():
                comp = zero_map(hm_f.source, hm_f.target)
                for (i, j), (_, proj_t) in _tensor_injections(tc, t).items():
                    inner_slots = _hom_summands(inner, n + i)
                    if i not in family or j not in inner_slots:
                        continue
                    hm_bc, _, proj_h = inner_slots[j]
                    piece = _uncurry_piece(proj_h @ family[i], a.module(i), b.module(j),
                                           hm_bc, proj_t.tgt)
                    comp = comp + piece @ proj_t
                out[t] = comp
            cols.append(list(_encode(flat, n, out).column(0)))
        bwd.append(a.ring.reduce_matrix(from_columns(cols, xg)))
    return fwd, bwd


# ---------------------------------------------------------------------------
# cone and currying as they were: every map formed up front


def slow_cone(f):
    """(complex, inclusion, projection) of the cone of f, every structure
    map formed up front from direct_sum, as cone built them."""
    src, tgt = f.src, f.tgt
    ring = src.ring
    lo = min(src.lo - 1, tgt.lo)
    hi = max(src.hi - 1, tgt.hi)
    if hi < lo:
        zc = zero_complex(ring)
        return zc, zero_chain_map(tgt, zc), zero_chain_map(zc, shift(src, 1))
    sums = {}
    for i in range(lo, hi + 1):
        sums[i] = direct_sum([src.module(i + 1), tgt.module(i)])
    mods = [sums[i][0] for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        ga, ga2 = src.module(i + 1).generators, src.module(i + 2).generators
        diffs.append(block_map(mods[i - lo], mods[i + 1 - lo], [
            (0, 0, -1, src.differential(i + 1).matrix),
            (ga2, 0, 1, f.component(i + 1).matrix),
            (ga2, ga, 1, tgt.differential(i).matrix),
        ]))
    cx = Complex(ring, lo, tuple(mods), tuple(diffs))
    incl = ChainMap(tgt, cx, lo, tuple(sums[i][1][1] for i in range(lo, hi + 1)))
    proj = ChainMap(cx, shift(src, 1), lo, tuple(sums[i][2][0] for i in range(lo, hi + 1)))
    return cx, incl, proj


def _curry_map(mat, c0, a, b, hm):
    """Reindex the columns c0.. of mat, a map a (x) b -> c, as a map a -> Hom(b, c)."""
    gb = b.generators
    gc = hm.target.generators
    cols = []
    for p in range(a.generators):
        f_cols = [[mat.data[r][c0 + p * gb + q] for r in range(gc)] for q in range(gb)]
        cols.append(hm.from_map(ModuleMap(b, hm.target, from_columns(f_cols, gc))))
    return from_columns(cols, hm.module.generators)


def _uncurry_map(mat, r0, a, b, hm):
    """Reindex the rows r0.. of mat, a map a -> Hom(b, c), as a map a (x) b -> c."""
    cols = []
    for p in range(a.generators):
        f = hm.to_map([mat.data[r0 + r][p] for r in range(hm.module.generators)])
        cols.extend(f.matrix.column(q) for q in range(b.generators))
    return from_columns(cols, hm.target.generators)


def _unit_image(src, tgt, n, image):
    """Degree n map src -> tgt from the images of the basis maps.

    For the k-th basis map f of the slot (j, hm) of src, image(j, f)
    yields (tgt slot, map) pairs; each map is encoded by that slot's
    from_map and written at the slot's generators, and slots not named
    get zero coordinates.
    """
    height = tgt.complex.module(n).generators
    cols = []
    for j, hm, _, _ in src.slots(n):
        size = len(hm.slots)
        for k in range(size):
            col = [0] * height
            f = hm.to_map([1 if r == k else 0 for r in range(size)])
            for (_, hm_out, start, stop), g in image(j, f):
                col[start:stop] = hm_out.from_map(g)
            cols.append(col)
    mat = src.complex.ring.reduce_matrix(from_columns(cols, height))
    return ModuleMap(src.complex.module(n), tgt.complex.module(n), mat)


def slow_adjunction_iso(tc, flat, inner, nested):
    """monoidal.adjunction_iso as it was: every column from one basis map.

    Takes the four complexes it relates as the caller already holds them:
    tc = tensor_complex(a, b), flat = hom_complex(tc.complex, c),
    inner = hom_complex(b, c) and nested = hom_complex(a, inner.complex);
    complexes that do not fit together raise InputError.  Both directions
    are built one basis map at a time, slot by slot: a basis map of the
    flat slot Hom((a (x) b)^t, c^(n+t)) restricts to each tensor slot
    (i, j) of degree t and curries into the inner slot
    Hom(b^j, c^(n+i+j)), which sits inside the nested slot
    Hom(a^i, hom(b, c)^(n+i)); uncurrying runs the same slots backwards.
    No signs appear, and the chain-map condition holds on the nose with
    the differential conventions used here.
    """
    a, b = tc.left, tc.right
    if (flat.source != tc.complex or flat.target != inner.target
            or inner.source != b or nested.source != a
            or nested.target != inner.complex):
        raise InputError("adjunction complexes do not fit together")
    x, y = flat.complex, nested.complex
    # tensor slot (i, j) -> its first generator; inner slots by (degree, j)
    pair_start = {(i, j): start for t in range(tc.complex.lo, tc.complex.hi + 1)
                  for i, j, start, _ in tc.slots(t)}
    inner_at = {(k, slot[0]): slot for k in range(inner.complex.lo, inner.complex.hi + 1)
                for slot in inner.slots(k)}
    fwd = []
    bwd = []
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        nested_at = {slot[0]: slot for slot in nested.slots(n)}
        flat_at = {slot[0]: slot for slot in flat.slots(n)}

        def curry(t, f):
            for i, j, t_start, _ in tc.slots(t):
                if i in nested_at and (n + i, j) in inner_at:
                    out = nested_at[i]
                    _, hm_bc, h_start, _ = inner_at[(n + i, j)]
                    piece = _curry_map(f.matrix, t_start, a.module(i), b.module(j), hm_bc)
                    yield out, block_map(a.module(i), out[1].target, [(h_start, 0, 1, piece)])

        def uncurry(i, g):
            for j, hm_bc, h_start, _ in inner.slots(n + i):
                if i + j in flat_at and (i, j) in pair_start:
                    out = flat_at[i + j]
                    piece = _uncurry_map(g.matrix, h_start, a.module(i), b.module(j), hm_bc)
                    yield out, block_map(out[1].source, hm_bc.target,
                                         [(0, pair_start[(i, j)], 1, piece)])

        fwd.append(_unit_image(flat, nested, n, curry))
        bwd.append(_unit_image(nested, flat, n, uncurry))
    lo = min(x.lo, y.lo)
    forward = ChainMap(x, y, lo, tuple(fwd))
    backward = ChainMap(y, x, lo, tuple(bwd))
    return AdjunctionWitness(flat, nested, forward, backward)


# ---------------------------------------------------------------------------
# Smith normal form as it was, tracking both inverses


def slow_smith_normal_form(a_mat, ring):
    """(U, D, V, U^-1, V^-1) by the elimination smith_normal_form used
    before it stopped tracking inverses nobody reads.

    Same pivot rule, same operations in the same order, with U^-1 and
    V^-1 updated at every step; the library's U, D and V must equal
    these entry for entry.
    """
    r, c = a_mat.rows, a_mat.cols
    m = ring.modulus
    a = [list(row) for row in (ring.reduce_matrix(a_mat)).data]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    ui = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    vi = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def red(x: int) -> int:
        return x if m is None else x % m

    # The elementary operations below branch on the ring outside their
    # loops and skip zero source entries; the matrices coming out of
    # vectorized map equations are sparse enough that this matters.

    def row_add(dst: int, src: int, q: int) -> None:
        # row_dst -= q * row_src, tracked in u and ui
        ar, asrc = a[dst], a[src]
        ur, usrc = u[dst], u[src]
        if m is None:
            for j in range(c):
                x = asrc[j]
                if x:
                    ar[j] -= q * x
            for j in range(r):
                x = usrc[j]
                if x:
                    ur[j] -= q * x
            for i in range(r):
                x = ui[i][dst]
                if x:
                    ui[i][src] += q * x
        else:
            for j in range(c):
                x = asrc[j]
                if x:
                    ar[j] = (ar[j] - q * x) % m
            for j in range(r):
                x = usrc[j]
                if x:
                    ur[j] = (ur[j] - q * x) % m
            for i in range(r):
                x = ui[i][dst]
                if x:
                    ui[i][src] = (ui[i][src] + q * x) % m

    def col_add(dst: int, src: int, q: int) -> None:
        # col_dst -= q * col_src, tracked in v and vi
        vr, vdst = vi[src], vi[dst]
        if m is None:
            for i in range(r):
                x = a[i][src]
                if x:
                    a[i][dst] -= q * x
            for i in range(c):
                x = v[i][src]
                if x:
                    v[i][dst] -= q * x
            for j in range(c):
                x = vdst[j]
                if x:
                    vr[j] += q * x
        else:
            for i in range(r):
                x = a[i][src]
                if x:
                    a[i][dst] = (a[i][dst] - q * x) % m
            for i in range(c):
                x = v[i][src]
                if x:
                    v[i][dst] = (v[i][dst] - q * x) % m
            for j in range(c):
                x = vdst[j]
                if x:
                    vr[j] = (vr[j] + q * x) % m

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for k in range(r):
            ui[k][i], ui[k][j] = ui[k][j], ui[k][i]

    def col_swap(i: int, j: int) -> None:
        for k in range(r):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(c):
            v[k][i], v[k][j] = v[k][j], v[k][i]
        vi[i], vi[j] = vi[j], vi[i]

    def row_scale(i: int, unit: int, unit_inv: int) -> None:
        a[i] = [red(unit * x) for x in a[i]]
        u[i] = [red(unit * x) for x in u[i]]
        for k in range(r):
            ui[k][i] = red(ui[k][i] * unit_inv)

    t = 0
    limit = min(r, c)
    while t < limit:
        # locate pivot: smallest ring size, first occurrence.  Entries
        # of ring size 1 cannot be beaten and rows below t are zero to
        # the left of column t, so list.index finds them at C speed
        pi = pj = -1
        unit_lo = 1
        unit_hi = -1 if m is None else m - 1
        for i in range(t, r):
            row_i = a[i]
            try:
                j1 = row_i.index(unit_lo)
            except ValueError:
                j1 = -1
            j2 = -1
            if unit_hi != unit_lo:
                try:
                    j2 = row_i.index(unit_hi)
                except ValueError:
                    j2 = -1
            if j1 >= 0 and (j2 < 0 or j1 < j2):
                pi, pj = i, j1
                break
            if j2 >= 0:
                pi, pj = i, j2
                break
        if pi < 0:
            # no unit entry anywhere; fall back to the full scan, where
            # a key of 2 is now the best possible and stops it early
            best_key = None
            for i in range(t, r):
                row_i = a[i]
                for j in range(t, c):
                    x = row_i[j]
                    if x:
                        key = abs(x) if m is None else min(x, m - x)
                        if best_key is None or key < best_key:
                            best_key, pi, pj = key, i, j
                            if key == 2:
                                break
                if best_key == 2:
                    break
            if best_key is None:
                break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if m is None:
            if a[t][t] < 0:
                row_scale(t, -1, -1)
        else:
            unit, _ = _unit_scaling_mod(a[t][t], m)
            if unit != 1:
                row_scale(t, unit, pow(unit, -1, m))
        p = a[t][t]

        dirty = False
        for i in range(t + 1, r):
            x = a[i][t]
            if x:
                q, rem = divmod(x, p)
                row_add(i, t, q)
                if rem:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, c):
            x = a[t][j]
            if x:
                q, rem = divmod(x, p)
                col_add(j, t, q)
                if rem:
                    dirty = True
        if dirty:
            continue
        t += 1

    # Divisibility is repaired afterwards on the diagonal alone, which
    # avoids rescanning the remaining block after every pivot.

    def fix_pair(i: int, j: int) -> None:
        # 2x2 transform sending diag(d_i, d_j) to diag(gcd, lcm); rows
        # and columns i, j are diagonal on entry and on exit
        col_add(i, j, -1)
        while a[j][i]:
            q = a[i][i] // a[j][i]
            row_add(i, j, q)
            row_swap(i, j)
        g = a[i][i]
        x = a[i][j]
        if x:
            col_add(j, i, x // g)
        if m is None:
            if a[j][j] < 0:
                row_scale(j, -1, -1)
        elif a[j][j]:
            unit, _ = _unit_scaling_mod(a[j][j], m)
            if unit != 1:
                row_scale(j, unit, pow(unit, -1, m))

    for i in range(t):
        di = a[i][i]
        for j in range(i + 1, t):
            dj = a[j][j]
            if (di == 0 and dj != 0) or (di != 0 and dj % di):
                fix_pair(i, j)
                di = a[i][i]

    return tuple(IntMatrix(len(x), w, tuple(tuple(row) for row in x))
                 for x, w in ((u, r), (a, c), (v, c), (ui, r), (vi, c)))


def slow_smith_diagonals(cx):
    """smith_diagonals as it was: the relations of every term and every
    [rel_(k+1) | d^k] eliminated afresh, here by slow_smith_normal_form,
    with one entry per row, 0 past the last column."""
    def diagonal(a):
        d = slow_smith_normal_form(a, cx.ring)[1]
        return tuple(d.at(i, i) if i < d.cols else 0 for i in range(d.rows))

    return (tuple(diagonal(mod.relations) for mod in cx.modules),
            tuple(diagonal(hstack(f.tgt.relations, f.matrix)) for f in cx.diffs))


# ---------------------------------------------------------------------------
# exact solving as it was: U and V read off the Smith form, then U B and V Y


def slow_solve_linear(a, b, ring):
    """solve_linear as it was before it carried B through the elimination:
    the full U and V of smith_normal_form, then the products U @ B and
    V @ Y.  The library's answer must equal this entry for entry."""
    if a.rows != b.rows:
        raise InputError("solve_linear: row mismatch")
    m = ring.modulus
    if a.cols == 0:
        return IntMatrix.zeros(0, b.cols) if ring.reduce_matrix(b).is_zero() else None
    if a.rows == 0:
        return IntMatrix.zeros(a.cols, b.cols)
    snf = smith_normal_form(a, ring)
    cmat = ring.reduce_matrix(snf.u @ b)
    k = min(a.rows, a.cols)
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        d = snf.d.at(i, i) if i < k else 0
        if m is None:
            if d == 0:
                if any(cmat.at(i, j) for j in range(b.cols)):
                    return None
            else:
                for j in range(b.cols):
                    q, rem = divmod(cmat.at(i, j), d)
                    if rem:
                        return None
                    y[i][j] = q
        else:
            dd = d if d else m
            for j in range(b.cols):
                q, rem = divmod(cmat.at(i, j), dd)
                if rem:
                    return None
                if d:
                    y[i][j] = q
    return ring.reduce_matrix(snf.v @ IntMatrix(a.cols, b.cols, tuple(map(tuple, y))))


def dense_linear_system(system):
    """(coefficient matrix, right-hand side column) of a LinearSystem,
    assembled as it was: one dense R^T kron L per term, added row by row."""
    offsets, total = {}, 0
    for key in system._order:
        offsets[key] = total
        rows, cols = system._shapes[key]
        total += rows * cols
    big_rows, rhs_entries = [], []
    for terms, rhs in system._equations:
        height = rhs.rows * rhs.cols
        block = [[0] * total for _ in range(height)]
        for left, key, right in terms:
            transposed = IntMatrix(right.cols, right.rows, tuple(zip(*right.data)) if right.rows
                                   else tuple(() for _ in range(right.cols)))
            coeff = transposed.kron(left)
            for i in range(height):
                for j in range(coeff.cols):
                    block[i][offsets[key] + j] += coeff.at(i, j)
        big_rows.extend(block)
        rhs_entries.extend(rhs.at(i, j) for j in range(rhs.cols) for i in range(rhs.rows))
    return (IntMatrix(len(big_rows), total, tuple(map(tuple, big_rows))),
            IntMatrix(len(rhs_entries), 1, tuple((x,) for x in rhs_entries)))


def invert_unimodular(a, ring):
    """Inverse of a matrix invertible over the ring; raises if singular."""
    if a.rows != a.cols:
        raise InputError("only square matrices can be inverted")
    inv = solve_linear(a, IntMatrix.identity(a.rows), ring)
    if inv is None:
        raise InputError("matrix is not invertible over the ring")
    return inv


# ---------------------------------------------------------------------------
# resolve as it was, through towers: certify, minimize, certify again


def solved_certificate(source, target, res_map, side):
    """A certificate of res_map whose contraction slow_contract_complex
    solves for, as every certificate was made before the resolutions wrote
    their contractions down; raises if the cone is not contractible."""
    witness = slow_contract_complex(cone(res_map).complex)
    if witness is None:
        raise WorkbenchError("resolution map has a non-contractible cone")
    return ResolutionCertificate(source, target, res_map, side, witness,
                                 termwise_ok(side, target))


def _slow_minimize_certificate(cert):
    mini, to_min, back_min = minimize_complex(cert.target)
    mini = trim(mini)
    if cert.side == INJECTIVE:
        res_map = _rewindow_map(to_min, cert.target, mini) @ cert.map
        res_map = _rewindow_map(res_map, cert.source, mini)
    else:
        res_map = cert.map @ _rewindow_map(back_min, mini, cert.target)
        res_map = _rewindow_map(res_map, mini, cert.source)
    return solved_certificate(cert.source, mini, res_map, cert.side)


def slow_resolve(m, side):
    """resolve(m, side) through the tower of the depth m needs, with the
    (co)limit certified by limit_tower / colimit_tower and then minimized
    and certified again."""
    m = trim(m)
    depth = required_depth(m, side)
    if side == INJECTIVE:
        tower, fs = injective_tower(m, depth)
        cert = limit_tower(tower, fs)
    else:
        tower, fs = projective_tower(m, depth)
        cert = colimit_tower(tower, fs)
    return _slow_minimize_certificate(cert)


# ---------------------------------------------------------------------------
# resolve as it was: the paper's pushout and pullback inductions


def pushout(f, g):
    """Pushout of f: A -> B, g: A -> C; returns (D, from_b, from_c).

    D is the cokernel of (f; -g): A -> B (+) C, whose generators are
    those of the sum, so the legs are the summand injections into D.
    """
    if f.src != g.src:
        raise InputError("pushout legs must share their source")
    gb = f.tgt.generators
    s = sum_module([f.tgt, g.tgt])
    h = block_map(f.src, s, [(0, 0, 1, f.matrix), (gb, 0, -1, g.matrix)])
    d, _ = cokernel(h)
    return d, summand_injection(f.tgt, d, 0), summand_injection(g.tgt, d, gb)


def pullback(f, g):
    """Pullback of f: B -> A, g: C -> A; returns (L, to_b, to_c).

    L is the kernel of (f | -g): B (+) C -> A, and the legs are its
    inclusion followed by the two summand projections.
    """
    if f.tgt != g.tgt:
        raise InputError("pullback legs must share their target")
    gb = f.src.generators
    s = sum_module([f.src, g.src])
    h = block_map(s, f.tgt, [(0, 0, 1, f.matrix), (0, gb, -1, g.matrix)])
    l, incl = kernel(h)
    return (l, summand_projection(s, f.src, 0) @ incl,
            summand_projection(s, g.src, gb) @ incl)


def _rewindow_map(f, src, tgt):
    """Rebuild f against trimmed or extended windows of the same terms."""
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        c = f.component(i)
        a, b = src.module(i), tgt.module(i)
        if c.src == a and c.tgt == b:
            comps.append(c)
        else:
            comps.append(zero_map(a, b))
    return ChainMap(src, tgt, lo, tuple(comps))


def _build_injective(m):
    """The pushout induction; returns (I, u: m -> I) on window [lo, hi+1].

    Each step pushes the differential out along the previous embedding's
    cokernel; in scope the pushout term is already pure injective, so
    the embedding of each new term is the identity.
    """
    ring = m.ring
    lo, hi = m.lo, m.hi
    i_mods = [m.module(lo)]
    i_diffs = []
    u_comps = [identity_map(m.module(lo))]
    coker_proj = identity_map(m.module(lo))
    for k in range(lo + 1, hi + 2):
        q_prev = coker_proj @ u_comps[-1]
        d_prev = m.differential(k - 1)
        c_k, from_b, from_c = pushout(d_prev, q_prev)
        i_mods.append(c_k)
        i_diffs.append(from_c @ coker_proj)
        u_comps.append(from_b)
        _, coker_proj = cokernel(i_diffs[-1])
    i_cx = Complex(ring, lo, tuple(i_mods), tuple(i_diffs))
    u = ChainMap(m, i_cx, lo, tuple(u_comps))
    return i_cx, u


def _injective_resolution(m):
    """(I, u: m -> I), minimal, uncertified; u is rewindowed to m's window."""
    _require_injective_scope(m)
    t = trim(m)
    target = zero_complex(m.ring)
    res_map = zero_chain_map(m, target)
    if t.modules:
        mini, to_min, _ = minimize_complex(t)
        i_raw, u_raw = _build_injective(mini)
        i_trim = trim(i_raw)
        u_trim = _rewindow_map(u_raw, mini, i_trim)
        target, to_i, _ = minimize_complex(i_trim)
        res_map = to_i @ u_trim @ to_min
    return target, _rewindow_map(res_map, m, target)


def _build_projective(m):
    """The pullback induction; returns (P, v: P -> m) on window [lo-1, hi].

    In scope every finitely presented module is pure projective, so each
    new term covers its pullback by the identity.
    """
    ring = m.ring
    lo, hi = m.lo, m.hi
    p_mods = [m.module(hi)]
    p_diffs = []
    v_comps = [identity_map(m.module(hi))]
    ker_incl = identity_map(m.module(hi))
    for k in range(hi - 1, lo - 2, -1):
        edge = v_comps[0] @ ker_incl
        l_k, to_b, to_c = pullback(m.differential(k), edge)
        p_mods.insert(0, l_k)
        p_diffs.insert(0, ker_incl @ to_c)
        v_comps.insert(0, to_b)
        _, ker_incl = kernel(p_diffs[0])
    p_cx = Complex(ring, lo - 1, tuple(p_mods), tuple(p_diffs))
    v = ChainMap(p_cx, m, lo - 1, tuple(v_comps))
    return p_cx, v


def _projective_resolution(m):
    """(P, v: P -> m), minimal, uncertified; v is rewindowed to m's window."""
    t = trim(m)
    target = zero_complex(m.ring)
    res_map = zero_chain_map(target, m)
    if t.modules:
        mini, _, back_min = minimize_complex(t)
        p_raw, v_raw = _build_projective(mini)
        p_trim = trim(p_raw)
        v_trim = _rewindow_map(v_raw, p_trim, mini)
        target, _, back_p = minimize_complex(p_trim)
        res_map = back_min @ v_trim @ back_p
    return target, _rewindow_map(res_map, target, m)


def slow_resolve_by_inductions(m, side):
    """resolve(m, side) as the paper builds it: the degreewise pushout
    induction on the injective side (up to one degree above the window)
    and the pullback induction on the projective side (down to one
    degree below it), each on the minimized input and minimized after."""
    m = trim(m)
    build = _injective_resolution if side == INJECTIVE else _projective_resolution
    target, res_map = build(m)
    if m.modules:
        return solved_certificate(m, target, res_map, side)
    c = cone(res_map).complex
    return ResolutionCertificate(m, target, res_map, side, zero_homotopy(c, c), ())


# ---------------------------------------------------------------------------
# the closed structure as it was checked: every argument through a tower


def slow_check_dpur_adjunction(a, b, c):
    """check_dpur_adjunction with every argument resolved by slow_resolve,
    which builds a semi-split tower of the depth the argument needs."""
    _require_injective_scope(c)
    pa = slow_resolve(a, PROJECTIVE)
    pb = slow_resolve(b, PROJECTIVE)
    ic = slow_resolve(c, INJECTIVE)
    tc = tensor_complex(pa.target, pb.target)
    inner = hom_complex(pb.target, ic.target)
    value = inner.complex
    ab = tensor_complex(a, b).complex

    ends = hom_dpur(ab, c)
    replaced = hom_dpur(tc.complex, ic.target)
    curried = hom_k(pa.target, value)
    witness = adjunction_iso(tc, replaced.hom, inner, curried.hom)
    other_end = hom_dpur(a, value)

    links = (
        LinkCheck("replace-by-resolutions",
                  ends.invariant_factors, replaced.invariant_factors),
        LinkCheck("curry",
                  replaced.invariant_factors, curried.invariant_factors),
        LinkCheck("end-to-end",
                  ends.invariant_factors, other_end.invariant_factors),
    )
    return AdjunctionReport(links, validate_adjunction_witness(witness))


def check_internal_hom_identity(a, b, c):
    """Internal version: phom((a (x) b), c) against phom(a, phom(b, c)).

    Both sides run the full derived hom pipeline; the comparison is by
    homology invariant factors in every degree.
    """
    ab = tensor_complex(a, b).complex
    left = phom(ab, c).value
    inner_value = phom(b, c).value
    right = phom(a, inner_value).value
    return _compare_homology(left, right)


# ---------------------------------------------------------------------------
# contraction and retraction through the joint map solver, as they were


def slow_decomposition(module):
    """FpModule.decomposition through smith_normal_form for every
    presentation, the cyclic ones included."""
    snf = smith_normal_form(module.relations, module.ring, inverse=True)
    k = min(module.generators, module.relations.cols)
    m = module.ring.modulus
    factors = []
    for i in range(module.generators):
        d = snf.d.at(i, i) if i < k else 0
        if m is not None and d == 0:
            d = m
        factors.append(d)
    return Decomposition(tuple(factors), snf.u, snf.u_inv)


def slow_retraction(f):
    """A left inverse r with r . f = id, or None, from one MapSolver system."""
    solver = MapSolver(f.src.ring)
    solver.add_map_unknown("r", f.tgt, f.src)
    solver.add_equation([(IntMatrix.identity(f.src.generators), "r", f.matrix)],
                        identity_map(f.src))
    sol = solver.solve()
    return sol["r"] if sol else None


def slow_contract_complex(cx):
    """A contracting homotopy (boundary = identity), or None.

    Built degreewise: first a retraction onto each cycle module, then a
    section of the differential vanishing under that retraction.  Any
    valid retraction admits a section when the complex is contractible,
    so the degreewise choices never need backtracking, which keeps the
    linear systems small compared to one joint solve.
    """
    if not cx.modules:
        return zero_homotopy(cx, cx)
    kernels = {}
    for n in range(cx.lo, cx.hi + 2):
        kernels[n] = kernel(cx.differential(n))
    rhos = {}
    for n in range(cx.lo, cx.hi + 1):
        z, incl = kernels[n]
        solver = MapSolver(cx.ring)
        solver.add_map_unknown("r", cx.module(n), z)
        solver.add_equation(
            [(IntMatrix.identity(z.generators), "r", incl.matrix)], identity_map(z)
        )
        sol = solver.solve()
        if sol is None:
            return None
        rhos[n] = sol["r"]
    sigmas = {}
    for n in range(cx.lo - 1, cx.hi + 1):
        z1, incl1 = kernels[n + 1]
        solver = MapSolver(cx.ring)
        solver.add_map_unknown("s", z1, cx.module(n))
        solver.add_equation(
            [(cx.differential(n).matrix, "s", IntMatrix.identity(z1.generators))], incl1
        )
        if n >= cx.lo:
            solver.add_equation(
                [(rhos[n].matrix, "s", IntMatrix.identity(z1.generators))],
                zero_map(z1, kernels[n][0]),
            )
        sol = solver.solve()
        if sol is None:
            return None
        sigmas[n] = sol["s"]
    comps = tuple(sigmas[n - 1] @ rhos[n] for n in range(cx.lo, cx.hi + 1))
    return Homotopy(cx, cx, cx.lo, comps)


def slow_contract_by_retractions(cx):
    """contract_complex as it was: degreewise from two direct solves,
    with Z^n = ker d^n and incl_n: Z^n -> C^n.

    A retraction rho_n: C^n -> Z^n (slow_retraction) and a section
    sigma_n: Z^(n+1) -> C^n with d^n . sigma_n = incl_(n+1) and
    rho_n . sigma_n = 0, which is factor_through_mono of (0; incl_(n+1))
    through the mono (rho_n; d^n): C^n -> Z^n (+) C^(n+1); then
    h^n = sigma_(n-1) . rho_n.  Any retraction admits a section when the
    complex is contractible, so None comes back exactly when it is not.
    """
    if not cx.modules:
        return zero_homotopy(cx, cx)
    kernels = {n: kernel(cx.differential(n)) for n in range(cx.lo, cx.hi + 2)}
    rhos = {}
    sigmas = {}
    for n in range(cx.lo - 1, cx.hi + 1):
        z1, incl1 = kernels[n + 1]
        if n < cx.lo:
            mono, want = cx.differential(n), incl1
        else:
            z, incl = kernels[n]
            rho = slow_retraction(incl)
            if rho is None:
                return None
            rhos[n] = rho
            top = z.generators
            total = sum_module([z, cx.module(n + 1)])
            mono = block_map(cx.module(n), total,
                             [(0, 0, 1, rho.matrix), (top, 0, 1, cx.differential(n).matrix)])
            want = block_map(z1, total, [(top, 0, 1, incl1.matrix)])
        try:
            sigmas[n] = factor_through_mono(mono, want)
        except WorkbenchError:
            return None
    comps = tuple(sigmas[n - 1] @ rhos[n] for n in range(cx.lo, cx.hi + 1))
    return Homotopy(cx, cx, cx.lo, comps)


# ---------------------------------------------------------------------------
# dense products and induced maps, as they were


def slow_matmul(self, other):
    """IntMatrix product as a dense sum over every entry pair."""
    if self.cols != other.rows:
        raise InputError("matrix product shape mismatch")
    cols = list(zip(*other.data)) if other.rows else [()] * other.cols
    out = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.data)
    if not self.rows:
        out = ()
    return IntMatrix._trusted(self.rows, other.cols, out)


def slow_induced(hm_src, hm_tgt, left, right):
    """fpmod._induced visiting every pair of source and target slots."""
    cols = []
    for s in hm_src.slots:
        col = []
        for r in hm_tgt.slots:
            x = left.data[r.tgt_index][s.tgt_index] * right.data[s.src_index][r.src_index]
            col.append(hm_tgt.coordinate(r, x * s.multiplier) if x else 0)
        cols.append(col)
    mat = from_columns(cols, len(hm_tgt.slots))
    return ModuleMap(hm_src.module, hm_tgt.module, hm_src.module.ring.reduce_matrix(mat))


# ---------------------------------------------------------------------------
# kernels and membership through the full Smith form, as they were


def slow_kernel_basis(a, ring):
    """kernel_basis reading the columns of V off the full elimination of
    slow_smith_normal_form, each scaled by m/d_j over Z/m and reduced."""
    if a.cols == 0:
        return IntMatrix.zeros(0, 0)
    if a.rows == 0:
        return IntMatrix.identity(a.cols)
    m = ring.modulus
    _, d_mat, v_mat, _, _ = slow_smith_normal_form(a, ring)
    k = min(a.rows, a.cols)
    cols = []
    for j in range(a.cols):
        if j < k:
            d = d_mat.at(j, j)
            if m is None:
                if d == 0:
                    cols.append(v_mat.column(j))
            else:
                dd = d if d else m
                coeff = m // dd
                if coeff % m:
                    cols.append(tuple(ring.reduce(coeff * x) for x in v_mat.column(j)))
        else:
            cols.append(v_mat.column(j))
    return from_columns(cols, a.cols)


def is_zero_map(f):
    """The module map f is zero modulo the relations of its target."""
    return f.tgt.contains_in_relations(f.matrix)


def chain_is_zero(f):
    """f is zero degree by degree, modulo the relations of its target."""
    return f.equals(zero_chain_map(f.src, f.tgt))


def slow_lincomb(rows, cols, terms):
    """The sum of lincomb's terms over Z, every product formed densely."""
    total = [[0] * cols for _ in range(rows)]
    for c, *factors in terms:
        if any(a is None for a in factors):
            continue
        if not factors:
            prod = IntMatrix.identity(cols)
        else:
            prod = factors[0] if len(factors) == 1 else slow_matmul(*factors)
        for out, row in zip(total, prod.data):
            out[:] = [x + c * y for x, y in zip(out, row)]
    return IntMatrix(rows, cols, tuple(map(tuple, total)))


def slow_lincomb_in_relations(tgt, cols, terms):
    """lincomb_in_relations the old way: the difference map formed from
    dense products and reduced, then membership through the Smith form."""
    total = slow_lincomb(tgt.generators, cols, terms)
    return slow_contains_in_relations(tgt, tgt.ring.reduce_matrix(total))


def slow_contains_in_relations(module, cols):
    """Membership read in the diagonal coordinates of slow_decomposition
    for every presentation: row i of to_diag . cols divisible by factor i."""
    if cols.rows != module.generators:
        raise InputError("membership test shape mismatch")
    if module.generators == 0 or cols.cols == 0:
        return True
    dec = slow_decomposition(module)
    image = module.ring.reduce_matrix(dec.to_diag @ cols)
    for i, a in enumerate(dec.factors):
        row = image.data[i]
        if a == 0:
            if any(x != 0 for x in row):
                return False
        elif any(x % a for x in row):
            return False
    return True


# ---------------------------------------------------------------------------
# validated builders of complexes, chain maps and homotopies, and
# null-homotopic chain maps, for building test inputs


def make_complex(ring, lo, modules, diffs=None, check=True):
    """A trimmed complex; diffs are ModuleMaps or matrices, all zero when
    None, and with check every map and every d . d is verified."""
    mods = tuple(modules)
    if any(m.ring != ring for m in mods):
        raise InputError("complex terms over the wrong ring")
    if diffs is None:
        ds = tuple(zero_map(mods[k], mods[k + 1]) for k in range(len(mods) - 1))
    else:
        raw = list(diffs)
        if len(raw) != max(len(mods) - 1, 0):
            raise InputError("complex needs one differential per adjacent pair")
        ds = []
        for k, d in enumerate(raw):
            if isinstance(d, ModuleMap):
                if d.src != mods[k] or d.tgt != mods[k + 1]:
                    raise InputError(f"differential {k} connects the wrong modules")
                if check and not d.is_well_defined():
                    raise InputError(f"differential {k} is not well defined")
                ds.append(d)
            else:
                ds.append(make_map(mods[k], mods[k + 1], d, check=check))
        ds = tuple(ds)
    cx = Complex(ring, lo, mods, ds)
    if check:
        for k in range(len(ds) - 1):
            if not is_zero_map(ds[k + 1] @ ds[k]):
                raise InputError(f"d.d is nonzero between degrees {lo + k} and {lo + k + 2}")
    return trim(cx)


def complexes_equal(a, b):
    """Same modules degreewise, differentials equal modulo relations."""
    if a.ring != b.ring:
        return False
    if not a.modules or not b.modules:
        return all(m.is_zero() for m in a.modules + b.modules)
    for i in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        if a.module(i) != b.module(i):
            return False
        if not a.differential(i).equals(b.differential(i)):
            return False
    return True


def make_chain_map(src, tgt, lo, components, check=True):
    comps = []
    for k, c in enumerate(components):
        i = lo + k
        if isinstance(c, ModuleMap):
            if c.src != src.module(i) or c.tgt != tgt.module(i):
                raise InputError(f"component at degree {i} connects the wrong modules")
            if check and not c.is_well_defined():
                raise InputError(f"component at degree {i} is not well defined")
            comps.append(c)
        else:
            comps.append(make_map(src.module(i), tgt.module(i), c, check=check))
    f = ChainMap(src, tgt, lo, tuple(comps))
    if check and not f.is_chain_map():
        raise InputError("components do not commute with the differentials")
    return f


def make_homotopy(src, tgt, lo, components, check=True):
    comps = []
    for k, raw in enumerate(components):
        i = lo + k
        a, b = src.module(i), tgt.module(i - 1)
        if isinstance(raw, ModuleMap):
            if raw.src != a or raw.tgt != b:
                raise InputError(f"homotopy component at degree {i} connects the wrong modules")
            if check and not raw.is_well_defined():
                raise InputError(f"homotopy component at degree {i} is not well defined")
            comps.append(raw)
        else:
            comps.append(make_map(a, b, raw, check=check))
    return Homotopy(src, tgt, lo, tuple(comps))


def null_homotopic_chain_map(rng, src, tgt):
    """d h + h d for a random h; always a chain map, always null-homotopic."""
    return random_homotopy(rng, src, tgt).boundary()


# ---------------------------------------------------------------------------
# constructions that only tests use: short exact sequences, the map
# between >= n truncations, lifts of resolutions along a map, padded
# resolutions and the derived hom compared across them


class ShortExactSequence(Record):
    """0 -> A -i-> B -p-> C -> 0, validated exactly."""

    __slots__ = ("i", "p")

    def __init__(self, i, p):
        _set(self, "i", i)
        _set(self, "p", p)


def short_exact_sequence(i, p):
    if i.tgt != p.src:
        raise InputError("legs of a short exact sequence must be composable")
    if not is_injective(i):
        raise WorkbenchError("first leg is not injective")
    if not is_surjective(p):
        raise WorkbenchError("second leg is not surjective")
    if not is_zero_map(p @ i):
        raise WorkbenchError("composite p . i is nonzero")
    kmod, incl = kernel(p)
    # image(i) = kernel(p): both inclusions factor through each other
    try:
        factor_through_mono(incl, i)
        factor_through_mono(i, incl)
    except WorkbenchError as exc:
        raise WorkbenchError("sequence is not exact in the middle") from exc
    return ShortExactSequence(i, p)


def truncate_geq_map(f, n):
    """Induced map between the >= n truncations.

    Returns (g, (src_trunc, src_proj), (tgt_trunc, tgt_proj)).
    """
    ts, proj_s = truncate_geq(f.src, n)
    tt, proj_t = truncate_geq(f.tgt, n)
    hi = max(ts.hi, tt.hi)
    comps = [
        factor_through_epi(proj_s.component(n), proj_t.component(n) @ f.component(n))
    ]
    for i in range(n + 1, hi + 1):
        comps.append(f.component(i))
    return ChainMap(ts, tt, n, tuple(comps)), (ts, proj_s), (tt, proj_t)


def lift_injective(f, r1):
    """Lift resolutions along f: M2 -> M1 given r1 resolving M1.

    Returns (r2, g: I2 -> I1, square_homotopy) with g . u2 = u1 . f; the
    construction happens to make the square strict, so the witness is
    the zero homotopy.
    """
    if r1.side != INJECTIVE or f.tgt != r1.source:
        raise InputError("r1 must be an injective resolution of the target of f")
    _require_injective_scope(f.src)
    q = r1.map @ f
    level, h, p, *_, g, hg = _extend_injective(q)
    r2 = _certificate(f.src, level, h, INJECTIVE, _recast(hg, cone(h).complex, -1, g))
    if not (p @ h).equals(r1.map @ f):
        raise WorkbenchError("lift square unexpectedly fails to commute strictly")
    return r2, p, zero_homotopy(f.src, r1.target)


def lift_projective(f, r2):
    """Lift resolutions along f: M2 -> M1 given r2 resolving M2.

    Returns (r1, g: P2 -> P1, square_homotopy) with v1 . g = f . v2
    strictly; the witness is the zero homotopy.
    """
    if r2.side != PROJECTIVE or f.src != r2.source:
        raise InputError("r2 must be a projective resolution of the source of f")
    a = f @ r2.map
    level, v, incl, *_, w, hw = _extend_projective(a)
    r1 = _certificate(f.tgt, level, v, PROJECTIVE, _recast(hw, cone(v).complex, 0, w))
    if not (v @ incl).equals(f @ r2.map):
        raise WorkbenchError("lift square unexpectedly fails to commute strictly")
    return r1, incl, zero_homotopy(r2.target, f.tgt)


def pad_resolution(cert, seed):
    """A different but equally valid resolution, varying with the seed.

    Pads the target with the cone of an identity map on a seeded cyclic
    module; torsion keeps the injective side in scope over the integers.
    """
    rng = random.Random(seed)
    ring = cert.target.ring
    order = rng.randint(2, 9)
    spot = rng.randint(cert.target.lo, max(cert.target.lo, cert.target.hi - 1))
    pad = cone(identity_chain_map(module_complex(cyclic_module(ring, order), spot))).complex
    total, injs, projs = direct_sum_complexes([cert.target, pad])
    if cert.side == INJECTIVE:
        res_map = injs[0] @ cert.map
        res_map = _rewindow_map(res_map, cert.source, total)
        return solved_certificate(cert.source, total, res_map, INJECTIVE)
    res_map = cert.map @ projs[0]
    res_map = _rewindow_map(res_map, total, cert.source)
    return solved_certificate(cert.source, total, res_map, PROJECTIVE)


class DegreeComparison(Record):
    """Invariant factors of two complexes, compared degree by degree."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        _set(self, "degrees", degrees)

    @property
    def ok(self):
        return all(left == right for left, right in self.degrees.values())


def _compare_homology(x, y):
    hx = homology_invariants(x)
    hy = homology_invariants(y)
    out = {}
    for i in sorted(set(hx) | set(hy)):
        out[i] = (hx.get(i, ()), hy.get(i, ()))
    return DegreeComparison(out)


def check_phom_invariance(m, n, seeds=(1, 2)):
    """Derived hom computed against two padded resolution pairs.

    Each seed perturbs both resolutions with a contractible summand; the
    two values must have the same homology invariant factors in every
    degree.
    """
    base = phom(m, n)
    values = []
    for seed in seeds:
        proj = pad_resolution(base.proj_res, seed)
        inj = pad_resolution(base.inj_res, seed)
        values.append(hom_complex(proj.target, inj.target).complex)
    return _compare_homology(values[0], values[1])


# ---------------------------------------------------------------------------
# factoring through an epi, maps induced on homology and by the termwise
# functors of one module, and the displayed conditions of each step of
# the two inductions


def factor_through_epi(epi, g):
    """Some X with X . epi = g; raises if g does not kill ker(epi).

    A generator-wise preimage of the identity postcomposed with g gives the
    candidate directly; whenever a factoring exists at all, g kills the
    kernel and the candidate is well defined and correct.
    """
    if epi.src != g.src:
        raise InputError("factor_through_epi: sources differ")
    ring = epi.src.ring
    sec = solve_linear(hstack(epi.matrix, epi.tgt.relations),
                       IntMatrix.identity(epi.tgt.generators), ring)
    if sec is not None:
        s_mat = _rows(sec, 0, epi.src.generators)
        x = ModuleMap(epi.tgt, g.tgt, ring.reduce_matrix(g.matrix @ s_mat))
        if x.is_well_defined() and (x @ epi).equals(g):
            return x
    # no section means the first argument is not onto; a failed candidate
    # means g does not kill the kernel; either way the joint solver is the
    # honest arbiter
    solver = MapSolver(ring)
    solver.add_map_unknown("x", epi.tgt, g.tgt)
    solver.add_equation([(IntMatrix.identity(g.tgt.generators), "x", epi.matrix)], g)
    joint = solver.solve()
    if joint is None:
        raise WorkbenchError("map does not factor through the epi")
    return joint["x"]


def homology_data(cx, i):
    """(H, incl: K -> C^i, proj: K -> H) for H = ker d^i / im d^(i-1)."""
    _, incl = kernel(cx.differential(i))
    h, proj = cokernel(factor_through_mono(incl, cx.differential(i - 1)))
    return h, incl, proj


def homology_map(f, i):
    """The induced map on homology in degree i."""
    h_src, incl_src, proj_src = homology_data(f.src, i)
    h_tgt, incl_tgt, proj_tgt = homology_data(f.tgt, i)
    v = factor_through_mono(incl_tgt, f.component(i) @ incl_src)
    return make_map(h_src, h_tgt, (proj_tgt @ v).matrix, check=True)


def tensor_module_chain_map(f, mod):
    src = tensor_module_complex(f.src, mod)
    tgt = tensor_module_complex(f.tgt, mod)
    ident = IntMatrix.identity(mod.generators)
    reduce = f.src.ring.reduce_matrix
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = [ModuleMap(src.module(i), tgt.module(i),
                       reduce(f.component(i).matrix.kron(ident)))
             for i in range(lo, hi + 1)]
    return ChainMap(src, tgt, lo, tuple(comps))


def hom_module_complex(mod, cx):
    """Apply Hom(mod, -) to every term."""
    homs = [hom_modules(mod, m) for m in cx.modules]
    mods = tuple(hm.module for hm in homs)
    diffs = []
    for k in range(len(cx.modules) - 1):
        diffs.append(hom_post(homs[k], homs[k + 1], cx.diffs[k]))
    return Complex(cx.ring, cx.lo, mods, tuple(diffs))


def hom_module_chain_map(mod, f):
    src = hom_module_complex(mod, f.src)
    tgt = hom_module_complex(mod, f.tgt)
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    comps = []
    for i in range(lo, hi + 1):
        c = f.component(i)
        comps.append(hom_post(hom_modules(mod, c.src), hom_modules(mod, c.tgt), c))
    return ChainMap(src, tgt, lo, tuple(comps))


def injective_step_conditions(cert, battery):
    """The two displayed conditions of the pushout induction, per probe.

    For each step degree k and probe N: (a) the induced map
    Coker(d^(k-1) (x) N) -> Coker(e^(k-1) (x) N) is injective, and
    (b) H^(k-1) of the tensored resolution map is an isomorphism.
    """
    m, i_cx, u = cert.source, cert.target, cert.map
    report = {}
    for probe in battery.probes:
        mn = tensor_module_complex(m, probe)
        in_cx = tensor_module_complex(i_cx, probe)
        un = tensor_module_chain_map(u, probe)
        per_probe = {}
        for k in range(i_cx.lo + 1, i_cx.hi + 2):
            cok_m, proj_m = cokernel(mn.differential(k - 1))
            cok_i, proj_i = cokernel(in_cx.differential(k - 1))
            induced = factor_through_epi(proj_m, proj_i @ un.component(k))
            hmap = homology_map(un, k - 1)
            per_probe[k] = (
                is_injective(induced),
                is_injective(hmap) and is_surjective(hmap),
            )
        report[probe.invariant_factors] = per_probe
    return report


def projective_step_conditions(cert, battery):
    """The dual displayed conditions of the pullback induction, per probe.

    For each step degree k and probe Q: (a) the induced map
    Ker(Hom(Q, e^k)) -> Ker(Hom(Q, d^k)) is surjective, and (b) the
    degree k+1 homology of Hom(Q, resolution map) is an isomorphism.
    """
    m, p_cx, v = cert.source, cert.target, cert.map
    report = {}
    for probe in battery.probes:
        hm = hom_module_complex(probe, m)
        hp = hom_module_complex(probe, p_cx)
        hv = hom_module_chain_map(probe, v)
        per_probe = {}
        for k in range(p_cx.lo - 1, p_cx.hi):
            ker_p, incl_p = kernel(hp.differential(k))
            ker_m, incl_m = kernel(hm.differential(k))
            induced = factor_through_mono(incl_m, hv.component(k) @ incl_p)
            hmap = homology_map(hv, k + 1)
            per_probe[k] = (
                is_surjective(induced),
                is_injective(hmap) and is_surjective(hmap),
            )
        report[probe.invariant_factors] = per_probe
    return report
