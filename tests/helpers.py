"""Independent oracles used to cross-check the library.

The first oracles call nothing of the elimination code under test: Smith
diagonals are recomputed from gcds of minors, solvability is decided by
exhaustive search over bounded boxes, and module arithmetic is checked
against hand enumeration.  The probe oracles at the end walk every
divisor candidate and tensor every probe directly, where the library
factors and reads composite probes off their prime-power parts, and
they build a homology module in every degree of every probe tensor,
where the library compares module orders.  The
assembly oracles after them build every induced map on Hom from full
maps (to_map, compose, from_map), every map between direct sums as a sum
of full-size inj . x . proj products, and the currying isomorphism by
decoding and re-encoding whole hom complexes, where the library reads
slots off one change-of-basis product and places blocks.  The oracles
near the end are the library's former paths, kept verbatim so the
leaner ones can be compared with them output for output: the Smith
elimination that tracked both inverses, exact solving through the full
U and V of the Smith form, LinearSystem assembly through dense
Kronecker products, and the tower path of resolve that certified the
(co)limit before minimizing it and certifying again.  A few constructions
that only tests use live here too: the chain maps induced on hom
complexes and the inverse of a unimodular matrix.  Keep it slow and
obvious.
"""

from itertools import combinations, permutations, product
from math import gcd

from purcat.exact_linalg import (
    IntMatrix,
    InputError,
    _unit_scaling_mod,
    from_columns,
    smith_normal_form,
    solve_linear,
)
from purcat.fpmod import (
    ModuleMap,
    block_map,
    cyclic_module,
    direct_sum,
    free_module,
    hom_modules,
    hom_post,
    hom_pre,
    identity_map,
    is_injective,
    tensor_map,
    tensor_modules,
    zero_map,
)
from purcat.complexes import (
    ChainMap,
    _window,
    homology,
    minimize_complex,
    tensor_complex,
    tensor_module_complex,
    trim,
)
from purcat.purity import ProbeBattery
from purcat.resolutions import (
    INJECTIVE,
    _certificate,
    _rewindow_map,
    colimit_tower,
    injective_tower,
    limit_tower,
    projective_tower,
    required_depth,
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


def slow_homology_degrees(cx):
    """Degrees of the window where cx has homology, one homology module each."""
    return [i for i in range(cx.lo, cx.hi + 1) if not homology(cx, i).is_zero()]


def probe_homology_degrees(cx, probe):
    """Degrees where probe (x) cx has homology, from a direct tensor."""
    return slow_homology_degrees(tensor_module_complex(cx, probe))


def slow_failing_probe_for_acyclic(cx, battery):
    """First probe whose direct tensor with cx has homology, with the degree."""
    for probe in battery.probes:
        degrees = probe_homology_degrees(cx, probe)
        if degrees:
            return probe, degrees[0]
    return None


def slow_failing_probe_for_mono(f, battery):
    """First probe whose direct tensor with f is not injective, with that map."""
    for probe in battery.probes:
        induced = tensor_map(identity_map(probe), f)
        if not is_injective(induced):
            return probe, induced
    return None


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
    col = IntMatrix.zeros(hc.complex.module(i).generators, 1)
    for j, (hm, inj, _) in _hom_summands(hc, i).items():
        if j in family:
            col = col + inj.matrix @ IntMatrix.column_vector(hm.from_map(family[j]))
    return hc.complex.ring.reduce_matrix(col)


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


def slow_adjunction_maps(w):
    """(forward, backward) component matrices of an AdjunctionWitness, rebuilt
    one unit column at a time through whole-complex decoding."""
    flat, inner, nested = w.flat, w.inner, w.nested
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
            coeff = right.transpose().kron(left)
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
# the tower path of resolve as it was: certify, minimize, certify again


def _slow_minimize_certificate(cert):
    mini, to_min, back_min = minimize_complex(cert.target)
    mini = trim(mini)
    if cert.side == INJECTIVE:
        res_map = _rewindow_map(to_min, cert.target, mini) @ cert.map
        res_map = _rewindow_map(res_map, cert.source, mini)
    else:
        res_map = cert.map @ _rewindow_map(back_min, mini, cert.target)
        res_map = _rewindow_map(res_map, mini, cert.source)
    return _certificate(cert.source, mini, res_map, cert.side)


def slow_resolve(m, side, depth=None):
    """resolve(m, side, depth) on the tower path (depth at least 1), with the
    (co)limit certified by limit_tower / colimit_tower and then minimized
    and certified again."""
    m = trim(m)
    use = required_depth(m, side) if depth is None else depth
    if side == INJECTIVE:
        tower, fs = injective_tower(m, use)
        cert = limit_tower(tower, fs)
    else:
        tower, fs = projective_tower(m, use)
        cert = colimit_tower(tower, fs)
    return _slow_minimize_certificate(cert)
