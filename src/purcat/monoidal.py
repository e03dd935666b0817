"""The closed structure: tensor descent, derived hom, and currying.

Tensoring with a fixed complex and smart truncation both send pure
quasi-isomorphisms to pure quasi-isomorphisms; that makes the tensor
product meaningful on pure-resolution representatives.  The derived hom
pairs a pure projective resolution of the first argument with a pure
injective resolution of the second, and the currying isomorphism
between hom-from-a-tensor and hom-into-a-hom is produced as an explicit
pair of mutually inverse chain maps.  They are read off slot by slot in
Smith coordinates: each Hom slot is curried (or uncurried) only into the
slots it can reach, one change-of-basis product per tensor block, and
no map is formed per basis element nor any whole hom complex decoded.
"""

from __future__ import annotations

from purcat.exact_linalg import IntMatrix, InputError, Record, _cols, _rows, from_columns
from purcat.fpmod import (
    HomModule,
    ModuleMap,
    block_map,
)
from purcat.complexes import (
    ChainMap,
    Complex,
    HomComplex,
    TensorComplex,
    hom_complex,
    tensor_complex,
    tensor_fixed_left_map,
    truncate_leq_map,
    vanishes,
)
from purcat.homotopy import hom_dpur, hom_k
from purcat.purity import is_pure_qis
from purcat.resolutions import (
    INJECTIVE,
    PROJECTIVE,
    _require_injective_scope,
    resolve,
)


# ---------------------------------------------------------------------------
# tensor descent


class TensorDescentReport(Record):
    """Evidence that a pure qis survives tensoring and truncation."""

    __slots__ = ("induced", "tensor_verdict", "truncation_verdicts")

    @property
    def ok(self) -> bool:
        return self.tensor_verdict.is_pure() and all(
            v.is_pure() for v in self.truncation_verdicts.values()
        )


def _truncation_cuts(u: ChainMap) -> tuple:
    lo = min(u.src.lo, u.tgt.lo)
    hi = max(u.src.hi, u.tgt.hi)
    return tuple(sorted({lo, (lo + hi) // 2, hi}))


def check_tensor_descends(u: ChainMap, a: Complex) -> TensorDescentReport:
    """Check that a (x) u and the truncations of u stay pure qis.

    u must itself be a pure quasi-isomorphism; the report carries the
    induced map on tensor products, its verdict, and a verdict for the
    induced map on <= n truncations at cuts spanning the window.  Each
    verdict is is_pure_qis's, which probes a NotPure cone with its
    smith_battery, the powers of the coprime base of its Smith entries.
    """
    if u.src.ring != a.ring:
        raise InputError("the fixed complex must live over the same ring")
    if not is_pure_qis(u).is_pure():
        raise InputError("check_tensor_descends needs a pure quasi-isomorphism")
    src_tc = tensor_complex(a, u.src)
    tgt_tc = tensor_complex(a, u.tgt)
    induced = tensor_fixed_left_map(src_tc, tgt_tc, u)
    tensor_verdict = is_pure_qis(induced)
    truncation_verdicts = {}
    for n in _truncation_cuts(u):
        tu, _, _ = truncate_leq_map(u, n)
        truncation_verdicts[n] = is_pure_qis(tu)
    return TensorDescentReport(induced, tensor_verdict, truncation_verdicts)


def tensor_swap(a: Complex, b: Complex) -> ChainMap:
    """The signed swap a (x) b -> b (x) a; an isomorphism of complexes.

    On the (i, j) slot a generator pair (p, q) goes to (q, p) with sign
    (-1)^(i*j); applying the swap twice gives back the identity.
    """
    if a.ring != b.ring:
        raise InputError("tensor swap needs complexes over one ring")
    ab = tensor_complex(a, b)
    ba = tensor_complex(b, a)
    x, y = ab.complex, ba.complex
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    comps = []
    for t in range(lo, hi + 1):
        back = {(i, j): start for i, j, start, _ in ba.slots(t)}
        blocks = []
        for i, j, start, _ in ab.slots(t):
            ga = a.module(i).generators
            gb = b.module(j).generators
            if (j, i) not in back or ga * gb == 0:
                continue
            cols = []
            for p in range(ga):
                for q in range(gb):
                    col = [0] * (ga * gb)
                    col[q * ga + p] = 1
                    cols.append(col)
            sign = -1 if (i % 2) and (j % 2) else 1
            blocks.append((back[(j, i)], start, sign, from_columns(cols, ga * gb)))
        comps.append(block_map(x.module(t), y.module(t), blocks))
    return ChainMap(x, y, lo, tuple(comps))


# ---------------------------------------------------------------------------
# currying between hom and tensor


class AdjunctionWitness(Record):
    """Mutually inverse chain maps realizing the currying isomorphism.

    forward runs from hom_complex((a (x) b), c) to
    hom_complex(a, hom_complex(b, c)); backward runs the other way, and
    both composites are the identity in every degree.
    """

    __slots__ = ("flat", "nested", "forward", "backward")


def _coordinate(hm: HomModule, slot, x: int) -> int:
    """hm.coordinate(slot, x), which is 0 for x = 0 without being asked."""
    return hm.coordinate(slot, x) if x else 0


def _read(hm: HomModule, lam: IntMatrix) -> list:
    """The coordinates of hm read off its diagonal-coordinate matrix lam."""
    return [_coordinate(hm, s, lam.data[s.tgt_index][s.src_index]) for s in hm.slots]


def _curry_block(hm_f: HomModule, seg: int, hm_bc: HomModule, hm_n: HomModule,
                 h_start: int, h_stop: int) -> list:
    """Nested coordinates of each basis map of hm_f, curried on one block.

    hm_f = Hom((a (x) b)^t, c^(n+t)), the block a^i (x) b^j starts at
    generator seg of its source, hm_bc = Hom(b^j, c^(n+i+j)) sits at
    generators h_start..h_stop of hom(b, c)^(n+i), and hm_n =
    Hom(a^i, hom(b, c)^(n+i)).  Returns one coordinate column (over
    hm_n's slots) per slot of hm_f; see adjunction_iso for the formula.
    """
    a, b = hm_n.source, hm_bc.source
    ga, gb = a.generators, b.generators
    u_t = hm_f.source.decomposition().to_diag
    u_b_inv = b.decomposition().from_diag
    u_a_inv = a.decomposition().from_diag
    u_h = _cols(hm_n.target.decomposition().to_diag, h_start, h_stop)
    by_row = {}  # segment . U_b^-1 depends on the row i_T only, not on j_C
    out = []
    for s in hm_f.slots:
        w = by_row.get(s.src_index)
        if w is None:
            row = u_t.data[s.src_index]
            block = tuple(row[seg + p * gb:seg + (p + 1) * gb] for p in range(ga))
            w = by_row[s.src_index] = (IntMatrix._trusted(ga, gb, block) @ u_b_inv).data
        piece = tuple(
            tuple(_coordinate(hm_bc, r, s.multiplier * w[p][r.src_index])
                  for p in range(ga))
            if r.tgt_index == s.tgt_index else (0,) * ga
            for r in hm_bc.slots)
        out.append(_read(hm_n, u_h @ IntMatrix._trusted(len(piece), ga, piece) @ u_a_inv))
    return out


def _uncurry_block(hm_n: HomModule, hm_bc: HomModule, h_start: int, h_stop: int,
                   hm_f: HomModule, seg: int) -> list:
    """Flat coordinates of each basis map of hm_n, uncurried on one block.

    The modules and offsets are those of _curry_block.  Returns one
    coordinate column (over hm_f's slots) per slot of hm_n; see
    adjunction_iso for the formula.
    """
    a, b = hm_n.source, hm_bc.source
    ga, gb = a.generators, b.generators
    gc = hm_bc.target.generators
    u_a = a.decomposition().to_diag
    u_b = b.decomposition().to_diag
    u_h_inv = _rows(hm_n.target.decomposition().from_diag, h_start, h_stop)
    u_t_inv = _rows(hm_f.source.decomposition().from_diag, seg, seg + ga * gb)
    out = []
    for s in hm_n.slots:
        lam = [[0] * gb for _ in range(gc)]
        for u, r in zip(u_h_inv.data, hm_bc.slots):
            lam[r.tgt_index][r.src_index] += u[s.tgt_index] * r.multiplier
        lam_b = IntMatrix._trusted(gc, gb, tuple(map(tuple, lam))) @ u_b
        v = IntMatrix._trusted(1, ga, (u_a.data[s.src_index],)).scale(s.multiplier)
        out.append(_read(hm_f, v.kron(lam_b) @ u_t_inv))
    return out


def adjunction_iso(tc: TensorComplex, flat: HomComplex, inner: HomComplex,
                   nested: HomComplex) -> AdjunctionWitness:
    """The currying isomorphism hom((a (x) b), c) ~ hom(a, hom(b, c)).

    Takes the four complexes it relates as the caller already holds them:
    tc = tensor_complex(a, b), flat = hom_complex(tc.complex, c),
    inner = hom_complex(b, c) and nested = hom_complex(a, inner.complex);
    complexes that do not fit together raise InputError.  A map of the
    flat slot Hom((a (x) b)^t, c^(n+t)) restricts to each tensor block
    a^i (x) b^j of degree t and curries into the inner slot
    Hom(b^j, c^(n+i+j)), which sits inside the nested slot
    Hom(a^i, hom(b, c)^(n+i)); uncurrying runs the same slots backwards.
    No signs appear, and the chain-map condition holds on the nose with
    the differential conventions used here.

    Both directions are read off in Smith coordinates, as fpmod._induced
    reads hom_post and hom_pre, and no map is formed per basis element.
    Write U_X for the to_diag of a module X (so U_X . X . V_X is
    diagonal) and U_X^-1 for its from_diag; U_X . U_X^-1 = I exactly
    over Z and modulo m over Z/m.  A map f: A -> B has Hom coordinates
    read at each slot (i, j) off the entry (j, i) of U_B . f . U_A^-1 by
    HomModule.coordinate, and the basis map of that slot is
    U_B^-1 . mult E(j, i) . U_A.

    Forward.  With T = (a (x) b)^t and C = c^(n+t), the basis map of
    the flat slot (i_T, j_C) is the outer product of column j_C of
    U_C^-1 and mult times row i_T of U_T.  Curried on the block (i, j),
    each generator p of a^i gives the map b^j -> C whose columns are
    that outer product on the segment p of the block, and its inner
    coordinates are read off

        U_C . U_C^-1 e_(j_C) . mult (row i_T of U_T, block (i, j),
        segment p) . U_b^-1  =  e_(j_C) . mult (segment p) . U_b^-1,

    the step U_C . U_C^-1 = I dropping C's bases altogether.  So the
    inner coordinates are nonzero only on slots (i_b, j_C), where they
    are read at entry i_b of mult (segment p) . U_b^-1.  These columns,
    one per p, form the block G of the map a^i -> hom(b, c)^(n+i) at
    the inner slot's generators, and its nested coordinates are read off
    one product U_H . G . U_a^-1 per degree, flat slot and tensor block
    (_curry_block).

    Backward.  Symmetrically, the basis map of the nested slot (i_a, j_H)
    is column j_H of U_H^-1 (restricted to the inner slot: coordinates u
    there) times mult row i_a of U_a, call it v.  Each generator p of
    a^i maps to the inner element v_p u, the map U_C^-1 . L . U_b with
    L the diagonal-coordinate matrix of u; on the block (i, j) these
    columns form kron(v, U_C^-1 . L . U_b), and the flat coordinates are
    read off U_C . kron(v, U_C^-1 . L . U_b) . (rows of U_T^-1 on the
    block) = kron(v, L . U_b) . (those rows), again by U_C . U_C^-1 = I
    (_uncurry_block).

    Why this equals the map-by-map construction: that construction
    reduces each intermediate matrix modulo m, and its products differ
    from these by the dropped U_C . U_C^-1, so every entry read agrees
    with the one here modulo m (exactly over Z).  HomModule.coordinate
    reduces its entry modulo the target factor b first, and b divides m
    (b = m for a free Z/m summand), so it returns the same coordinate
    for both; over Z nothing is reduced and the entries are equal.  An
    entry that is 0 modulo m reads as coordinate 0 there, which is the
    0 written for the slots (i_b, j) with j != j_C; for the same reason
    an entry that is 0 here is written as 0 without being read.
    """
    a, b = tc.left, tc.right
    if (flat.source != tc.complex or flat.target != inner.target
            or inner.source != b or nested.source != a
            or nested.target != inner.complex):
        raise InputError("adjunction complexes do not fit together")
    x, y = flat.complex, nested.complex
    ring = x.ring
    # tensor slot (i, j) -> its first generator; inner slots by (degree, j)
    pair_start = {(i, j): start for t in range(tc.complex.lo, tc.complex.hi + 1)
                  for i, j, start, _ in tc.slots(t)}
    inner_at = {(k, slot[0]): slot for k in range(inner.complex.lo, inner.complex.hi + 1)
                for slot in inner.slots(k)}
    lo = min(x.lo, y.lo)
    fwd = []
    bwd = []
    for n in range(lo, max(x.hi, y.hi) + 1):
        xg, yg = x.module(n).generators, y.module(n).generators
        to_nested = [[0] * xg for _ in range(yg)]
        to_flat = [[0] * yg for _ in range(xg)]
        nested_at = {i: (hm_n, start) for i, hm_n, start, _ in nested.slots(n)}
        for t, hm_f, f_start, _ in flat.slots(n):
            for i, j, seg, _ in tc.slots(t):
                if i not in nested_at or (n + i, j) not in inner_at:
                    continue
                hm_n, y_start = nested_at[i]
                _, hm_bc, h_start, h_stop = inner_at[(n + i, j)]
                cols = _curry_block(hm_f, seg, hm_bc, hm_n, h_start, h_stop)
                for k, col in enumerate(cols):
                    for r, val in enumerate(col):
                        to_nested[y_start + r][f_start + k] = val
                cols = _uncurry_block(hm_n, hm_bc, h_start, h_stop, hm_f, seg)
                for k, col in enumerate(cols):
                    for r, val in enumerate(col):
                        to_flat[f_start + r][y_start + k] = val
        fwd.append(ModuleMap(x.module(n), y.module(n), ring.reduce_matrix(
            IntMatrix._trusted(yg, xg, tuple(map(tuple, to_nested))))))
        bwd.append(ModuleMap(y.module(n), x.module(n), ring.reduce_matrix(
            IntMatrix._trusted(xg, yg, tuple(map(tuple, to_flat))))))
    forward = ChainMap(x, y, lo, tuple(fwd))
    backward = ChainMap(y, x, lo, tuple(bwd))
    return AdjunctionWitness(flat, nested, forward, backward)


def validate_adjunction_witness(w: AdjunctionWitness) -> bool:
    """Both directions are chain maps and compose to identities."""
    x, y = w.flat.complex, w.nested.complex
    if w.forward.src != x or w.forward.tgt != y:
        return False
    if w.backward.src != y or w.backward.tgt != x:
        return False
    if not w.forward.is_chain_map() or not w.backward.is_chain_map():
        return False
    return (vanishes(x, x, ((1, w.backward, w.forward), (-1,)))
            and vanishes(y, y, ((1, w.forward, w.backward), (-1,))))


# ---------------------------------------------------------------------------
# the derived hom


class DerivedHomResult(Record):
    """The hom complex of a projective-by-injective resolution pair."""

    __slots__ = ("hom", "proj_res", "inj_res")

    @property
    def value(self) -> Complex:
        return self.hom.complex


def phom(m: Complex, n: Complex) -> DerivedHomResult:
    """The derived hom: hom_complex(resolve(m) projective, resolve(n) injective).

    Both arguments are resolved by resolve, whose docstring proves that
    the reduced complex is a pure projective resolution of m and a pure
    injective one of n, so the value is the derived hom, and it is
    homotopy equivalent to hom_complex(m, n): hom complexes send homotopy
    equivalences in either argument to homotopy equivalences.  No tower
    is built, so phom takes no depth.  An n out of scope for pure
    injective resolutions (a free term over Z) is rejected before m is
    resolved.
    """
    _require_injective_scope(n)
    proj = resolve(m, PROJECTIVE)
    inj = resolve(n, INJECTIVE)
    return DerivedHomResult(hom_complex(proj.target, inj.target), proj, inj)


# ---------------------------------------------------------------------------
# the closed structure on the pure derived category


class LinkCheck(Record):
    """One isomorphism link: two invariant factor tuples that must agree."""

    __slots__ = ("name", "left", "right")

    @property
    def ok(self) -> bool:
        return self.left == self.right


class AdjunctionReport(Record):
    """Per-link evidence for the derived tensor-hom adjunction."""

    __slots__ = ("links", "witness_ok")

    @property
    def ok(self) -> bool:
        return self.witness_ok and all(link.ok for link in self.links)


def check_dpur_adjunction(a: Complex, b: Complex, c: Complex) -> AdjunctionReport:
    """Hom groups in the pure derived category agree across the adjunction.

    The end-to-end link compares hom_dpur((a (x) b), c) with
    hom_dpur(a, phom(b, c)); two intermediate links are asserted
    separately: replace both arguments by resolutions, then curry.  A c
    out of scope for pure injective resolutions is rejected before a and
    b are resolved.  The currying witness is built on the tensor and hom
    complexes the links already hold.

    a is resolved on the projective side by resolve, and the derived hom
    phom(b, c) supplies b's projective and c's injective resolution with
    the inner hom complex between them.  resolve builds no tower, so no
    depth is taken: it reduces each argument (reduce_complex), so the
    links are read off the reduced complexes, and its docstring proves
    that each certified resolution is homotopy equivalent to its source.  Tensor
    products and hom complexes send homotopy equivalences in either
    argument to homotopy equivalences, so the links read the same
    invariant factors from any certified resolutions, a tower's
    (co)limit included.  Every link compares invariant factors of H^0 of
    hom complexes: hom_dpur is hom_k for every bounded pair (its
    docstring), so no link compares hom_dpur with hom_k of the same pair,
    which would read one memoized group twice.  c alone is gated, since
    phom resolves it on the injective side.  The currying witness is a
    chain isomorphism on whatever complexes it is built from.
    """
    _require_injective_scope(c)
    pa = resolve(a, PROJECTIVE)
    bc = phom(b, c)
    pb, ic, inner = bc.proj_res, bc.inj_res, bc.hom
    tc = tensor_complex(pa.target, pb.target)
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
