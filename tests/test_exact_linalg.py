import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from purcat.exact_linalg import (
    IntMatrix,
    InputError,
    LinearSystem,
    SmithDecomposition,
    ZZ,
    Zmod,
    block_diag,
    hstack,
    kernel_basis,
    lincomb,
    smith_normal_form,
    solve_linear,
)
from purcat.fpmod import block_map, direct_sum, kernel, make_map, make_module

import purcat.exact_linalg as exact_linalg
from helpers import (
    brute_solve_column,
    dense_linear_system,
    det_int,
    expected_smith_diagonal,
    invert_unimodular,
    mat,
    random_matrix_rows,
    slow_kernel_basis,
    slow_lincomb,
    slow_matmul,
    slow_smith_normal_form,
    slow_solve_linear,
)

RINGS = [ZZ, Zmod(2), Zmod(5), Zmod(6), Zmod(8), Zmod(12)]


def assert_invertible(x, ring):
    """det x is a unit: +-1 over Z, coprime to m over Z/m."""
    det = det_int(x.data)
    if ring.modulus is None:
        assert det in (1, -1), f"det {det} of {x.data} is not a unit over Z"
    else:
        assert gcd(det, ring.modulus) == 1, f"det {det} of {x.data} is not a unit mod m"


def check_decomposition(a, ring, snf):
    left = ring.reduce_matrix(snf.u @ a @ snf.v)
    assert left == snf.d, f"U A V != D for {a.data} over {ring}"
    assert_invertible(snf.u, ring)
    assert_invertible(snf.v, ring)
    assert snf.u_inv is None
    # asking for the inverse changes nothing else, and records U^-1
    with_inv = smith_normal_form(a, ring, inverse=True)
    assert (with_inv.u, with_inv.d, with_inv.v) == (snf.u, snf.d, snf.v)
    ident_r = IntMatrix.identity(a.rows)
    assert ring.reduce_matrix(snf.u @ with_inv.u_inv) == ident_r
    assert ring.reduce_matrix(with_inv.u_inv @ snf.u) == ident_r
    # diagonal shape and divisibility chain
    for i in range(snf.d.rows):
        for j in range(snf.d.cols):
            if i != j:
                assert snf.d.at(i, j) == 0
    diag = snf.diagonal()
    m = ring.modulus
    for x, y in zip(diag, diag[1:]):
        xx = x if (m is None or x) else m
        yy = y if (m is None or y) else m
        if xx:
            assert yy % xx == 0, f"divisibility chain broken: {diag}"
        else:
            assert yy == 0
    if m is not None:
        for x in diag:
            assert 0 <= x < m
            assert (m % x == 0) if x else True, f"diagonal {x} does not divide {m}"
    else:
        assert all(x >= 0 for x in diag)


def test_smith_frozen_examples():
    snf = smith_normal_form(mat([[2, 4], [6, 8]]), ZZ)
    assert snf.diagonal() == [2, 4]

    snf = smith_normal_form(mat([[3]]), Zmod(6))
    assert snf.diagonal() == [3]

    snf = smith_normal_form(IntMatrix.identity(3), ZZ)
    assert snf.d == IntMatrix.identity(3)


def test_smith_empty_and_zero():
    snf = smith_normal_form(IntMatrix.zeros(2, 3), ZZ)
    assert snf.diagonal() == [0, 0]
    snf = smith_normal_form(IntMatrix.zeros(0, 3), ZZ)
    assert snf.d.rows == 0 and snf.d.cols == 3
    snf = smith_normal_form(IntMatrix.zeros(3, 0), Zmod(4))
    assert snf.d.cols == 0


@pytest.mark.parametrize("ring", RINGS)
def test_smith_random_against_minors_oracle(ring):
    rng = random.Random(1801 + (ring.modulus or 0))
    for _ in range(60):
        r = rng.randint(0, 4)
        c = rng.randint(0, 4)
        rows = random_matrix_rows(rng, r, c)
        a = ring.reduce_matrix(mat(rows)) if r and c else IntMatrix.zeros(r, c)
        snf = smith_normal_form(a, ring)
        check_decomposition(a, ring, snf)
        lifted = a.data
        expected = expected_smith_diagonal(lifted, ring.modulus)
        assert snf.diagonal() == expected, (
            f"diagonal {snf.diagonal()} != oracle {expected} for {lifted} over {ring}"
        )


SNF_RINGS = (ZZ, Zmod(12), Zmod(72))


@st.composite
def small_matrices(draw, max_side=5, bound=30):
    """(matrix, ring); 0-row and 0-column shapes included."""
    ring = draw(st.sampled_from(SNF_RINGS))
    r, c = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return (ring.reduce_matrix(IntMatrix(r, c, tuple(map(tuple, rows)))), ring)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_smith_matches_the_elimination_tracking_both_inverses(case):
    a, ring = case
    u, d, v, u_inv, _ = slow_smith_normal_form(a, ring)
    snf = smith_normal_form(a, ring)
    assert (snf.u, snf.d, snf.v) == (u, d, v)
    assert snf.u_inv is None
    assert smith_normal_form(a, ring, inverse=True) == SmithDecomposition(ring, u, d, v, u_inv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_smith_diagonal_matches_sympy(r, c, data):
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    sympy = pytest.importorskip("sympy")
    rows = data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=c, max_size=c),
                              min_size=r, max_size=r))
    theirs = normalforms.smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    want = [int(theirs[i, i]) for i in range(min(r, c))]
    assert smith_normal_form(mat(rows), ZZ).diagonal() == want, rows


def test_smith_is_deterministic():
    rng = random.Random(77)
    for _ in range(20):
        rows = random_matrix_rows(rng, 3, 3)
        a = mat(rows)
        first = smith_normal_form(a, ZZ)
        second = smith_normal_form(a, ZZ)
        assert first == second


def full_check(x):
    """The public constructor's shape check on the same fields."""
    return IntMatrix(x.rows, x.cols, x.data) == x


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_matrices(max_side=3, bound=9), small_matrices(max_side=3, bound=9),
       st.integers(-3, 3))
def test_trusted_producers_pass_the_shape_check(first, second, c):
    (a, ring), (b, _) = first, second
    b_same = IntMatrix.zeros(a.rows, a.cols) if b.rows != a.rows or b.cols != a.cols else b
    b_chain = IntMatrix.identity(a.cols) if b.rows != a.cols else b
    outputs = [
        a @ b_chain, a.scale(c), a.kron(b),
        lincomb(ring, a.rows, a.cols, ((1, a), (1, b_same))),
        lincomb(ring, a.rows, a.cols, ((1, a), (-1, b_same), (c, a))),
        lincomb(ring, a.rows, b_chain.cols, ((c, a, b_chain),)),
        lincomb(ring, a.rows, a.rows, ((1,), (-1, a, IntMatrix.zeros(a.cols, a.rows)))),
        IntMatrix.zeros(a.rows, b.cols), IntMatrix.identity(a.rows),
        hstack(a, IntMatrix.zeros(a.rows, b.cols)),
        ring.reduce_matrix(a),
    ]
    snf = smith_normal_form(a, ring, inverse=True)
    outputs += [snf.u, snf.d, snf.v, snf.u_inv]
    mods = [make_module(ring, x.rows, x) for x in (a, b)]
    total, injs, projs = direct_sum(mods)
    outputs += [f.matrix for f in injs + projs]
    src, tgt = make_module(ring, a.cols + b.cols), make_module(ring, a.rows + b.rows)
    outputs.append(block_map(src, tgt, [(0, 0, 1, a), (a.rows, a.cols, -1, b)]).matrix)
    for x in outputs:
        assert full_check(x), f"{x.rows}x{x.cols} data {x.data}"


# Products and assembly skip zero entries; the dense oracles and the
# definitions below visit every entry.  Inputs run from all zeros to no
# zeros, with 0-row and 0-column shapes, negative entries and entries
# past 2^64.

BIG = 2 ** 64


def sparse_matrix(rng, rows, cols, density):
    """rows x cols, each entry nonzero with probability density / 100."""
    def entry():
        if rng.randrange(100) >= density:
            return 0
        x = rng.choice((rng.randint(1, 12), rng.randint(BIG, 4 * BIG)))
        return -x if rng.random() < 0.5 else x
    return IntMatrix(rows, cols, tuple(tuple(entry() for _ in range(cols))
                                       for _ in range(rows)))


def dense_kron(a, b):
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, tuple(
        tuple(a.at(i1, j1) * b.at(i2, j2) for j1 in range(a.cols) for j2 in range(b.cols))
        for i1 in range(a.rows) for i2 in range(b.rows)))


def dense_block_diag(mats):
    cols = sum(m.cols for m in mats)
    out = []
    c0 = 0
    for m in mats:
        for i in range(m.rows):
            out.append([m.at(i, j - c0) if c0 <= j < c0 + m.cols else 0 for j in range(cols)])
        c0 += m.cols
    return IntMatrix(len(out), cols, tuple(map(tuple, out)))


SHAPES = st.integers(0, 6)
DENSITIES = st.integers(0, 100)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ring=st.sampled_from(SNF_RINGS),
       shape=st.tuples(SHAPES, SHAPES, SHAPES), densities=st.tuples(DENSITIES, DENSITIES))
@example(seed=1, ring=ZZ, shape=(0, 3, 2), densities=(100, 100))
@example(seed=2, ring=Zmod(12), shape=(3, 0, 2), densities=(100, 100))
@example(seed=3, ring=Zmod(72), shape=(2, 3, 0), densities=(100, 0))
@example(seed=4, ring=Zmod(12), shape=(4, 5, 3), densities=(0, 100))
@example(seed=5, ring=Zmod(72), shape=(5, 4, 6), densities=(100, 100))
def test_sparse_products_and_assembly_match_dense_oracles(seed, ring, shape, densities):
    rng = random.Random(seed)
    (r, k, c), (da, db) = shape, densities
    a, b = sparse_matrix(rng, r, k, da), sparse_matrix(rng, k, c, db)
    for x, y in ((a, b), (ring.reduce_matrix(a), ring.reduce_matrix(b))):
        product = x @ y
        assert product == slow_matmul(x, y)
        assert full_check(product)
        assert x.kron(y) == dense_kron(x, y)
        assert full_check(x.kron(y))
    with pytest.raises(InputError):
        a @ sparse_matrix(rng, k + 1, c, db)
    reduced = ring.reduce_matrix(a)
    assert full_check(reduced)
    assert reduced.data == tuple(tuple(ring.reduce(x) for x in row) for row in a.data)
    mats = [a, b, sparse_matrix(rng, c, r, da), IntMatrix.zeros(k, 0), IntMatrix.zeros(0, c)]
    rng.shuffle(mats)
    for n in range(len(mats) + 1):
        assembled = block_diag(*mats[:n])
        assert assembled == dense_block_diag(mats[:n])
        assert full_check(assembled)
    assert IntMatrix.identity(r) == IntMatrix(r, r, tuple(
        tuple(int(i == j) for j in range(r)) for i in range(r)))


def test_ragged_data_is_rejected():
    with pytest.raises(InputError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(InputError):
        IntMatrix(1, 2, ((1, 2), (3, 4)))
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1], [2, 3]])


def test_solve_frozen_examples():
    assert solve_linear(mat([[2]]), mat([[3]]), ZZ) is None
    x = solve_linear(mat([[2]]), mat([[3]]), Zmod(5))
    assert x == mat([[4]])
    with pytest.raises(InputError):
        solve_linear(mat([[1, 2]]), mat([[1], [2]]), ZZ)


@pytest.mark.parametrize("ring", RINGS)
def test_solve_random(ring):
    rng = random.Random(2202 + (ring.modulus or 0))
    for _ in range(60):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        k = rng.randint(1, 2)
        a = ring.reduce_matrix(mat(random_matrix_rows(rng, r, c, -5, 5)))
        if rng.random() < 0.5:
            # solvable by construction
            x0 = ring.reduce_matrix(mat(random_matrix_rows(rng, c, k, -4, 4)))
            b = ring.reduce_matrix(a @ x0)
        else:
            b = ring.reduce_matrix(mat(random_matrix_rows(rng, r, k, -5, 5)))
        x = solve_linear(a, b, ring)
        if x is not None:
            assert ring.reduce_matrix(a @ x) == b, "returned solution does not verify"
        else:
            # None means at least one column has no solution
            founds = [
                brute_solve_column(a.data, [b.at(i, j) for i in range(r)],
                                   ring.modulus, bound=8)
                for j in range(k)
            ]
            assert any(f is None for f in founds), (
                f"solver said unsolvable but box search solved every column: "
                f"{a.data} X = {b.data} over {ring}"
            )


@st.composite
def linear_systems(draw, max_side=4, bound=12):
    """(A, B, ring) with B solvable by construction about half the time;
    empty shapes and several right-hand columns included."""
    a, ring = draw(small_matrices(max_side=max_side, bound=bound))
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
                           min_size=a.cols, max_size=a.cols))
        b = a @ IntMatrix(a.cols, k, tuple(map(tuple, x0)))
    else:
        b = IntMatrix(a.rows, k, tuple(map(tuple, draw(st.lists(
            st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
            min_size=a.rows, max_size=a.rows)))))
    return a, b, ring


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(linear_systems())
def test_solve_matches_the_full_smith_change_of_basis(case):
    a, b, ring = case
    x = solve_linear(a, b, ring)
    assert x == slow_solve_linear(a, b, ring), f"{a.data} X = {b.data} over {ring}"
    if x is not None:
        assert full_check(x)
        assert ring.reduce_matrix(a @ x) == ring.reduce_matrix(b)


def test_solve_never_forms_the_smith_decomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_linear asked for U and V")

    monkeypatch.setattr(exact_linalg, "smith_normal_form", refuse)
    assert solve_linear(mat([[2, 4], [6, 8]]), mat([[2], [6]]), ZZ) == mat([[1], [0]])
    assert solve_linear(mat([[2]]), mat([[3]]), ZZ) is None
    assert solve_linear(mat([[3]]), mat([[1]]), Zmod(7)) == mat([[5]])
    sys = LinearSystem(Zmod(12))
    sys.add_unknown("x", 1, 1)
    sys.add_equation([(mat([[5]]), "x", mat([[1]]))], mat([[1]]))
    assert sys.solve() == {"x": mat([[5]])}


def test_kernel_frozen_examples():
    k = kernel_basis(mat([[2]]), Zmod(4))
    assert k == mat([[2]])
    k = kernel_basis(mat([[1]]), ZZ)
    assert k.cols == 0
    k = kernel_basis(IntMatrix.zeros(1, 2), ZZ)
    assert k.cols == 2


@pytest.mark.parametrize("ring", RINGS)
def test_kernel_random(ring):
    rng = random.Random(3303 + (ring.modulus or 0))
    for _ in range(50):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        a = ring.reduce_matrix(mat(random_matrix_rows(rng, r, c, -5, 5)))
        ker = kernel_basis(a, ring)
        if ker.cols:
            assert ring.reduce_matrix(a @ ker).is_zero(), "kernel columns not annihilated"
        # completeness: every kernel vector in a box is a combination
        vals = range(ring.modulus) if ring.modulus else range(-4, 5)
        import itertools
        count = 0
        for cand in itertools.product(vals, repeat=c):
            vec = IntMatrix.from_rows([[v] for v in cand])
            if ring.reduce_matrix(a @ vec).is_zero():
                count += 1
                if count > 40:
                    break
                sol = solve_linear(ker, vec, ring) if ker.cols else (
                    vec if vec.is_zero() else None
                )
                if ker.cols == 0 and vec.is_zero():
                    sol = IntMatrix.zeros(0, 1)
                assert sol is not None, (
                    f"kernel vector {cand} of {a.data} over {ring} not in span"
                )


@st.composite
def unreduced_matrices(draw, max_side=6):
    """(matrix, ring) as callers may pass them: shapes 0..6, whole zero
    rows and columns, negative and unreduced entries and multiples of m."""
    ring = draw(st.sampled_from(SNF_RINGS))
    m = ring.modulus or 12
    r, c = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    entry = st.one_of(st.sampled_from((0, 0, 0, 1, -1, m, -m, 2 * m + 3, m // 2)),
                      st.integers(-3 * m, 3 * m))
    zero_rows = draw(st.sets(st.integers(0, max_side), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max_side), max_size=2))
    rows = tuple(tuple(0 if i in zero_rows or j in zero_cols else draw(entry)
                       for j in range(c)) for i in range(r))
    return IntMatrix(r, c, rows), ring


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(unreduced_matrices(), st.booleans())
def test_kernels_and_factors_read_in_any_order_match_the_full_elimination(case, kernel_first):
    a, ring = case
    u, d, v, u_inv, _ = slow_smith_normal_form(a, ring)
    smith_normal_form.cache_clear()
    if kernel_first:
        assert kernel_basis(a, ring) == slow_kernel_basis(a, ring), f"{a.data} over {ring}"
    snf, with_inv = smith_normal_form(a, ring), smith_normal_form(a, ring, inverse=True)
    assert (with_inv.u, with_inv.u_inv) == (u, u_inv)
    assert snf.diagonal() == with_inv.diagonal() == [d.at(i, i) for i in range(min(d.rows, d.cols))]
    assert (snf.v, snf.u, snf.d, snf.u_inv) == (v, u, d, None)
    assert (with_inv.d, with_inv.v) == (d, v)
    assert kernel_basis(a, ring) == slow_kernel_basis(a, ring), f"{a.data} over {ring}"


def test_kernels_and_decompositions_form_only_the_factors_they_read(monkeypatch):
    def carried_only(name):
        form = getattr(SmithDecomposition, name).fget

        def get(snf):
            assert getattr(snf, "_" + name) is not None, f"formed {name} for {snf._a.data}"
            return form(snf)

        return property(get)

    smith_normal_form.cache_clear()
    for name in ("u", "d", "v"):
        monkeypatch.setattr(SmithDecomposition, name, carried_only(name))
    assert kernel_basis(mat([[2, 4], [6, 8]]), ZZ).cols == 0
    assert kernel_basis(mat([[2, 4, 6]]), Zmod(12)) == mat([[6, 10, 9], [0, 1, 0], [0, 0, 1]])
    module = make_module(Zmod(72), 2, mat([[4, 6], [6, 9]]))
    assert module.decomposition().factors == (1, 72)
    f = make_map(module, module, mat([[6, 0], [0, 6]]))
    k, _ = kernel(f)
    assert k.invariant_factors == (6,)
    with pytest.raises(AssertionError, match="formed v"):
        smith_normal_form(module.relations, Zmod(72), inverse=True).v


def test_invert_unimodular():
    u = mat([[1, 2], [0, 1]])
    assert invert_unimodular(u, ZZ) == mat([[1, -2], [0, 1]])
    with pytest.raises(InputError):
        invert_unimodular(mat([[2]]), ZZ)
    inv = invert_unimodular(mat([[3]]), Zmod(7))
    assert inv == mat([[5]])


@st.composite
def map_equations(draw, bound=5):
    """A LinearSystem of one to three equations in up to three unknowns,
    with sparse coefficients and 0-sized shapes included."""
    ring = draw(st.sampled_from(SNF_RINGS))
    side = st.integers(0, 3)
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, bound))

    def matrix(rows, cols):
        return IntMatrix(rows, cols, tuple(tuple(draw(st.lists(
            entry, min_size=cols, max_size=cols))) for _ in range(rows)))

    system = LinearSystem(ring)
    shapes = [(draw(side), draw(side)) for _ in range(draw(st.integers(1, 3)))]
    for key, (rows, cols) in enumerate(shapes):
        system.add_unknown(key, rows, cols)
    for _ in range(draw(st.integers(1, 3))):
        h, w = draw(side), draw(side)
        keys = draw(st.lists(st.sampled_from(range(len(shapes))), max_size=3))
        terms = [(matrix(h, shapes[key][0]), key, matrix(shapes[key][1], w))
                 for key in keys]
        system.add_equation(terms, matrix(h, w))
    return system


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(map_equations())
def test_linear_system_assembles_the_dense_kronecker_matrix(system):
    _, big, rhs = system._assemble()
    assert (big, rhs) == dense_linear_system(system)
    assert full_check(big) and full_check(rhs)
    sol = system.solve()
    if big.rows:
        want = slow_solve_linear(big, rhs, system.ring)
        assert (sol is None) == (want is None)
    if sol is not None:
        for terms, c in system._equations:
            total = [(1, left @ sol[key], right) for left, key, right in terms]
            assert system.ring.reduce_matrix(slow_lincomb(c.rows, c.cols, total + [(-1, c)])).is_zero()


def test_linear_system_basic():
    sys = LinearSystem(ZZ)
    sys.add_unknown("x", 2, 2)
    left = mat([[2, 0], [0, 2]])
    sys.add_equation([(left, "x", IntMatrix.identity(2))], mat([[4, 2], [0, 6]]))
    sol = sys.solve()
    assert sol is not None
    assert left @ sol["x"] == mat([[4, 2], [0, 6]])


def test_linear_system_two_unknowns():
    # x * [[2]] + [[3]] * y = [[7]] over Z: e.g. x = 2, y = 1
    sys = LinearSystem(ZZ)
    sys.add_unknown("x", 1, 1)
    sys.add_unknown("y", 1, 1)
    one = IntMatrix.identity(1)
    sys.add_equation([(mat([[2]]), "x", one), (mat([[3]]), "y", one)], mat([[7]]))
    sol = sys.solve()
    assert sol is not None
    assert 2 * sol["x"].at(0, 0) + 3 * sol["y"].at(0, 0) == 7


def test_linear_system_unsolvable():
    sys = LinearSystem(ZZ)
    sys.add_unknown("x", 1, 1)
    sys.add_equation([(mat([[2]]), "x", IntMatrix.identity(1))], mat([[3]]))
    assert sys.solve() is None


def test_linear_system_sandwich():
    # L X R = C with known solution over Z/6
    ring = Zmod(6)
    left = mat([[1, 1], [0, 1]])
    right = mat([[1, 2], [0, 1]])
    x0 = mat([[2, 1], [3, 0]])
    c = ring.reduce_matrix(left @ x0 @ right)
    sys = LinearSystem(ring)
    sys.add_unknown("x", 2, 2)
    sys.add_equation([(left, "x", right)], c)
    sol = sys.solve()
    assert sol is not None
    assert ring.reduce_matrix(left @ sol["x"] @ right) == c
