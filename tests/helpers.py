"""Independent oracles used to cross-check the library.

Nothing in here calls into the elimination code under test: Smith
diagonals are recomputed from gcds of minors, solvability is decided by
exhaustive search over bounded boxes, and module arithmetic is checked
against hand enumeration.  The probe oracles at the end walk every
divisor candidate and tensor every probe directly, where the library
factors and reads composite probes off their prime-power parts.  Keep
it slow and obvious.
"""

from itertools import combinations, permutations, product
from math import gcd

from purcat.exact_linalg import IntMatrix
from purcat.fpmod import (
    cyclic_module,
    free_module,
    identity_map,
    is_injective,
    tensor_map,
)
from purcat.complexes import homology, tensor_module_complex
from purcat.purity import ProbeBattery


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


def homology_degrees(cx, probe):
    """Degrees where probe (x) cx has homology, from a direct tensor."""
    tensored = tensor_module_complex(cx, probe)
    return [i for i in range(tensored.lo, tensored.hi + 1)
            if not homology(tensored, i).is_zero()]


def slow_failing_probe_for_acyclic(cx, battery):
    """First probe whose direct tensor with cx has homology, with the degree."""
    for probe in battery.probes:
        degrees = homology_degrees(cx, probe)
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
