"""Exact purity decisions with re-checkable witnesses.

Over the supported rings a finitely presented pure submodule splits and
a pure acyclic complex of finitely presented modules contracts, so
Pure is decided by complexes.reduce_complex, which is complete on
contractible complexes, and nothing is solved.  Pure is proven by its
checked contraction, which contracts every probe tensor too; NotPure
names the first probe of smith_battery whose tensor has homology, which
plain homology can re-check (is_pure_acyclic).  The battery is complete,
so the two decisions check each other: a complex with no contraction
and no failing probe is an error, not a verdict.

Probes are evaluated arithmetically, and no probe tensor is built.
Tensoring is right exact, so a term or cokernel coker(A) tensored with
R/(q) is presented by [A | qI]; with UAV = D diagonal that is
equivalent to [D | qI], of order the product of the gcd(d_r, q), a zero
entry or a row past the last column counting as q.  Over Z the free
probe is q = 0; over Z/m every invariant factor q divides m and the
free probe is q = m.  So one elimination per term and per differential
of the complex (complexes.smith_diagonals) gives the orders of every
probe tensor, and a probe tensor is exact in degree i exactly when the
order of its term is the product of the orders of the images into and
out of it (complexes.homology_degrees).  A probe with several invariant
factors is the direct sum of its cyclic summands, and homology and
kernels are additive, so it fails exactly where one of its summands
does.  Homology modules are only built where the orders are infinite,
in the degrees where the free probe meets a free term over Z.

The one battery is smith_battery: the free probe and the prime powers
R/(p^k) read off the same Smith diagonals, so it grows with the number
of primes and their exponents in the entries, not with the entries'
size.  Only those entries are factored (small primes by trial division,
the rest by Pollard-Brent rho with Miller-Rabin primality proofs); a
modulus is only ever divided.  probe_battery and default_battery, sized
by the entries, remain for the benchmark's corpus sizing and as the
tests' oracle.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from purcat.exact_linalg import InputError, Record, Ring, WorkbenchError, _set
from purcat.fpmod import FpModule, ModuleMap, cyclic_module, free_module
from purcat.complexes import ChainMap, Complex, cone, homology_degrees, smith_diagonals
from purcat.homotopy import contract_complex

PURE = "Pure"
NOT_PURE = "NotPure"


class ProbeBattery(Record):
    """Finitely presented test modules for tensor probing, one of them free
    of rank 1.  Verdicts probe with smith_battery; failing_probe_for_acyclic
    takes any battery, for the tests' oracles."""

    __slots__ = ("ring", "probes")

    def __init__(self, ring: Ring, probes: tuple) -> None:
        if not probes:
            raise InputError("a probe battery must not be empty")
        if not any(p.relations.cols == 0 and p.generators == 1 for p in probes):
            raise InputError("a probe battery must contain the free rank 1 module")
        _set(self, "ring", ring)
        _set(self, "probes", probes)


class PurityVerdict(Record):
    """Pure or NotPure, with evidence either way.

    Pure carries the contracting homotopy.  NotPure carries the first
    failing probe of smith_battery and, as its witness, the least degree
    where that probe's tensor has homology.
    """

    __slots__ = ("verdict", "witness", "probe")

    def __init__(self, verdict: str, witness: object = None,
                 probe: Optional[FpModule] = None) -> None:
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)
        _set(self, "probe", probe)

    def is_pure(self) -> bool:
        return self.verdict == PURE


# Miller-Rabin on the first 13 prime bases is deterministic below this
# bound (Sorenson & Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES; a proof for odd 1000 < n < _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# rho work on one cofactor above _MR_BOUND, in steps times squared bit
# length (a step's cost): about 2^20 steps, well under a second, at 92 bits
_RHO_WORK = 1 << 33


def _rho(n: int, limit: Optional[int] = None) -> Optional[int]:
    """A proper factor of n by Pollard-Brent rho.

    The walk y -> y^2 + c starts at 2 with c = 1, 2, ... until one split
    is found, so the result is deterministic.  Without a limit n must be
    composite.  With one, the walk returns None before it would take
    more than limit steps; n may then be prime.
    """
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if limit is not None and steps + 2 * r > limit:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += r
            r *= 2
        if g == n:
            # the batched product overshot: replay the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(n: int) -> list:
    """[(p, k), ...] with n the product of the p^k, p ascending.

    Factors below 1000 are divided out first, by trial division in
    ascending order (so only primes divide).  What is left is split by
    Pollard-Brent rho, and each factor is proven prime by Miller-Rabin
    before it is kept, so a prime near 10^18 costs a few modular powers,
    not 10^9 trial divisions.  Primality is proven that way only below
    _MR_BOUND (about 3.3e24), so a cofactor above it must split under
    the rho budget _RHO_WORK, and so must each part above the bound.
    """
    counts: dict = {}
    for p in range(2, 1000):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    rest = [n] if n > 1 else []
    while rest:
        x = rest.pop()
        if x < 10 ** 6 or (x < _MR_BOUND and _is_prime(x)):
            # after the small primes, anything below 1000^2 is prime
            counts[x] = counts.get(x, 0) + 1
            continue
        limit = _RHO_WORK // x.bit_length() ** 2 if x >= _MR_BOUND else None
        d = _rho(x, limit)
        if d is None:
            raise WorkbenchError(
                f"cannot factor {x}: it has no prime factor below 1000, rho finds "
                f"no split within {limit} steps, and primality is proven only "
                f"below {_MR_BOUND}")
        rest += [d, x // d]
    return sorted(counts.items())


def _divisors(n: int) -> list:
    """The positive divisors of n, ascending."""
    divs = [1]
    for p, k in _factor(n):
        divs = [d * p ** e for d in divs for e in range(k + 1)]
    return sorted(divs)


def probe_battery(ring: Ring, bound: int = 1) -> ProbeBattery:
    """The battery sized by a bound: free rank 1 plus small cyclic torsion.

    Over Z the torsion probes are Z/d for 2 <= d <= bound.  Over Z/m they
    are R/(d) for the divisors 1 < d < m, listed in ascending order from
    the factorization of m; the divisors of m are complete for purity
    detection, so the bound only matters over Z.  Verdicts use
    smith_battery; this one remains for the benchmark's corpus sizing
    and as the tests' oracle.
    """
    if bound < 1:
        raise InputError("battery bound must be at least 1")
    probes = [free_module(ring, 1)]
    if ring.modulus is None:
        for d in range(2, bound + 1):
            probes.append(cyclic_module(ring, d))
    else:
        for d in _divisors(ring.modulus)[1:-1]:
            probes.append(cyclic_module(ring, d))
    return ProbeBattery(ring, tuple(probes))


def _entry_bound(*objects) -> int:
    best = 1
    for obj in objects:
        if obj is None:
            continue
        if isinstance(obj, FpModule):
            best = max(best, obj.relations.max_abs())
            for a in obj.invariant_factors:
                best = max(best, abs(a))
        elif isinstance(obj, ModuleMap):
            best = max(best, obj.matrix.max_abs())
            best = max(best, _entry_bound(obj.src, obj.tgt))
        elif isinstance(obj, Complex):
            for m in obj.modules:
                best = max(best, _entry_bound(m))
            for d in obj.diffs:
                best = max(best, d.matrix.max_abs())
        elif isinstance(obj, ChainMap):
            best = max(best, _entry_bound(obj.src, obj.tgt))
            for c in obj.components:
                best = max(best, c.matrix.max_abs())
    return best


def default_battery(ring: Ring, *objects) -> ProbeBattery:
    """Battery sized from the input: twice its largest entry or divisor.

    Its length grows with the entries' size over Z.  Verdicts use
    smith_battery; this one remains for the benchmark's corpus sizing
    and as the tests' oracle.
    """
    return probe_battery(ring, 2 * _entry_bound(*objects))


def smith_battery(cx: Complex, diagonals: Optional[tuple] = None) -> ProbeBattery:
    """The free probe, then R/(q) for q = p^k ascending: for each prime p
    dividing a nonzero entry of cx's Smith diagonals, k = 1..K_p, with
    K_p the largest p-valuation among those entries.  Over Z/m every
    nonzero entry is a proper divisor of m (each pivot is scaled to
    gcd(pivot, m)), and so is every such p^k; m is never factored.

    diagonals are smith_diagonals(cx), computed here when not given.
    Only the entries are factored (_factor), so an entry that cannot be
    factored raises WorkbenchError.

    The battery is complete: if cx is not pure acyclic, one of its
    probes fails.  Then cx (x) M has homology for some finitely
    presented M, since every module is a filtered colimit of those and
    both tensor products and homology commute with such colimits.  Over
    Z and Z/m, M is a sum of copies of R and of R/(p^k) (k <= v_p(m)
    over Z/m), and homology is additive, so R, the free probe, or some
    R/(p^k) fails.  In degree i, cx (x) R/(p^k) is exact when an
    identity among quotient_orders of the diagonals holds
    (homology_degrees).  The base-p log of quotient_order(diag, p^k) is
    the sum of min(v_p(d), k) over its entries d, a zero entry counting
    k (over Z/m it stands for m, and k <= v_p(m)); so the identity
    reads E_i(k) = 0 for a signed sum E_i of such logs.  Let N_i be the
    same signed count of zero entries.
    - Over Z the zero entries count ranks, so N_i != 0 means cx (x) Q
      has homology in degree i; Q is flat, so cx has too, and the free
      probe fails in degree i.  Over Z/m every nonzero entry divides m,
      and the free probe's orders have base-p log E_i(v_p(m)), so when
      it passes in degree i, E_i(v_p(m)) = 0.
    - For k >= K_p every min(v_p(d), k) over a nonzero entry d is
      v_p(d), so E_i is affine there: E_i(k) = a + N_i k.  If p divides
      no nonzero entry, K_p = 0 and a = 0.
    So let the free probe pass in degree i.  Over Z, N_i = 0 and E_i is
    constant for k >= K_p, equal to E_i(K_p).  Over Z/m, E_i vanishes at
    v_p(m) >= K_p, so if it vanishes at K_p too it vanishes on all of
    [K_p, v_p(m)].  Either way R/(p^k) with k > K_p fails in degree i
    only if R/(p^K_p) does, and for K_p = 0 never.

    In ascending q its first failing probe is probe_battery's (and so
    default_battery's), in the same degree, wherever that battery finds
    one; both decide each probe from the same diagonals.  The free
    probe comes first in both.  Past it, let R/(d) be that battery's
    first failing probe.  R/(d) is the sum of the R/(p^v) with p^v
    exactly dividing d, so one of them fails, and it is listed no later
    than R/(d): so d = p^v.  The free probe passes, so p divides a
    nonzero entry, and v <= K_p, else R/(p^K_p) would fail before it.
    So R/(d) is listed here, and every probe listed here before it is a
    smaller proper divisor of m (over Z/m) or a smaller q (over Z),
    which that battery lists too, before R/(d), where it passes.
    """
    ring = cx.ring
    terms, images = diagonals or smith_diagonals(cx)
    tops: dict = {}
    for entry in {abs(d) for diag in terms + images for d in diag} - {0, 1}:
        for p, k in _factor(entry):
            tops[p] = max(tops.get(p, 0), k)
    qs = sorted(p ** k for p, top in tops.items() for k in range(1, top + 1))
    return ProbeBattery(ring, (free_module(ring, 1),)
                        + tuple(cyclic_module(ring, q) for q in qs))


# ---------------------------------------------------------------------------
# probe evaluation


def failing_probe_for_acyclic(cx: Complex, battery: ProbeBattery,
                              diagonals: Optional[tuple] = None):
    """(probe, least degree where probe (x) cx has homology) or None.

    cx is eliminated once (smith_diagonals, computed here when not
    given); each probe is then decided by homology_degrees from gcds
    with its invariant factors, and fails wherever one of its cyclic
    summands does.  Homology modules are built only where the free
    probe meets a free term over Z.
    """
    diagonals = diagonals or smith_diagonals(cx)
    for probe in battery.probes:
        failed = [i for q in probe.invariant_factors
                  for i in homology_degrees(cx, q, diagonals)]
        if failed:
            return probe, min(failed)
    return None


# ---------------------------------------------------------------------------
# decisions


def is_pure_acyclic(cx: Complex, diagonals: Optional[tuple] = None) -> PurityVerdict:
    """Decide pure acyclicity by contract_complex; name a failing probe if not.

    Over Z and Z/m, pure acyclic means contractible for a bounded complex
    of finitely presented modules: both rings are Noetherian, so every
    cycle module is finitely presented, and a pure exact sequence that
    ends in one splits.  Pure carries the contraction h, checked here
    (Homotopy.witnesses; WorkbenchError unless d h + h d = id).  It
    proves every probe P acyclic: - (x) P is additive, so
    (d (x) 1)(h (x) 1) + (h (x) 1)(d (x) 1) = (d h + h d) (x) 1 = id and
    h (x) 1 contracts C (x) P.  NotPure carries the first failing probe
    of smith_battery, which is complete, so a complex with no
    contraction and no failing probe raises WorkbenchError.  diagonals
    are smith_diagonals(cx), computed here when a NotPure verdict needs
    them and they are not given.
    """
    contraction = contract_complex(cx)
    if contraction is not None:
        if not contraction.witnesses():
            raise WorkbenchError("contraction fails d h + h d = id")
        return PurityVerdict(PURE, witness=contraction)
    diagonals = diagonals or smith_diagonals(cx)
    hit = failing_probe_for_acyclic(cx, smith_battery(cx, diagonals), diagonals)
    if hit is None:
        raise WorkbenchError("no contraction exists, yet no probe of the complete "
                             "battery fails: the two decisions disagree")
    probe, degree = hit
    return PurityVerdict(NOT_PURE, witness=degree, probe=probe)


def is_pure_qis(f: ChainMap) -> PurityVerdict:
    """Decide whether the cone of f is pure acyclic (is_pure_acyclic)."""
    return is_pure_acyclic(cone(f).complex)
