"""Exact purity decisions with re-checkable witnesses.

Over the supported rings a finitely presented pure submodule splits and
a pure acyclic complex of finitely presented modules contracts, so
purity verdicts come from solvable linear systems.  Tensor probes stay
on as an independent necessary-condition oracle: every NotPure verdict
prefers a failing probe that plain homology can re-check.

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

Batteries over Z/m list the divisors of m from its factorization: small
primes by trial division, the rest by Pollard-Brent rho with
Miller-Rabin primality proofs.
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
    """Finitely presented test modules for tensor probing."""

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

    Pure carries the contracting homotopy.  NotPure carries a failing
    probe when the battery finds one, with the degree where its tensor
    has homology; otherwise only the unsolvability note.
    """

    __slots__ = ("verdict", "witness", "probe", "detail")

    def __init__(self, verdict: str, witness: object = None,
                 probe: Optional[FpModule] = None, detail: str = "") -> None:
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)
        _set(self, "probe", probe)
        _set(self, "detail", detail)

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
    """The standard battery: free rank 1 plus small cyclic torsion.

    Over Z the torsion probes are Z/d for 2 <= d <= bound.  Over Z/m they
    are R/(d) for the divisors 1 < d < m, listed in ascending order from
    the factorization of m; the divisors of m are complete for purity
    detection, so the bound only matters over Z.
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
    """Battery sized from the input: twice its largest entry or divisor."""
    return probe_battery(ring, 2 * _entry_bound(*objects))


# ---------------------------------------------------------------------------
# probe evaluation


def failing_probe_for_acyclic(cx: Complex, battery: ProbeBattery):
    """(probe, least degree where probe (x) cx has homology) or None.

    cx is eliminated once (smith_diagonals); each probe is then decided
    by homology_degrees from gcds with its invariant factors, and fails
    wherever one of its cyclic summands does.  Homology modules are
    built only where the free probe meets a free term over Z.
    """
    diagonals = smith_diagonals(cx)
    for probe in battery.probes:
        failed = [i for q in probe.invariant_factors
                  for i in homology_degrees(cx, q, diagonals)]
        if failed:
            return probe, min(failed)
    return None


# ---------------------------------------------------------------------------
# decisions


def is_pure_acyclic(cx: Complex, battery: Optional[ProbeBattery] = None) -> PurityVerdict:
    """Decide pure acyclicity by contract_complex.

    Over Z and Z/m, pure acyclic means contractible for a bounded complex
    of finitely presented modules: both rings are Noetherian, so every
    cycle module is finitely presented, and a pure exact sequence that
    ends in one splits.  Pure carries the contraction; NotPure carries
    the battery's first failing probe where there is one.
    """
    contraction = contract_complex(cx)
    if contraction is not None:
        return PurityVerdict(PURE, witness=contraction)
    if battery is None:
        battery = default_battery(cx.ring, cx)
    hit = failing_probe_for_acyclic(cx, battery)
    if hit is not None:
        probe, degree = hit
        return PurityVerdict(
            NOT_PURE, witness=degree, probe=probe,
            detail=f"probe tensor has homology in degree {degree}",
        )
    return PurityVerdict(
        NOT_PURE,
        detail="no contraction exists; no battery probe exhibits the failure",
    )


def is_pure_qis(f: ChainMap, battery: Optional[ProbeBattery] = None) -> PurityVerdict:
    """Decide whether the cone of f is pure acyclic."""
    return is_pure_acyclic(cone(f).complex, battery)
