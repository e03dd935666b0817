"""Seeded workspace corpora for the benchmark workloads.

Each workload is a fixed mix of item kinds.  An item is one workspace
file plus the command to run on it and the outcome known from how the
item was built, so the checker never has to trust the program under
test for the expected answer (the one exception, resolve, compares two
different code paths: the homology of the source against the homology
of the resolution the program returns).

The program sees only the files written here: write_corpus() encodes
every workspace with serialize.serialize_input and records the expected
outcomes in a manifest the benchmark keeps to itself.
"""

from __future__ import annotations

import os
import random

from purcat.exact_linalg import Ring, ZZ, Zmod
from purcat.fpmod import cyclic_module, free_module, make_map
from purcat.complexes import Complex, cone, direct_sum_complexes, homology_invariants
from purcat.purity import default_battery
from purcat.randgen import random_complex, random_pure_acyclic, random_pure_qis
from purcat.serialize import WorkbenchInput, serialize_input

PURE, NOT_PURE = "Pure", "NotPure"


def _workspace(ring: Ring, complexes: dict, maps=None, **parameters) -> WorkbenchInput:
    return WorkbenchInput(ring, complexes=dict(complexes), maps=dict(maps or {}),
                          parameters=parameters)


def _nonzero_homology(table: dict) -> dict:
    return {f"H^{i}": list(v) for i, v in sorted(table.items()) if v}


def _factor_count(cx: Complex) -> int:
    return sum(len(m.invariant_factors) for m in cx.modules)


def _torsion_count(cx: Complex) -> int:
    """Invariant factors that are not free summands (0 over Z, m over Z/m)."""
    free = cx.ring.modulus or 0
    return sum(1 for m in cx.modules for f in m.invariant_factors if f != free)


def _generators(cx: Complex) -> int:
    return sum(m.generators for m in cx.modules)


def _probes(ring: Ring, *objects) -> int:
    return len(default_battery(ring, *objects).probes)


def _shaped_complex(rng, ring: Ring, lo: int, length: int, factors: int,
                    max_gens: int = 2, torsion=None) -> Complex:
    """A random complex on [lo, lo + length - 1] with every term nonzero,
    exactly ``factors`` nontrivial invariant factors in all and, when given,
    exactly ``torsion`` of them not free summands.

    Cost follows shape far more than entries, so drawing every item of a
    kind at one shape keeps the per-item cost spread, and with it the
    seed-to-seed spread of a workload, small.
    """
    while True:
        cx = random_complex(rng, ring, lo, length, max_gens=max_gens)
        if (all(not m.is_zero() for m in cx.modules) and _factor_count(cx) == factors
                and torsion in (None, _torsion_count(cx))):
            return cx


# ---------------------------------------------------------------------------
# probes: purity and qis verdicts

# Over Z the battery holds every Z/d with d up to twice the largest entry;
# these bands keep each Z item's battery between the two sizes.
Z_PROBES = (16, 18)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _large_modulus(rng: random.Random, p: int) -> int:
    """m = p^2 q r with primes q < r, m between 1.2 and 1.5 million.

    probe_battery walks range(2, m) for the divisors of m, so m sets that
    cost; the fixed factorization shape fixes the battery at 11 probes
    (the free module and the 10 divisors strictly between 1 and m).
    """
    while True:
        q = rng.randrange(40, 120)
        r = rng.randrange(1_200_000, 1_500_000) // (p * p * q)
        if _is_prime(q) and _is_prime(r) and q != p and r not in (p, q):
            return p * p * q * r


def _short_exact(ring: Ring, n: int) -> Complex:
    """0 -> R/(n) -n-> R/(n^2) -> R/(n) -> 0 over Z/m with n^2 | m, or
    0 -> Z -n-> Z -> Z/n -> 0 over Z.  Acyclic, never split, so NotPure."""
    if ring.modulus is None:
        a, b, c = free_module(ring, 1), free_module(ring, 1), cyclic_module(ring, n)
    else:
        a, b, c = cyclic_module(ring, n), cyclic_module(ring, n * n), cyclic_module(ring, n)
    return Complex(ring, -1, (a, b, c), (make_map(a, b, [[n]]), make_map(b, c, [[1]])))


def _pure_acyclic(rng, ring: Ring, generators: int, max_gens: int = 2) -> Complex:
    while True:
        cx = random_pure_acyclic(rng, ring, lo=-1, hi=1, max_gens=max_gens)
        if _generators(cx) == generators:
            return cx


def _purity(ring: Ring, cx: Complex, verdict: str):
    expect = {"exit": 0 if verdict == PURE else 1, "verdict": verdict}
    return "purity", _workspace(ring, {"c": cx}, complex="c"), expect


def pure_acyclic_z(rng):
    lo, hi = Z_PROBES
    while True:
        cx = _pure_acyclic(rng, ZZ, 6)
        if lo <= _probes(ZZ, cx) <= hi:
            return _purity(ZZ, cx, PURE)


def pure_acyclic_zm(rng):
    return _purity(Zmod(72), _pure_acyclic(rng, Zmod(72), 6), PURE)


def pure_acyclic_large_m(rng):
    ring = Zmod(_large_modulus(rng, rng.choice((2, 3))))
    return _purity(ring, _pure_acyclic(rng, ring, 4, max_gens=1), PURE)


def pure_qis_z(rng):
    lo, hi = Z_PROBES
    while True:
        f = random_pure_qis(rng, _shaped_complex(rng, ZZ, 0, 2, 2, max_gens=1))
        # the qis command sizes its battery from the cone, as here
        if _generators(f.tgt) == 4 and lo <= _probes(ZZ, cone(f).complex) <= hi:
            ws = _workspace(ZZ, {"s": f.src, "t": f.tgt}, {"f": f}, map="f")
            return "qis", ws, {"exit": 0, "verdict": PURE}


def nonsplit_z(rng):
    lo, hi = Z_PROBES
    while True:
        cx = _short_exact(ZZ, rng.randint(3, 12))
        cx = direct_sum_complexes([cx, _pure_acyclic(rng, ZZ, 2, max_gens=1)])[0]
        if lo <= _probes(ZZ, cx) <= hi:
            return _purity(ZZ, cx, NOT_PURE)


def nonsplit_large_m(rng):
    p = rng.choice((2, 3))
    ring = Zmod(_large_modulus(rng, p))
    cx = direct_sum_complexes([_short_exact(ring, p), _pure_acyclic(rng, ring, 2, max_gens=1)])[0]
    return _purity(ring, cx, NOT_PURE)


# ---------------------------------------------------------------------------
# certify: resolutions and towers, each re-checked by validate-cert

# Over Z/12 every complex sits on [-1, 1], which needs a depth-1 tower on
# either side; depth-2 windows cost up to ten times the median item.  Each
# complex has exactly one invariant factor that is not a free summand:
# resolving torsion summands is most of an item's cost, so a free count
# would spread item costs, and with them a run's figures, by seed.


def _resolve_item(ring: Ring, cx: Complex, side: str, command: str = "resolve"):
    expect = {"exit": 0, "validate": True}
    if command == "resolve":
        expect["homology"] = _nonzero_homology(homology_invariants(cx))
        expect["flags"] = ["revalidated"]
    else:
        formula = "limit_product_formula" if side == "injective" else "colimit_sum_formula"
        expect["flags"] = ["tower_valid", formula, "certificate_valid"]
    return command, _workspace(ring, {"m": cx}, complex="m", side=side), expect


def _z12_complex(rng) -> Complex:
    return _shaped_complex(rng, Zmod(12), -1, 3, 4, torsion=1)


def _z_complex(rng) -> Complex:
    return _shaped_complex(rng, ZZ, 0, 3, 3, torsion=1)


def resolve_inj_z12(rng):
    return _resolve_item(Zmod(12), _z12_complex(rng), "injective")


def resolve_proj_z12(rng):
    return _resolve_item(Zmod(12), _z12_complex(rng), "projective")


def resolve_proj_z(rng):
    return _resolve_item(ZZ, _z_complex(rng), "projective")


def towers_inj_z12(rng):
    return _resolve_item(Zmod(12), _z12_complex(rng), "injective", "towers")


def towers_proj_z12(rng):
    return _resolve_item(Zmod(12), _z12_complex(rng), "projective", "towers")


def towers_proj_z(rng):
    return _resolve_item(ZZ, _z_complex(rng), "projective", "towers")


# ---------------------------------------------------------------------------
# adjunction: derived tensor-hom adjunction on triples

# Adjunction cost grows steeply with the invariant factors of the triple:
# three length-2 complexes with two factors each run in about 0.1 s, while
# a length-3 triple with 13 factors in all took half a minute.

# every link of an in-scope triple holds, by the adjunction theorem
IN_SCOPE = {"exit": 0, "flags": ["witness_ok"], "links_ok": True}


def _adjunction(ring: Ring, a, b, c, expect):
    ws = _workspace(ring, {"a": a, "b": b, "c": c}, a="a", b="b", c="c")
    return "adjunction", ws, expect


def adjunction_z12(rng):
    a, b, c = (_shaped_complex(rng, Zmod(12), 0, 2, 2) for _ in range(3))
    return _adjunction(Zmod(12), a, b, c, IN_SCOPE)


def adjunction_z_torsion(rng):
    """c has only torsion terms, so its pure injective resolution exists."""
    a, b = (_shaped_complex(rng, ZZ, 0, 2, 2, max_gens=1) for _ in range(2))
    tors = cyclic_module(ZZ, rng.randint(2, 6))
    c = Complex(ZZ, 0, (tors, tors), (make_map(tors, tors, [[0]]),))
    return _adjunction(ZZ, a, b, c, IN_SCOPE)


def adjunction_z_free_c(rng):
    """c has a free term: out of scope over Z, the known answer is exit 2."""
    a, b = (_shaped_complex(rng, ZZ, 0, 2, 2, max_gens=1) for _ in range(2))
    free, tors = free_module(ZZ, 1), cyclic_module(ZZ, rng.randint(2, 6))
    c = Complex(ZZ, 0, (free, tors), (make_map(free, tors, [[1]]),))
    return _adjunction(ZZ, a, b, c, {"exit": 2})


# ---------------------------------------------------------------------------
# workloads

# kind -> one line on why it is in its workload
WHY = {
    pure_acyclic_z: "contractible complex over Z: the joint null-homotopy solve decides Pure",
    pure_acyclic_zm: "contractible complex over Z/72: Pure, then one re-check per divisor probe",
    pure_acyclic_large_m: "Pure over Z/m, m = p^2 q r near 1.3e6: probe_battery walks "
                          "range(2, m), then 11 probes are re-checked",
    pure_qis_z: "perturbed split inclusion over Z: cone solve plus a 16-18 probe battery",
    nonsplit_z: "0->Z->Z->Z/n->0 plus a pure summand: NotPure, found by a tensor probe",
    nonsplit_large_m: "0->Z/p->Z/p^2->Z/p->0 over Z/m near 1.3e6: NotPure after the "
                      "range(2, m) battery walk",
    resolve_inj_z12: "pure injective resolution over Z/12 on [-1, 1]: a depth-1 tower, "
                     "its limit and the contraction of its cone",
    resolve_proj_z12: "pure projective resolution over Z/12 on [-1, 1]: "
                      "a depth-1 tower and its colimit",
    resolve_proj_z: "pure projective resolution over Z on [0, 2]: "
                    "contraction solving with coefficient growth",
    towers_inj_z12: "inverse semi-split tower over Z/12 on [-1, 1] with its limit certificate",
    towers_proj_z12: "direct semi-split tower over Z/12 on [-1, 1] with its colimit certificate",
    towers_proj_z: "direct semi-split tower over Z on [0, 2] with its colimit certificate",
    adjunction_z12: "Z/12 triple: hom/tensor complex assembly, hom_post/hom_pre, hom_k",
    adjunction_z_torsion: "Z triple with torsion c: in scope, all five links must hold",
    adjunction_z_free_c: "Z triple with a free term in c: exit 2, "
                         "but only after resolving a and b",
}

# workload -> (why, kinds of one round; a kind listed twice runs twice)
WORKLOADS = {
    "probes": (
        "purity and qis verdicts: probe-battery construction and probe re-checks, "
        "many small cached SNFs, no towers",
        (pure_acyclic_z, pure_acyclic_zm, pure_acyclic_z, pure_acyclic_zm, pure_qis_z,
         nonsplit_z, nonsplit_z, pure_acyclic_large_m, nonsplit_large_m),
    ),
    "certify": (
        "resolve and towers, each re-checked by validate-cert: contraction solving, "
        "tower building, certificate revalidation, no probe batteries",
        (resolve_inj_z12, resolve_proj_z12, resolve_proj_z,
         towers_inj_z12, towers_proj_z12, towers_proj_z),
    ),
    "adjunction": (
        "tensor-hom adjunction: hom/tensor complex assembly and hom_k, "
        "plus out-of-scope Z triples that should fail fast",
        (adjunction_z12, adjunction_z12, adjunction_z12, adjunction_z_torsion,
         adjunction_z_free_c),
    ),
}


def build_corpus(workload: str, seed: int, rounds: int) -> list:
    """(kind, command, workspace, expect) for each item, round by round.

    One random stream per kind, derived from the seed, so the items of a
    kind do not depend on which other kinds share the workload.
    """
    kinds = WORKLOADS[workload][1]
    streams = {k: random.Random(f"{seed}:{workload}:{k.__name__}") for k in kinds}
    corpus = []
    for _ in range(rounds):
        for kind in kinds:
            command, ws, expect = kind(streams[kind])
            corpus.append((kind.__name__, command, ws, expect))
    return corpus


def write_corpus(workload: str, seed: int, rounds: int, directory: str) -> list:
    """Write every workspace file; return the manifest the checker uses."""
    manifest = []
    for n, (kind, command, ws, expect) in enumerate(build_corpus(workload, seed, rounds)):
        path = os.path.join(directory, f"{n:04d}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_input(ws))
        manifest.append({"id": f"{n:04d}-{kind}", "command": command, "file": path,
                         "expect": expect})
    return manifest
