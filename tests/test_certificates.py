"""Pinned resolution certificates and the number of contractions behind them.

The digests are sha256 prefixes of the sorted JSON encoding of each
certificate; a change to any map, target window or contraction shows up
here.  The counts pin that each resolution is certified once, where its
certificate is kept, and that no contraction is solved for: every one is
written down from reduce_complex's homotopy or recast from a cone
certificate.  `resolve` builds no tower and certifies only its own cone at
every depth, a tower of depth d with its (co)limit certifies d cone
resolutions plus the (co)limit's cone, and a lift certifies only the
lifted resolution's cone.  The paddings are certified by the solving
oracle, helpers.solved_certificate.
"""

import functools
import hashlib
import json
import random

import pytest

from purcat import homotopy, resolutions
from purcat.exact_linalg import ZZ, Zmod
from purcat.complexes import cone, trim, zero_complex
from purcat.randgen import random_chain_map, random_complex
from purcat.resolutions import (
    colimit_tower,
    injective_tower,
    limit_tower,
    projective_tower,
    required_depth,
    resolve,
    validate_certificate,
)
from purcat.serialize import encode_certificate
import helpers
from helpers import lift_injective, lift_projective, pad_resolution

RINGS = {"Z": ZZ, "Z12": Zmod(12), "Z72": Zmod(72)}
SIDES = ("injective", "projective")


def digest(certs) -> str:
    h = hashlib.sha256()
    for cert in certs:
        h.update(json.dumps(encode_certificate(cert), sort_keys=True).encode())
    return h.hexdigest()[:16]


def sample(rng, ring, side, lo, length, need=0, max_gens=2):
    """A random complex on [lo, lo + length - 1] whose resolution on this side
    needs a tower of depth `need`; torsion where the side needs it."""
    while True:
        m = random_complex(rng, ring, lo, length, max_gens=max_gens)
        if side == "injective" and not all(x.is_torsion() for x in m.modules):
            continue
        if trim(m).modules and required_depth(m, side) == need:
            return m


# seeds of one-level draws whose tower top is not minimal, found by search
# on towers whose cones were not reduced; the (co)limit still keeps
# contractible summands on four of the six (not on Z-projective and
# Z72-injective), and both certificates are pinned on each side
TOP_SEEDS = {"Z-injective": 6, "Z-projective": 23, "Z12-injective": 0,
             "Z12-projective": 2, "Z72-injective": 8, "Z72-projective": 1}


@functools.lru_cache(maxsize=None)
def inputs(ring_name, side):
    """Name -> (complex, tower depth it needs): draws needing no tower, one
    level and two levels (the costliest, with smaller terms), and the
    TOP_SEEDS draw."""
    ring = RINGS[ring_name]
    step = -1 if side == "injective" else 1

    def draw(rng, need, max_gens):
        return sample(rng, ring, side, min(0, step * need), 2 + need, need, max_gens), need

    rng = random.Random(f"{ring_name}-{side}")
    out = {f"{kind}-{k}": draw(rng, need, max_gens)
           for kind, need, draws, max_gens in (("bounded", 0, 2, 3), ("tower", 1, 2, 3),
                                               ("deep", 2, 1, 2))
           for k in range(draws)}
    seed = TOP_SEEDS[f"{ring_name}-{side}"]
    out["top"] = draw(random.Random(f"{ring_name}-{side}-top-{seed}"), 1, 3)
    return out


def tower_certs(m, side, depth):
    if side == "injective":
        tower, fs = injective_tower(m, depth)
        top = limit_tower(tower, fs)
    else:
        tower, fs = projective_tower(m, depth)
        top = colimit_tower(tower, fs)
    return list(tower.cone_certificates) + [top]


def lift_input(ring_name, side):
    """(lift, f: M2 -> M1, the given resolution) for lift_injective / lift_projective."""
    rng = random.Random(f"lift-{ring_name}-{side}")
    ring = RINGS[ring_name]
    m1 = trim(sample(rng, ring, "injective", 0, 2))
    m2 = trim(sample(rng, ring, "injective", 0, 2))
    f = random_chain_map(rng, m2, m1)
    if side == "injective":
        return lift_injective, f, resolve(m1, side)
    return lift_projective, f, resolve(m2, side)


def lift_cert(ring_name, side):
    lift, f, given = lift_input(ring_name, side)
    return lift(f, given)[0]


def pinned(m, side, need):
    """resolve at depth None, need and need + 1; the tower of depth need + 1
    with its cone certificates and (co)limit; two paddings."""
    certs = [resolve(m, side, depth=depth) for depth in (None, need, need + 1)]
    return (certs + tower_certs(m, side, need + 1)
            + [pad_resolution(certs[0], seed) for seed in (1, 2)])


def cases():
    """Case name -> a thunk giving the certificates that case pins."""
    out = {}
    for ring_name in RINGS:
        for side in SIDES:
            for name, (m, need) in inputs(ring_name, side).items():
                out[f"{ring_name}-{side}-{name}"] = (
                    lambda m=m, side=side, need=need: pinned(m, side, need))
            out[f"lift-{ring_name}-{side}"] = (
                lambda ring_name=ring_name, side=side: [lift_cert(ring_name, side)])
    z = zero_complex(Zmod(6))
    for side in SIDES:
        out[f"zero-{side}"] = lambda side=side: pinned(z, side, 0)
    return out


DIGESTS = {
    "Z-injective-bounded-0": "cd9dd3d1bc6c7ad7",
    "Z-injective-bounded-1": "0815e88b428ac498",
    "Z-injective-deep-0": "38f7e1f43fbb913b",
    "Z-injective-top": "1a0156743e9b9ca3",
    "Z-injective-tower-0": "abbd05e280bd7931",
    "Z-injective-tower-1": "7e318c64241d847a",
    "Z-projective-bounded-0": "e8fbff627c841eea",
    "Z-projective-bounded-1": "91025702081166dd",
    "Z-projective-deep-0": "5e92f4ebc1a390d8",
    "Z-projective-top": "0a2bcc04ddbaadeb",
    "Z-projective-tower-0": "8ca1447ddd0d09dc",
    "Z-projective-tower-1": "df9f631811c91a2d",
    "Z12-injective-bounded-0": "f83a3eed7292358f",
    "Z12-injective-bounded-1": "96d543cdebdd1b30",
    "Z12-injective-deep-0": "e891ea2f17e5aff0",
    "Z12-injective-top": "fbd3bad7dce3398a",
    "Z12-injective-tower-0": "08edf6a9c2eacd56",
    "Z12-injective-tower-1": "7926dc936f544581",
    "Z12-projective-bounded-0": "8c7d9e6c7c9288ea",
    "Z12-projective-bounded-1": "9aa68ac38984f92c",
    "Z12-projective-deep-0": "7641bed4c9884262",
    "Z12-projective-top": "4b1810ef2e7f6155",
    "Z12-projective-tower-0": "9d0cf8e175ed07bd",
    "Z12-projective-tower-1": "b0d9a245776d5bb0",
    "Z72-injective-bounded-0": "97b441e79283579d",
    "Z72-injective-bounded-1": "f48e21fcbfcc2696",
    "Z72-injective-deep-0": "91b3debdbaf243b2",
    "Z72-injective-top": "6daa314c93f6dfde",
    "Z72-injective-tower-0": "5e5a234682d1a1a4",
    "Z72-injective-tower-1": "fd18de5374c2c99a",
    "Z72-projective-bounded-0": "a9561fd0399a9947",
    "Z72-projective-bounded-1": "e065f11348439e80",
    "Z72-projective-deep-0": "493035b8f4311aa8",
    "Z72-projective-top": "d9daa5c5a5827087",
    "Z72-projective-tower-0": "e4f1b425c961c0da",
    "Z72-projective-tower-1": "b7be5af15ed3c892",
    "lift-Z-injective": "4c4ff8f85805d821",
    "lift-Z-projective": "690bc986caed0459",
    "lift-Z12-injective": "96755dfe5e2a2ae0",
    "lift-Z12-projective": "9f4a540d17f46e9f",
    "lift-Z72-injective": "f2c0c878de673a56",
    "lift-Z72-projective": "45d6b89985b698fb",
    "zero-injective": "8d14b9d47f0567ea",
    "zero-projective": "0591a3f45500cd34",
}


@pytest.mark.parametrize("name", sorted(cases()))
def test_certificate_digest_is_pinned(name):
    certs = cases()[name]()
    assert all(validate_certificate(c) for c in certs)
    assert digest(certs) == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(cases())


@pytest.fixture
def contractions(monkeypatch):
    """The cone of every certificate made; solving a contraction fails."""
    calls = []
    real = resolutions._certificate

    def counted(source, target, res_map, side, witness):
        calls.append(cone(res_map).complex)
        return real(source, target, res_map, side, witness)

    def refuse(cx):
        raise AssertionError("a contraction was solved for")

    monkeypatch.setattr(resolutions, "_certificate", counted)
    monkeypatch.setattr(helpers, "_certificate", counted)
    monkeypatch.setattr(homotopy, "contract_complex", refuse)
    return calls


def test_resolutions_do_not_import_the_solver():
    assert not hasattr(resolutions, "contract_complex")


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_resolve_builds_no_tower_and_contracts_once_at_every_depth(
        monkeypatch, contractions, ring_name, side):
    def refuse(*args):
        raise AssertionError("a tower was built")

    for name in ("injective_tower", "projective_tower", "_check_tower"):
        monkeypatch.setattr(resolutions, name, refuse)
    for m, need in inputs(ring_name, side).values():
        certs = []
        for depth in (None, need, need + 1):
            contractions.clear()
            certs.append(encode_certificate(resolve(m, side, depth=depth)))
            assert len(contractions) == 1
        assert certs[0] == certs[1] == certs[2]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_tower_resolve_contracts_once_per_level_and_once_at_the_top(
        contractions, ring_name, side):
    for m, need in inputs(ring_name, side).values():
        contractions.clear()
        tower_certs(m, side, need + 1)
        assert len(contractions) == need + 2


@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("side", SIDES)
def test_lift_contracts_only_the_lifted_resolution(contractions, ring_name, side):
    lift, f, given = lift_input(ring_name, side)
    contractions.clear()
    lifted, _, _ = lift(f, given)
    assert contractions == [cone(lifted.map).complex]
