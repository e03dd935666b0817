"""The command line in-process: purity and qis reports, exit codes, determinism."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from purcat import cli, complexes, fpmod, purity as purity_layer, resolutions
from purcat.exact_linalg import ZZ, Zmod
from purcat.fpmod import cyclic_module, free_module
from purcat.complexes import (
    cone,
    identity_chain_map,
    module_complex,
    zero_chain_map,
    zero_complex,
    zero_homotopy,
)
from purcat.randgen import random_complex, random_pure_acyclic, random_pure_qis
from purcat.serialize import (
    MAX_DEPTH,
    WorkbenchInput,
    decode_certificate,
    encode_input,
    serialize_input,
)
from helpers import make_complex, mat


def main(argv):
    """(exit status, stdout) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run(tmp_path, command, ring, complexes=None, maps=None, parameters=None, flags=()):
    """(exit status, report) of one --json run on a fresh workspace file."""
    ws = WorkbenchInput(ring, complexes=complexes or {}, maps=maps or {},
                        parameters=parameters or {})
    path = tmp_path / f"{command}.json"
    path.write_text(serialize_input(ws), encoding="utf-8")
    code, out = main([command, "--json", *flags, str(path)])
    return code, json.loads(out)


def validate_cert(tmp_path, payload):
    """(exit status, report) of validate-cert on a JSON payload."""
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out = main(["validate-cert", "--json", str(path)])
    return code, json.loads(out)


def purity(tmp_path, cx):
    return run(tmp_path, "purity", cx.ring, complexes={"c": cx},
               parameters={"complex": "c"})


def qis(tmp_path, f):
    return run(tmp_path, "qis", f.src.ring, complexes={"s": f.src, "t": f.tgt},
               maps={"f": f}, parameters={"map": "f"})


def ses(ring, a, b, c, into, onto):
    """0 -> a -> b -> c -> 0 in degrees 0..2 with the given 1x1 maps."""
    return make_complex(ring, 0, [a, b, c], [mat([[into]]), mat([[onto]])])


NO_PROBE_FAILS = ("no contraction exists, yet no probe of the complete battery "
                  "fails: the two decisions disagree")


def without_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


@pytest.mark.parametrize("ring", [ZZ, Zmod(12), Zmod(72)])
def test_purity_pure(tmp_path, ring):
    cx = random_pure_acyclic(random.Random(5), ring)
    code, report = purity(tmp_path, cx)
    assert code == 0
    res = report["results"]
    assert report["status"] == "ok" and res["verdict"] == "Pure"
    assert res["probes_checked"] == len(res["probes"])
    assert "failing_probe" not in res


def test_purity_not_pure_over_z(tmp_path):
    z = free_module(ZZ, 1)
    code, report = purity(tmp_path, ses(ZZ, z, z, cyclic_module(ZZ, 2), 2, 1))
    assert code == 1
    res = report["results"]
    assert report["status"] == "refuted" and res["verdict"] == "NotPure"
    # the free probe and Z/2, from the Smith diagonal entry 2
    assert res["probes"] == [[0], [2]]
    assert res["failing_probe"] == [2]
    assert res["failing_degree"] == 0
    assert "probes_checked" not in res


def test_purity_not_pure_over_z72(tmp_path):
    ring = Zmod(72)
    cx = ses(ring, cyclic_module(ring, 3), cyclic_module(ring, 9),
             cyclic_module(ring, 3), 3, 1)
    code, report = purity(tmp_path, cx)
    assert code == 1
    res = report["results"]
    # entries 3 and 9: R/(3^k) for k <= 2, the largest 3-valuation
    assert res["probes"] == [[72], [3], [9]]
    assert res["failing_probe"] == [3]
    assert res["failing_degree"] == 0


def test_purity_not_acyclic_fails_at_free_probe(tmp_path):
    code, report = purity(tmp_path, module_complex(cyclic_module(Zmod(12), 4), 1))
    assert code == 1
    assert report["results"]["failing_probe"] == [12]
    assert report["results"]["failing_degree"] == 1


BIG = Zmod(7 ** 2 * 101 * 263)


@pytest.mark.parametrize("cx, code, verdict", [
    (random_pure_acyclic(random.Random(5), Zmod(72)), 0, "Pure"),
    # 0 -> Z/7 -> Z/49 -> Z/7 -> 0, exact and not split
    (ses(BIG, cyclic_module(BIG, 7), cyclic_module(BIG, 49), cyclic_module(BIG, 7), 7, 1),
     1, "NotPure"),
])
def test_purity_over_zm_builds_no_homology_module(tmp_path, monkeypatch, cx, code, verdict):
    want = purity(tmp_path, cx)

    def refuse(*args):
        raise AssertionError("a probe tensor asked for a homology module")

    monkeypatch.setattr(complexes, "homology", refuse)
    got = purity(tmp_path, cx)
    assert got[0] == want[0] == code
    assert got[1]["results"]["verdict"] == verdict
    assert without_timing(got[1]) == without_timing(want[1])
    if code:
        assert got[1]["results"]["failing_probe"] == [7]
        assert got[1]["results"]["failing_degree"] == 0


@pytest.mark.parametrize("cx, codes", [
    (random_pure_acyclic(random.Random(5), Zmod(72)), [0, 0]),
    # 0 -> Z -6-> Z -> Z/6 -> 0: NotPure, and the cone of its identity is Pure
    (ses(ZZ, free_module(ZZ, 1), free_module(ZZ, 1), cyclic_module(ZZ, 6), 6, 1), [1, 0]),
])
def test_purity_and_qis_tensor_no_module(tmp_path, monkeypatch, cx, codes):
    f = identity_chain_map(cx)
    want = [purity(tmp_path, cx), qis(tmp_path, f)]

    def refuse(*args):
        raise AssertionError("a probe asked for a tensor product")

    for module in (fpmod, complexes):
        monkeypatch.setattr(module, "tensor_modules", refuse)
    got = [purity(tmp_path, cx), qis(tmp_path, f)]
    assert [code for code, _ in got] == [code for code, _ in want] == codes
    assert [without_timing(r) for _, r in got] == [without_timing(r) for _, r in want]


def test_huge_generator_count_exits_2_before_allocating(tmp_path):
    ws = encode_input(WorkbenchInput(ZZ, complexes={"c": module_complex(free_module(ZZ, 1))},
                                     parameters={"complex": "c", "degree": 5}))
    ws["complexes"]["c"]["modules"][0] = {"generators": 10 ** 8}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(ws), encoding="utf-8")
    start = time.perf_counter()
    code, out = main(["homology", "--json", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "generators must be at most" in json.loads(out)["results"]["error"]


def test_qis_pure(tmp_path):
    rng = random.Random(7)
    f = random_pure_qis(rng, random_complex(rng, Zmod(12), 0, 2))
    code, report = qis(tmp_path, f)
    assert code == 0
    res = report["results"]
    assert res["verdict"] == "Pure"
    assert res["probes_checked"] == len(res["probes"])
    assert list(res) == ["map", "cone_window", "verdict", "probes", "probes_checked"]


def test_qis_not_pure(tmp_path):
    src = module_complex(cyclic_module(ZZ, 2), 0)
    code, report = qis(tmp_path, zero_chain_map(src, zero_complex(ZZ)))
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "NotPure"
    assert res["cone_window"] == [-1, -1]
    assert res["failing_probe"] == [0]
    assert res["failing_degree"] == -1
    assert list(res) == ["map", "cone_window", "verdict", "probes",
                         "failing_probe", "failing_degree"]


@pytest.mark.parametrize("command", ["purity", "qis"])
def test_a_contraction_that_fails_its_check_exits_2(tmp_path, monkeypatch, command):
    rng = random.Random(7)
    f = random_pure_qis(rng, random_complex(rng, Zmod(12), 0, 2))
    real = purity_layer.contract_complex

    def tampered(cx):
        # the contraction with its first nonzero entry raised by one
        h = real(cx)
        comps = list(h.components)
        k, i, j = next((k, i, j) for k, comp in enumerate(comps)
                       for i, row in enumerate(comp.matrix.data)
                       for j, x in enumerate(row) if x)
        rows = [list(row) for row in comps[k].matrix.data]
        rows[i][j] += 1
        comps[k] = fpmod.make_map(comps[k].src, comps[k].tgt, rows, check=False)
        return complexes.Homotopy(h.src, h.tgt, h.lo, tuple(comps))

    monkeypatch.setattr(purity_layer, "contract_complex", tampered)
    code, report = purity(tmp_path, cone(f).complex) if command == "purity" else qis(tmp_path, f)
    assert code == 2
    assert report["results"] == {"error": "contraction fails d h + h d = id"}


@pytest.mark.parametrize("command", ["purity", "qis"])
def test_no_contraction_and_no_failing_probe_exits_2(tmp_path, monkeypatch, command):
    # the battery is complete, so a NotPure verdict without a probe is an error
    z2, z4 = cyclic_module(ZZ, 2), cyclic_module(ZZ, 4)
    cx = ses(ZZ, z2, z4, z2, 2, 1)
    monkeypatch.setattr(purity_layer, "failing_probe_for_acyclic", lambda *args: None)
    if command == "purity":
        code, report = purity(tmp_path, cx)
    else:
        code, report = qis(tmp_path, zero_chain_map(cx, zero_complex(ZZ)))
    assert code == 2
    assert report["status"] == "error"
    assert report["results"] == {"error": NO_PROBE_FAILS}


@pytest.mark.parametrize("ring", [ZZ, Zmod(12), Zmod(72)])
def test_a_pure_verdict_evaluates_no_probe(tmp_path, monkeypatch, ring):
    # the checked contraction proves every listed probe acyclic
    cx = random_pure_acyclic(random.Random(5), ring)
    want = [purity(tmp_path, cx), qis(tmp_path, identity_chain_map(cx))]

    def refuse(*args):
        raise AssertionError("a Pure verdict evaluated a probe")

    # in purity, and in cli in case it imports the function by name again
    for module in (purity_layer, cli):
        monkeypatch.setattr(module, "failing_probe_for_acyclic", refuse, raising=False)
    got = [purity(tmp_path, cx), qis(tmp_path, identity_chain_map(cx))]
    assert [code for code, _ in got] == [0, 0]
    for code, report in got:
        assert report["results"]["verdict"] == "Pure"
        assert report["results"]["probes_checked"] == len(report["results"]["probes"])
    assert [without_timing(r) for _, r in got] == [without_timing(r) for _, r in want]


@pytest.mark.parametrize("command", ["qis", "cone"])
def test_a_map_that_breaks_the_chain_law_exits_2(tmp_path, command):
    # Z --1--> Z into itself by 1 in degree 0 and 2 in degree 1: d f != f d
    z = free_module(ZZ, 1)
    cx = make_complex(ZZ, 0, [z, z], [mat([[1]])])
    f = complexes.ChainMap(cx, cx, 0, (fpmod.make_map(z, z, [[1]]), fpmod.make_map(z, z, [[2]])))
    code, report = run(tmp_path, command, ZZ, complexes={"s": cx}, maps={"f": f},
                       parameters={"map": "f"})
    assert code == 2
    assert report["results"] == {
        "error": "map 'f': components do not commute with the differentials"}


def test_reports_are_deterministic(tmp_path):
    z = free_module(ZZ, 1)
    cx = ses(ZZ, z, z, cyclic_module(ZZ, 6), 6, 1)
    first = purity(tmp_path, cx)
    second = purity(tmp_path, cx)
    assert first[0] == second[0] == 1
    assert without_timing(first[1]) == without_timing(second[1])


def test_purity_over_huge_modulus(tmp_path):
    # the probes come from the entries 2 and 4, and 10^12 is only divided
    ring = Zmod(10 ** 12)
    cx = ses(ring, cyclic_module(ring, 2), cyclic_module(ring, 4),
             cyclic_module(ring, 2), 2, 1)
    code, report = purity(tmp_path, cx)
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "NotPure"
    assert res["probes"] == [[10 ** 12], [2], [4]]
    assert res["failing_probe"] == [2]
    assert res["failing_degree"] == 0
    assert report["timing"]["seconds"] < 5


def test_purity_over_prime_modulus_near_10_to_18(tmp_path):
    ring = Zmod(10 ** 18 + 3)
    code, report = purity(tmp_path, random_pure_acyclic(random.Random(2), ring))
    assert code == 0
    assert report["results"]["probes"] == [[10 ** 18 + 3]]
    assert report["timing"]["seconds"] < 5


def test_purity_over_prime_modulus_beyond_primality_proofs(tmp_path):
    # 2^89 - 1 is prime, but a modulus is never factored: every entry
    # over Z/p is 0 or 1
    ring = Zmod(2 ** 89 - 1)
    start = time.perf_counter()
    code, report = purity(tmp_path, module_complex(cyclic_module(ring, 1), 0))
    assert time.perf_counter() - start < 0.1
    assert code == 0
    assert report["results"]["probes"] == [[2 ** 89 - 1]]


def test_purity_over_composite_modulus_beyond_primality_proofs(tmp_path):
    # over Z/(p q)^2 the one entry p q = (2^31 - 1)(2^61 - 1) is its own
    # coprime base, so it is listed whole; neither it nor the modulus is
    # factored
    p, q = 2 ** 31 - 1, 2 ** 61 - 1
    ring = Zmod((p * q) ** 2)
    cx = cone(identity_chain_map(module_complex(cyclic_module(ring, p * q)))).complex
    code, report = purity(tmp_path, cx)
    assert code == 0
    assert report["results"]["probes"] == [[(p * q) ** 2], [p * q]]
    assert report["results"]["probes_checked"] == 2


def test_purity_of_a_large_entry_answers_at_once(tmp_path):
    # the identity cone of Z/20000: the free probe and the one entry,
    # its own coprime base, where Z/d for d <= 40000 were listed
    cx = cone(identity_chain_map(module_complex(cyclic_module(ZZ, 20000)))).complex
    code, report = purity(tmp_path, cx)
    assert code == 0
    assert report["timing"]["seconds"] < 0.1
    # the report as the CLI writes it
    assert len(json.dumps(report)) < 2000
    res = report["results"]
    assert res["verdict"] == "Pure"
    assert res["probes"] == [[0], [20000]]
    assert res["probes_checked"] == len(res["probes"])


def test_purity_finds_a_large_prime_probe(tmp_path):
    # 0 -> Z -p-> Z -> Z/p -> 0 fails only at probes R/(p^k); the battery
    # sized by the entries would list 2p of them
    p = 10 ** 12 + 39
    z = free_module(ZZ, 1)
    code, report = purity(tmp_path, ses(ZZ, z, z, cyclic_module(ZZ, p), p, 1))
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "NotPure"
    assert res["probes"] == [[0], [p]]
    assert res["failing_probe"] == [p]
    assert res["failing_degree"] == 0


def test_purity_of_an_entry_beyond_primality_proofs_is_decided(tmp_path):
    # Z/(2^89 - 1) alone: the prime entry is never factored, and the free
    # probe already fails, as the term has homology
    start = time.perf_counter()
    code, report = purity(tmp_path, module_complex(cyclic_module(ZZ, 2 ** 89 - 1), 0))
    assert time.perf_counter() - start < 0.5
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "NotPure"
    assert res["failing_probe"] == [0]
    assert res["failing_degree"] == 0


def test_purity_of_a_product_of_large_primes_names_the_product(tmp_path):
    # 0 -> Z -ab-> Z -> Z/ab -> 0 for the primes a = 2^127 - 1 and
    # b = 2^107 - 1: the entry ab is its own coprime base and the witness
    a, b = 2 ** 127 - 1, 2 ** 107 - 1
    z = free_module(ZZ, 1)
    start = time.perf_counter()
    code, report = purity(tmp_path, ses(ZZ, z, z, cyclic_module(ZZ, a * b), a * b, 1))
    assert time.perf_counter() - start < 0.5
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "NotPure"
    assert res["probes"] == [[0], [a * b]]
    assert res["failing_probe"] == [a * b]
    assert res["failing_degree"] == 0


def test_ragged_matrix_in_workspace_exits_2(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({
        "format": 1,
        "ring": {"kind": "Zmod", "m": 8},
        "complexes": {"m": {"lo": 0, "hi": 0, "differentials": [],
                            "modules": [{"generators": 2, "relations": [[4, 0], [0]]}]}},
        "parameters": {"complex": "m"},
    }), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["homology", "--json", str(path)])
    assert code == 2
    assert "unequal lengths" in json.loads(out.getvalue())["results"]["error"]


@pytest.mark.parametrize("command", ["homology", "purity", "resolve", "validate-cert"])
def test_deeply_nested_json_exits_2(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out = main([command, "--json", str(path)])
    assert code == 2
    assert json.loads(out)["results"] == {"error": "input is not valid JSON: nested too deeply"}


@pytest.mark.parametrize("command", ["homology", "validate-cert"])
def test_undecodable_input_exits_2(tmp_path, command):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    code, out = main([command, "--json", str(path)])
    assert code == 2
    assert json.loads(out)["results"]["error"].startswith("cannot read input: ")


def test_certificate_with_windows_far_apart_exits_2(tmp_path):
    cx = random_complex(random.Random(97), Zmod(12), -1, 3)
    cert = resolve_report(tmp_path, cx, "projective")[1]["results"]["certificate"]
    cert["target"]["lo"] += 10 ** 18
    cert["target"]["hi"] += 10 ** 18
    cert["map"]["components"] = []
    code, checked = validate_cert(tmp_path, cert)
    assert code == 2
    assert "windows must overlap" in checked["results"]["error"]


# ---------------------------------------------------------------------------
# towers

TOWER_CASES = [
    ("injective", "validate_inverse_tower",
     lambda: random_complex(random.Random(7), Zmod(8), -2, 3)),
    ("projective", "validate_direct_tower",
     lambda: make_complex(ZZ, 0, [free_module(ZZ, 1), free_module(ZZ, 1),
                                  cyclic_module(ZZ, 2)], [mat([[2]]), mat([[1]])])),
]


def patch_everywhere(monkeypatch, name, fn):
    """Replace a resolutions function in every module that binds it."""
    for module in (resolutions, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, fn)


def tower_command(tmp_path, command, cx, side):
    return run(tmp_path, command, cx.ring, complexes={"m": cx},
               parameters={"complex": "m", "side": side})


@pytest.mark.parametrize("side,name,build", TOWER_CASES)
@pytest.mark.parametrize("command", ["towers"])
def test_tower_that_fails_to_revalidate_exits_2(tmp_path, monkeypatch, command, side,
                                                name, build):
    patch_everywhere(monkeypatch, name, lambda tower, fs: False)
    code, report = tower_command(tmp_path, command, build(), side)
    assert code == 2
    assert report["results"]["error"] == "tower invariants fail to re-validate"


@pytest.mark.parametrize("side,name,build", TOWER_CASES)
def test_towers_validates_its_tower_once(tmp_path, monkeypatch, side, name, build):
    calls = []
    original = getattr(resolutions, name)

    def counted(tower, fs):
        calls.append(tower.depth)
        return original(tower, fs)

    patch_everywhere(monkeypatch, name, counted)
    code, report = tower_command(tmp_path, "towers", build(), side)
    assert code == 0
    assert calls == [report["results"]["depth"]]
    formula = "limit_product_formula" if side == "injective" else "colimit_sum_formula"
    assert report["results"]["tower_valid"] is True
    assert report["results"][formula] is True
    assert report["results"]["certificate_valid"] is True


@pytest.mark.parametrize("side", ["injective", "projective"])
@pytest.mark.parametrize("command", ["resolve", "towers"])
def test_a_certificate_that_fails_to_validate_exits_2(tmp_path, monkeypatch, command,
                                                      side):
    # the zero homotopy of a nonzero cone contracts nothing
    def zero(res_map, other, s, side):
        c = cone(res_map).complex
        return zero_homotopy(c, c)

    monkeypatch.setattr(resolutions, "_contraction", zero)
    cx = random_complex(random.Random(7), Zmod(12), -1, 4, max_gens=3)
    code, report = tower_command(tmp_path, command, cx, side)
    assert code == 2
    assert report["results"]["error"] == "resolution certificate fails to validate"


# ---------------------------------------------------------------------------
# phom, validate-cert and resolve reports


def phom_workspace(ring, depth=None):
    rng = random.Random(89)
    a = random_complex(rng, ring, -1, 3)
    b = random_complex(rng, ring, 0, 2)
    parameters = {"a": "a", "b": "b"}
    if depth is not None:
        parameters["depth"] = depth
    return dict(complexes={"a": a, "b": b}, parameters=parameters)


@pytest.mark.parametrize("depth", [None, 3])
def test_phom_certifies_both_arguments_as_their_own_resolutions(tmp_path, depth):
    # each argument is certified by the resolution resolve gives it: its
    # reduced complex, whatever depth the workspace names
    ring = Zmod(12)
    ws = phom_workspace(ring, depth)
    code, report = run(tmp_path, "phom", ring, **ws)
    assert code == 0
    res = report["results"]
    assert res["revalidated"] is True
    for key, name, side in (("projective_certificate", "a", "projective"),
                            ("injective_certificate", "b", "injective")):
        cert = decode_certificate(res[key])
        want = resolutions.resolve(ws["complexes"][name], side)
        assert cert.source == want.source and cert.target == want.target
        assert cert.map == want.map and cert.side == side
    if depth is not None:
        plain = run(tmp_path, "phom", ring, **phom_workspace(ring))[1]
        assert without_timing(report) == without_timing(plain)
    code, checked = validate_cert(tmp_path, report)
    assert code == 0
    assert checked["results"]["checked"] == 2
    assert all(c["valid"] for c in checked["results"]["certificates"].values())


def test_phom_ignores_a_malformed_depth(tmp_path):
    ring = Zmod(12)
    code, report = run(tmp_path, "phom", ring, **phom_workspace(ring, depth="two"))
    assert code == 0
    plain = run(tmp_path, "phom", ring, **phom_workspace(ring))[1]
    assert without_timing(report) == without_timing(plain)


def resolve_report(tmp_path, cx, side, flags=()):
    return run(tmp_path, "resolve", cx.ring, complexes={"m": cx},
               parameters={"complex": "m", "side": side}, flags=flags)


def bump_first_row(witness):
    next(r for comp in witness for r in comp if r)[0] += 1


def negate_first_component(witness):
    # a negated component still respects relations, so the certificate
    # decodes, where one entry moved by one may not
    comp = next(comp for comp in witness if any(x for row in comp for x in row))
    comp[:] = [[-x for x in row] for row in comp]


@pytest.mark.parametrize("command, seed, lo, length, max_gens, side, tamper", [
    pytest.param("resolve", 97, -1, 3, 2, "projective", bump_first_row, id="resolve"),
    # the L = 8 injective towers report of the CI tamper step
    pytest.param("towers", 7, -6, 8, 3, "injective", negate_first_component,
                 id="towers-injective"),
])
def test_validate_cert_refutes_a_tampered_certificate(tmp_path, command, seed, lo, length,
                                                      max_gens, side, tamper):
    cx = random_complex(random.Random(seed), Zmod(12), lo, length, max_gens=max_gens)
    code, report = run(tmp_path, command, cx.ring, complexes={"m": cx},
                       parameters={"complex": "m", "side": side})
    assert code == 0
    cert = report["results"]["certificate"]
    assert validate_cert(tmp_path, cert)[0] == 0
    tamper(cert["qis_witness"]["components"])
    code, checked = validate_cert(tmp_path, cert)
    assert code == 1
    assert checked["status"] == "refuted"
    assert checked["results"]["certificates"]["certificate"]["valid"] is False


@pytest.mark.parametrize("side,lo", [("projective", -1), ("injective", -6)])
def test_deep_z12_towers_stay_small(tmp_path, side, lo):
    # the L = 8 window of the CI deep steps; with whole cones resolved at
    # each step its depth-6 tower top had 566 (projective) and 718
    # (injective) generators
    cx = random_complex(random.Random(7), Zmod(12), lo, 8, max_gens=3)
    code, report = run(tmp_path, "towers", cx.ring, complexes={"c": cx},
                       parameters={"complex": "c", "side": side})
    assert code == 0
    res = report["results"]
    assert res["depth"] == 6
    assert sum(res["levels"][-1]["generators"]) <= 20
    assert res["certificate_valid"] is True
    assert validate_cert(tmp_path, report)[0] == 0


def depth_form(where, depth, parameters):
    """(flags, parameters) that name the depth by flag or in the workspace."""
    if where == "flag":
        return ("--depth", str(depth)), parameters
    return (), dict(parameters, depth=depth)


@pytest.mark.parametrize("where", ["flag", "parameter"])
def test_towers_rejects_a_huge_depth_at_once(tmp_path, where):
    cx = random_complex(random.Random(101), Zmod(8), -2, 3)
    flags, parameters = depth_form(where, 10 ** 9, {"complex": "c", "side": "injective"})
    started = time.perf_counter()
    code, report = run(tmp_path, "towers", cx.ring, complexes={"c": cx},
                       parameters=parameters, flags=flags)
    assert time.perf_counter() - started < 1
    assert code == 2
    assert report["results"] == {
        "error": f"tower depth {10 ** 9} exceeds the limit of {MAX_DEPTH}"}


@pytest.mark.parametrize("where", ["flag", "parameter"])
def test_towers_rejects_a_negative_depth(tmp_path, where):
    # the input needs depth 0, so the negative depth is the only fault
    m = module_complex(cyclic_module(Zmod(8), 2), 0)
    assert resolutions.required_depth(m, "injective") == 0
    flags, parameters = depth_form(where, -1, {"complex": "m", "side": "injective"})
    code, report = run(tmp_path, "towers", m.ring, complexes={"m": m},
                       parameters=parameters, flags=flags)
    assert code == 2
    assert report["results"] == {"error": "tower depth must be nonnegative"}


@pytest.mark.parametrize("depth", [-1, 0, 10 ** 9])
@pytest.mark.parametrize("command,where", [
    (command, where) for command in cli.COMMANDS for where in ("flag", "parameter")
    # validate-cert reads a report, not a workspace
    if command != "towers" and (where == "flag" or command != "validate-cert")])
def test_every_command_but_towers_ignores_depth(tmp_path, monkeypatch, command, where,
                                                depth):
    # c needs an injective tower of depth 2 and a a projective one of depth
    # 1, so depth 0 lies below the need of resolve, phom and adjunction;
    # no command here builds a tower at any depth
    ring = Zmod(8)
    c = random_complex(random.Random(101), ring, -2, 3)
    a = module_complex(cyclic_module(ring, 4), 1)
    assert resolutions.required_depth(c, "injective") == 2
    assert resolutions.required_depth(a, "projective") == 1

    def refuse(*args):
        raise AssertionError("a tower was built")

    monkeypatch.setattr(resolutions, "_tower", refuse)
    ws = dict(complexes={"a": a, "c": c}, maps={"f": identity_chain_map(c)},
              parameters={"complex": "c", "side": "injective", "degree": 0, "map": "f",
                          "a": "a", "b": "c", "c": "c"})
    if command == "validate-cert":
        report = run(tmp_path, "resolve", ring, **ws)[1]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        want = main([command, "--json", str(path)])
        got = main([command, "--json", "--depth", str(depth), str(path)])
        want, got = [(code, json.loads(out)) for code, out in (want, got)]
    else:
        want = run(tmp_path, command, ring, **ws)
        flags, ws["parameters"] = depth_form(where, depth, ws["parameters"])
        got = run(tmp_path, command, ring, **ws, flags=flags)
    assert want[0] in (0, 1)
    assert got[0] == want[0]
    assert without_timing(got[1]) == without_timing(want[1])


def test_towers_rejects_an_input_needing_too_deep_a_tower(tmp_path):
    cx = module_complex(cyclic_module(Zmod(8), 2), -MAX_DEPTH - 1)
    code, report = run(tmp_path, "towers", cx.ring, complexes={"c": cx},
                       parameters={"complex": "c", "side": "injective"})
    assert code == 2
    assert report["results"] == {
        "error": f"tower depth {MAX_DEPTH + 1} exceeds the limit of {MAX_DEPTH}"}


def test_text_report(tmp_path):
    ring = Zmod(4)
    cx = make_complex(ring, 0, [cyclic_module(ring, 4), cyclic_module(ring, 4)],
                      [mat([[2]])])
    path = tmp_path / "homology.json"
    path.write_text(serialize_input(WorkbenchInput(
        ring, complexes={"c": cx}, parameters={"complex": "c"})), encoding="utf-8")
    code, out = main(["homology", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == [
        "command: homology",
        "status: ok",
        "results:",
        "  complex: c",
        "  window: 0 1",
        "  homology:",
        "    H^0: 2",
        "    H^1: 2",
    ]
    assert lines[-1].startswith("elapsed: ") and lines[-1].endswith("s")


# ---------------------------------------------------------------------------
# the argv grammar: purcat <command> <input> [--json] [--depth N]

# outcomes: the --json towers report of depth 3; a --json report of the
# handler's own error; the --json report of the same command without its
# --depth; the help on stdout; nothing on stdout and the usage with a
# one-line reason on stderr
DEPTH_3, HANDLER_ERROR, IGNORED, HELP, USAGE = (
    "depth-3", "handler-error", "ignored", "help", "usage")

GRAMMAR = [
    (["towers", "{ws}", "--json", "--depth", "3"], 0, DEPTH_3),
    (["--depth", "3", "--json", "towers", "{ws}"], 0, DEPTH_3),
    (["towers", "--depth=3", "{ws}", "--json"], 0, DEPTH_3),
    (["--json", "towers", "-", "--depth=3"], 0, DEPTH_3),
    (["towers", "{ws}", "--json", "--depth", "-1"], 2, HANDLER_ERROR),
    # only towers reads a depth: the others parse the flag and ignore it
    (["resolve", "{ws}", "--json", "--depth", "-1"], 0, IGNORED),
    (["phom", "{ws}", "--json", "--depth=-1"], 0, IGNORED),
    (["adjunction", "{ws}", "--json", "--depth", "-1"], 0, IGNORED),
    (["--help"], 0, HELP),
    (["towers", "{ws}", "-h"], 0, HELP),
    (["nosuch", "{ws}"], 2, USAGE),
    (["towers", "{ws}", "--jsn"], 2, USAGE),
    (["towers", "{ws}", "--js"], 2, USAGE),
    (["towers"], 2, USAGE),
    ([], 2, USAGE),
    (["towers", "{ws}", "extra"], 2, USAGE),
    # --seed is no option
    (["towers", "{ws}", "--seed"], 2, USAGE),
    (["towers", "{ws}", "--seed", "x"], 2, USAGE),
    (["towers", "{ws}", "--depth"], 2, USAGE),
    (["towers", "{ws}", "--depth", "x"], 2, USAGE),
    (["towers", "{ws}", "--depth=1.5"], 2, USAGE),
]


@pytest.mark.parametrize("argv,code,outcome", GRAMMAR,
                         ids=lambda v: " ".join(v) or "(none)" if isinstance(v, list) else None)
def test_argv_grammar(tmp_path, monkeypatch, argv, code, outcome):
    cx = random_complex(random.Random(7), Zmod(8), -2, 3)
    text = serialize_input(WorkbenchInput(cx.ring, complexes={"m": cx}, parameters={
        "complex": "m", "side": "injective", "a": "m", "b": "m", "c": "m"}))
    path = tmp_path / "towers.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def call(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main([str(path) if a == "{ws}" else a for a in args])
            except SystemExit as exc:
                status = exc.code
        return status, out.getvalue(), err.getvalue()

    status, out, err = call(argv)
    assert status == code
    if outcome == DEPTH_3:
        _, reference, _ = call(["towers", "--json", "--depth", "3", "{ws}"])
        # the workspace needs depth 2, so the default would not give this report
        assert json.loads(reference)["results"]["depth"] == 3
        assert without_timing(json.loads(out)) == without_timing(json.loads(reference))
        assert err == ""
    elif outcome == HANDLER_ERROR:
        assert json.loads(out)["results"] == {"error": "tower depth must be nonnegative"}
    elif outcome == IGNORED:
        _, reference, _ = call([argv[0], "{ws}", "--json"])
        assert without_timing(json.loads(out)) == without_timing(json.loads(reference))
        assert err == ""
    elif outcome == HELP:
        assert out == cli.HELP and err == ""
        assert all(command in out for command in cli.COMMANDS)
    else:
        assert out == ""
        assert err.startswith(cli.USAGE)
        reason = err[len(cli.USAGE):]
        assert reason.startswith("purcat: error: ") and reason.count("\n") == 1


def test_importing_the_cli_loads_no_argument_parser():
    # argparse and the gettext and locale modules behind its messages cost
    # a cold run more than many commands' algebra
    probe = ("import purcat.cli, sys; "
             "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_main_leaves_the_gc_freeze_count_as_it_found_it(tmp_path, monkeypatch):
    """main freezes the imported heap for the run and thaws it after, on
    success, on an error report and on an escaping exception; a heap the
    caller froze first stays frozen."""
    seen = []
    homology = cli.HANDLERS["homology"]

    def spy(wi, args):
        seen.append(gc.get_freeze_count())
        return homology(wi, args)

    monkeypatch.setitem(cli.HANDLERS, "homology", spy)
    before = gc.get_freeze_count()
    cx = module_complex(cyclic_module(Zmod(4), 2))
    code, _ = run(tmp_path, "homology", Zmod(4), complexes={"c": cx},
                  parameters={"complex": "c"})
    assert code == 0 and seen[-1] > before and gc.get_freeze_count() == before
    assert main(["homology", str(tmp_path / "missing.json")])[0] == 2
    assert gc.get_freeze_count() == before

    def boom(wi, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "homology", boom)
    with pytest.raises(RuntimeError):
        main(["homology", str(tmp_path / "homology.json")])
    assert gc.get_freeze_count() == before
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        monkeypatch.setitem(cli.HANDLERS, "homology", spy)
        assert main(["homology", str(tmp_path / "homology.json")])[0] == 0
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
