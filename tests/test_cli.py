"""The command line in-process: purity and qis reports, exit codes, determinism."""

import contextlib
import io
import json
import random

import pytest

from purcat import cli
from purcat.exact_linalg import ZZ, Zmod
from purcat.fpmod import cyclic_module, free_module
from purcat.complexes import make_complex, module_complex, zero_chain_map, zero_complex
from purcat.randgen import random_complex, random_pure_acyclic, random_pure_qis
from purcat.serialize import WorkbenchInput, serialize_input
from helpers import mat


def run(tmp_path, command, ring, complexes=None, maps=None, parameters=None):
    """(exit status, report) of one --json run on a fresh workspace file."""
    ws = WorkbenchInput(ring, complexes=complexes or {}, maps=maps or {},
                        parameters=parameters or {})
    path = tmp_path / f"{command}.json"
    path.write_text(serialize_input(ws), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--json", str(path)])
    return code, json.loads(out.getvalue())


def purity(tmp_path, cx):
    return run(tmp_path, "purity", cx.ring, complexes={"c": cx},
               parameters={"complex": "c"})


def qis(tmp_path, f):
    return run(tmp_path, "qis", f.src.ring, complexes={"s": f.src, "t": f.tgt},
               maps={"f": f}, parameters={"map": "f"})


def ses(ring, a, b, c, into, onto):
    """0 -> a -> b -> c -> 0 in degrees 0..2 with the given 1x1 maps."""
    return make_complex(ring, 0, [a, b, c], [mat([[into]]), mat([[onto]])])


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
    assert res["probes"] == [[0], [2], [3], [4]]
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
    assert res["probes"] == [[72], [2], [3], [4], [6], [8], [9], [12], [18],
                             [24], [36]]
    assert res["failing_probe"] == [3]
    assert res["failing_degree"] == 0


def test_purity_not_acyclic_fails_at_free_probe(tmp_path):
    code, report = purity(tmp_path, module_complex(cyclic_module(Zmod(12), 4), 1))
    assert code == 1
    assert report["results"]["failing_probe"] == [12]
    assert report["results"]["failing_degree"] == 1


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
    assert list(res) == ["map", "cone_window", "verdict", "probes", "detail",
                         "failing_probe", "failing_degree"]


def test_reports_are_deterministic(tmp_path):
    z = free_module(ZZ, 1)
    cx = ses(ZZ, z, z, cyclic_module(ZZ, 6), 6, 1)
    first = purity(tmp_path, cx)
    second = purity(tmp_path, cx)
    assert first[0] == second[0] == 1
    assert without_timing(first[1]) == without_timing(second[1])


def test_purity_over_huge_modulus(tmp_path):
    # the divisors of 10^12 come from its factorization, not a range(2, m) walk
    ring = Zmod(10 ** 12)
    cx = ses(ring, cyclic_module(ring, 2), cyclic_module(ring, 4),
             cyclic_module(ring, 2), 2, 1)
    code, report = purity(tmp_path, cx)
    assert code == 1
    res = report["results"]
    assert res["verdict"] == "NotPure"
    assert len(res["probes"]) == 168
    assert res["failing_probe"] == [2]
    assert res["failing_degree"] == 0
    assert report["timing"]["seconds"] < 5


def test_purity_over_prime_modulus_near_10_to_18(tmp_path):
    ring = Zmod(10 ** 18 + 3)
    code, report = purity(tmp_path, random_pure_acyclic(random.Random(2), ring))
    assert code == 0
    assert report["results"]["probes"] == [[10 ** 18 + 3]]
    assert report["timing"]["seconds"] < 5


def test_purity_modulus_beyond_primality_proofs_exits_2(tmp_path):
    ring = Zmod(2 ** 89 - 1)
    code, report = purity(tmp_path, module_complex(cyclic_module(ring, 1), 0))
    assert code == 2
    assert report["status"] == "error"
    assert "cannot factor" in report["results"]["error"]
