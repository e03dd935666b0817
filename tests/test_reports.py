"""Pinned whole reports: one small seeded workspace per command.

Each case runs the command in process on a fixed workspace, once with
--json and once as text.  The digests are sha256 prefixes of the JSON
report with its timing block removed and of the text report with its
elapsed: line removed, so a change to any verdict, number, certificate,
key or line of layout shows up here, while the timing figure does not.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from purcat import cli
from purcat.exact_linalg import ZZ, Zmod
from purcat.randgen import (
    random_chain_map,
    random_complex,
    random_pure_acyclic,
    random_pure_qis,
)
from purcat.serialize import WorkbenchInput, serialize_input


def workspaces():
    """Case -> (ring, complexes, maps, parameters), drawn from fixed seeds;
    each case is named after its command (COMMAND names the others).

    The complex c needs a one-level tower on either side, so towers pins
    the tower path and resolve pins a window that crosses 0 on both
    sides, resolved with no tower.  The Z/12 phom pair has a zero derived
    hom; the Z/72 one has nonzero homology in degrees -1 and 0, so its
    value is pinned too.  The adjunction triple has nonzero hom groups,
    so it pins the currying path; it builds no tower, since with no depth
    its arguments are resolved by reducing them.
    """
    z12 = Zmod(12)
    rng = random.Random("reports")
    src = random_complex(rng, z12, 0, 2)
    tgt = random_complex(rng, z12, 0, 2)
    f = random_chain_map(rng, src, tgt)
    pure = random_pure_acyclic(rng, ZZ)
    u = random_pure_qis(rng, random_complex(rng, ZZ, 0, 2))
    c3 = random_complex(random.Random("reports-towers-6"), z12, -1, 3)
    rng = random.Random("reports-adjunction-27")
    a, b, c = (random_complex(rng, z12, 0, 2) for _ in range(3))
    rng = random.Random("reports-phom-2")
    a72, b72 = (random_complex(rng, Zmod(72), 0, 2) for _ in range(2))
    return {
        "homology": (z12, {"c": c3}, {}, {"complex": "c"}),
        "cone": (z12, {"s": src, "t": tgt}, {"f": f}, {"map": "f"}),
        "truncate": (z12, {"c": c3}, {}, {"complex": "c", "degree": 0, "keep": "geq"}),
        "purity": (ZZ, {"p": pure}, {}, {"complex": "p"}),
        "qis": (ZZ, {"s": u.src, "t": u.tgt}, {"u": u}, {"map": "u"}),
        "resolve": (z12, {"c": c3}, {}, {"complex": "c", "side": "projective"}),
        "towers": (z12, {"c": c3}, {}, {"complex": "c", "side": "injective"}),
        "phom": (z12, {"a": src, "b": tgt}, {}, {"a": "a", "b": "b"}),
        "phom-z72": (Zmod(72), {"a": a72, "b": b72}, {}, {"a": "a", "b": "b"}),
        "adjunction": (z12, {"a": a, "b": b, "c": c}, {}, {"a": "a", "b": "b", "c": "c"}),
    }


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


COMMAND = {"phom-z72": "phom"}


def pinned(tmp_path, case):
    """(exit status, JSON digest, text digest) of one case's report."""
    command = COMMAND.get(case, case)
    if command == "validate-cert":
        path = workspace_file(tmp_path, "resolve")
        report = tmp_path / "resolve-report.json"
        report.write_text(run(["resolve", "--json", str(path)])[1], encoding="utf-8")
        path = report
    else:
        path = workspace_file(tmp_path, case)
    code, out = run([command, "--json", str(path)])
    data = json.loads(out)
    del data["timing"]
    text_code, text = run([command, str(path)])
    assert text_code == code
    lines = text.splitlines(keepends=True)
    assert lines[-1].startswith("elapsed: ")
    return code, sha(json.dumps(data, indent=2)), sha("".join(lines[:-1]))


def workspace_file(tmp_path, case):
    ring, complexes, maps, parameters = workspaces()[case]
    path = tmp_path / f"{case}.json"
    path.write_text(serialize_input(WorkbenchInput(
        ring, complexes=complexes, maps=maps, parameters=parameters)), encoding="utf-8")
    return path


DIGESTS = {
    "homology": (0, "0d9a296216da419b", "30300e684c7f024d"),
    "cone": (0, "a5863127dab6db7a", "eb0d55313dec982d"),
    "truncate": (0, "2578664e9cc2fb9a", "e8de6623a9bbf55b"),
    "purity": (0, "bd1f5280fe0c5d29", "2f77404acd6491af"),
    "qis": (0, "30a61dc60d07c96c", "50583f529636b49f"),
    "resolve": (0, "26f82a6202c0e208", "0f400ad0ceaf24d1"),
    "towers": (0, "4967f49d23290ac6", "190e86e5b92820d0"),
    "phom": (0, "699b8d37e1df83a7", "6735b7372fff72cc"),
    "phom-z72": (0, "4d1ccbf2aad66ed2", "07ba2b225cee9497"),
    "adjunction": (0, "333c298b1423ef6d", "a7725f9636538b9d"),
    "validate-cert": (0, "6dd8a819fd492dd2", "6fbe89506b8f17cd"),
}


@pytest.mark.parametrize("case", cli.COMMANDS + tuple(COMMAND))
def test_report_digest_is_pinned(tmp_path, case):
    assert pinned(tmp_path, case) == DIGESTS[case]
