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
    "homology": (0, "4401501924c65964", "905265569857c538"),
    "cone": (0, "c8fc5d24278afd49", "cd9b1c1bd9fb2421"),
    "truncate": (0, "a4cfda0aee16d092", "5a43c2cb898d1038"),
    "purity": (0, "008fb13a7a273d49", "def6a5bc69ce9718"),
    "qis": (0, "bff60797792b01c1", "5af7f0217dc3b8ec"),
    "resolve": (0, "267c5d07d239d1bb", "61ccf62de2c958ed"),
    "towers": (0, "7d1660bc9e371ce7", "788d9f8432d4e0d4"),
    "phom": (0, "5fdc82317afccc1a", "3b2aaad788ec6a49"),
    "phom-z72": (0, "18213f4860066bc9", "c10c42ea64146f0b"),
    "adjunction": (0, "5708f78d13feeff1", "4421b7e4dc59d326"),
    "validate-cert": (0, "f013f6d22f09cfe0", "433c27a88801cee7"),
}


@pytest.mark.parametrize("case", cli.COMMANDS + tuple(COMMAND))
def test_report_digest_is_pinned(tmp_path, case):
    assert pinned(tmp_path, case) == DIGESTS[case]
