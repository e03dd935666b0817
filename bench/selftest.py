"""Tests of the benchmark itself; kept out of the tier-1 suite.

    python -m pytest -q bench/selftest.py

Everything that runs purcat code does so in forked children, as the
benchmark does, so this process stays cold for the cold-start test.
"""

from __future__ import annotations

import json
import os
import re
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import purcat.cli  # noqa: E402,F401
from purcat.exact_linalg import smith_normal_form  # noqa: E402

import calibrate  # noqa: E402
import items  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory)) if name != "manifest.json"}


def _one_round(directory, workload):
    """One item of each kind of the workload, written under directory."""
    directory.mkdir(parents=True, exist_ok=True)
    return run.generate(workload, 3, 1, str(directory))


def _without_timing(path):
    """Report bytes with the one nondeterministic figure blanked out."""
    with open(path, "rb") as fh:
        text = fh.read()
    assert json.loads(text)["timing"]
    return re.sub(rb'("timing": \{\s*"seconds": )[0-9.e+-]+', rb"\1X", text)


def test_same_seed_gives_identical_workspace_files(tmp_path):
    for workload in workloads.WORKLOADS:
        dirs = [tmp_path / f"{workload}-{k}" for k in range(3)]
        for d, seed in zip(dirs, (11, 11, 12)):
            d.mkdir()
            run.generate(workload, seed, 2, str(d))
        first, again, other = (_files(str(d)) for d in dirs)
        assert first and first == again
        assert first != other


def test_self_time_on_hand_built_span_tree():
    # main [0,10] > a [1,4] > b [2,3];  main > a [5,9] > a [6,8]
    tree = [("main", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
            ("a", 5.0, 9.0, 0), ("a", 6.0, 8.0, 3)]
    table = spans.aggregate(tree)
    assert table["main"] == {"calls": 1, "self_s": 3.0, "incl_s": 10.0}
    assert table["a"] == {"calls": 3, "self_s": 6.0, "incl_s": 7.0}
    assert table["b"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0}


def test_scaling_uses_the_median_reference_around_a_timing():
    refs = [2 * calibrate.REFERENCE_S] * 20
    assert calibrate.scale(refs, 10) == 0.5
    refs[10] = 100 * calibrate.REFERENCE_S  # one outlying sample does not move it
    assert calibrate.scale(refs, 10) == 0.5
    assert calibrate.scale(refs, 20) == 0.5  # after the last sample: the last ones


def test_each_item_starts_cold(tmp_path):
    entry = next(e for e in _one_round(tmp_path, "certify")
                 if e["command"] == "resolve")
    assert smith_normal_form.cache_info().currsize == 0
    argv = [entry["command"], "--json", entry["file"]]
    hits = []
    for k in range(2):
        out = items.run_item(argv, str(tmp_path / f"cold{k}.json"), trace_id=entry["id"])
        assert out.exit == 0
        layer = out.summary["layers"]["exact_linalg.smith_normal_form"]
        hits.append((layer["calls"], layer["hits"]))
    assert hits[0] == hits[1] and hits[0][1] > 0
    assert smith_normal_form.cache_info().currsize == 0


def test_tracing_leaves_reports_unchanged(tmp_path):
    for workload in workloads.WORKLOADS:
        for entry in _one_round(tmp_path / workload, workload):
            argv = [entry["command"], "--json", entry["file"]]
            plain = items.run_item(argv, entry["file"] + ".plain")
            traced = items.run_item(argv, entry["file"] + ".traced", trace_id=entry["id"])
            assert traced.summary["layers"]["cli.main"]["calls"] == 1
            assert plain.exit == traced.exit == entry["expect"]["exit"]
            assert _without_timing(plain.report_path) == _without_timing(traced.report_path)


def test_checker_accepts_known_answers_and_flags_wrong_ones(tmp_path):
    entry = next(e for e in _one_round(tmp_path, "probes")
                 if e["expect"]["verdict"] == "NotPure")
    out = items.run_item([entry["command"], "--json", entry["file"]], entry["file"] + ".rep")
    assert items.check(entry["expect"], out, None) == []
    wrong = dict(entry["expect"], exit=0, verdict="Pure")
    problems = items.check(wrong, out, None)
    assert any("exit" in p for p in problems) and any("verdict" in p for p in problems)


def test_item_past_the_time_limit_is_killed(tmp_path):
    entry = _one_round(tmp_path, "adjunction")[0]
    out = items.run_item([entry["command"], "--json", entry["file"]],
                         entry["file"] + ".rep", limit_s=0.0)
    assert out.timed_out
    assert items.check(entry["expect"], out, None)
