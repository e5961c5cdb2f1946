import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_path = list(sys.path)
_spec.loader.exec_module(compare_outputs)
sys.path[:] = _path  # the tool puts bench/, src/ and tests/ first for its job runner; no test here needs them


def _tree(root: Path, files: dict) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def _report(meta: dict, **sections) -> bytes:
    return json.dumps({"command": "tc", "sections": sections, "meta": meta}, indent=1).encode()


def test_differences_ignore_meta_and_list_every_other_change(tmp_path):
    parent = _tree(tmp_path / "parent", {
        "job/same.json": _report({"duration_s": 0.1}, dependence=[1.0]),
        "job/meta.json": _report({"duration_s": 0.1}, dependence=[1.0]),
        "job/body.json": _report({"duration_s": 0.1}, dependence=[1.0]),
        "job/rows.csv": b"a,b\n1,2\n",
        "job/parent_only.csv": b"a\n",
        "exit_codes.json": b'{"job": 0}\n',
    })
    change = _tree(tmp_path / "change", {
        "job/same.json": _report({"duration_s": 0.1}, dependence=[1.0]),
        "job/meta.json": _report({"duration_s": 9.9, "started_at": "later"}, dependence=[1.0]),
        "job/body.json": _report({"duration_s": 0.1}, dependence=[1.0000000000000002]),
        "job/rows.csv": b"a,b\n1,3\n",
        "job/change_only.json": b"{}\n",
        "exit_codes.json": b'{"job": 0}\n',
    })
    assert compare_outputs.differences(parent, change) == [
        "differs: job/body.json",
        "only in change: job/change_only.json",
        "only in parent: job/parent_only.csv",
        "differs: job/rows.csv",
    ]
    assert compare_outputs.differences(parent, parent) == []


def test_leaf_differences_name_each_field_and_its_largest_change():
    rows = [{"kl": 0.5, "order": [0, 1]}, {"kl": 0.25, "order": [1, 0]}]
    parent = _report({"duration_s": 0.1}, rows=rows, note="a")
    moved = [{"kl": 0.5 + 2**-52, "order": [1, 0]}, {"kl": 0.25 - 2**-50, "order": [0, 1]}]
    change = _report({"duration_s": 9.9}, rows=moved, note="b", extra=1)
    assert compare_outputs.leaf_differences(parent, change) == [
        "sections.rows[*].kl: 2 differing, largest |difference| 8.88e-16",
        "sections.rows[*].order[*]: 4 differing, largest |difference| 1",
        "sections.note: 1 differing",
        "sections.extra: 1 differing",
    ]
    assert compare_outputs.leaf_differences(parent, _report({"duration_s": 2.0}, rows=rows, note="a")) == []
    assert compare_outputs.leaf_differences(b"a,b\n1,2\n", b"a,b\n1,3\n") == []


def test_column_differences_name_each_column_and_its_largest_change():
    parent = b"context_id,pair,cmi\nc0,0-1,0.5\nc0,0-2,0.25\nc1,0-1,0.125\n"
    change = b"context_id,pair,cmi\nc0,0-1,0.5000000000000001\nc0,1-2,0.2499999999999991\nc1,0-1,0.125\nc2,0-1,1\n"
    assert compare_outputs.column_differences(parent, change) == [
        "cmi: 3 differing, largest |difference| 8.88e-16",  # the row on one side only is not a number pair
        "pair: 2 differing",
        "context_id: 1 differing",
    ]
    assert compare_outputs.column_differences(parent, parent) == []
    # a renamed column is a differing header cell, under the parent's name
    assert compare_outputs.column_differences(b"a,b\n1,2\n", b"a,c\n1,2.5\n") == [
        "b: 2 differing, largest |difference| 0.5"
    ]

def test_reports_that_differ_only_in_layout_differ(tmp_path):
    # the report's text is compared, with only meta's value masked: indent and separators count
    report = {"command": "tc", "sections": {"dependence": [1.0, {"a": 2}]}, "meta": {"duration_s": 0.1}}
    layouts = {"indent-1.json": {"indent": 1}, "indent-2.json": {"indent": 2}, "compact.json": {"separators": (",", ":")}}
    parent = _tree(tmp_path / "parent", {name: json.dumps(report, indent=1).encode() for name in layouts})
    change = _tree(tmp_path / "change", {name: json.dumps(report, **layout).encode() for name, layout in layouts.items()})
    assert compare_outputs.differences(parent, change) == ["differs: compact.json", "differs: indent-2.json"]
    masked = compare_outputs.without_meta(json.dumps(report, indent=1).encode())
    assert masked == json.dumps({**report, "meta": 0}, indent=1).replace("0\n}", "<meta>\n}").encode()
