"""Traces are bit-identical to the ones committed in ``tests/golden/trace_digests.json``."""

import json
import os

import pytest

from golden import regen


def _golden() -> dict:
    golden = json.loads(regen.GOLDEN.read_text())
    recorded = {key: golden[key] for key in ("python", "numpy")}
    assert recorded == regen.versions(), (
        f"the digests were recorded with {recorded}, this is {regen.versions()}: "
        "check the traces by other means, then rewrite them with tests/golden/regen.py")
    return golden


@pytest.mark.slow
def test_trace_digests_match_golden():
    golden = _golden()
    got = regen.compute()
    assert sorted(got) == sorted(golden["runs"])
    changed = {name: sorted(k for k, v in d.items() if golden["runs"][name][k] != v)
               for name, d in got.items() if d != golden["runs"][name]}
    assert not changed, f"digests changed: {changed}"


def test_experiment_digests_match_golden():
    golden = _golden()["experiment"]
    got = regen.compute_experiment()
    assert sorted(got) == sorted(golden)
    changed = sorted(name for name, digest in got.items() if digest != golden[name])
    assert not changed, f"digests changed: {changed}"


def test_regen_rewrites_the_file_only_when_something_differs(tmp_path, monkeypatch, capsys):
    """With the digests stubbed to the committed ones, ``regen.main`` leaves
    a copy of the committed file untouched, and rewrites a tampered copy to
    the committed bytes, listing what differed."""
    text = regen.GOLDEN.read_text()
    golden = json.loads(text)
    monkeypatch.setattr(regen, "compute", lambda: golden["runs"])
    monkeypatch.setattr(regen, "compute_experiment", lambda: golden["experiment"])
    monkeypatch.setattr(regen, "versions", lambda: {k: golden[k] for k in ("python", "numpy")})
    path = tmp_path / "trace_digests.json"
    monkeypatch.setattr(regen, "GOLDEN", path)

    path.write_text(text)
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    regen.main()
    assert capsys.readouterr().out == f"0 changed against {path}\n"
    assert path.read_text() == text and path.stat().st_mtime_ns == 10 ** 9

    tampered = json.loads(text)
    run = sorted(tampered["runs"])[0]
    tampered["runs"][run]["rows"] = "0" * 64
    tampered["experiment"]["summary.json"] = "0" * 64
    tampered["numpy"] = "0.0"
    path.write_text(json.dumps(tampered))
    regen.main()
    assert capsys.readouterr().out.splitlines() == [
        f"3 changed against {path}", f"  {run}: rows", "  experiment: summary.json",
        f"  numpy: 0.0 -> {golden['numpy']}", f"wrote {len(golden['runs'])} runs to {path}"]
    assert path.read_text() == text
