"""Traces are bit-identical to the ones committed in ``tests/golden/trace_digests.json``."""

import json

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
