"""Tests of the benchmark itself: inputs, trace hygiene, metric names.

Run from the checkout root with ``src`` on the path::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import re
from pathlib import Path

import pytest

from perfbench import measure, run
from perfbench.layers import TARGETS, LayerTrace, _resolve
from perfbench.workloads import LONG_IMPLANTS, SHORT_IMPLANTS, Shape, generate

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "daily": Shape(hosts=3, days=1, popular_sites=2, popular_per_host=1,
                   tail_per_host=0, niche_adopters=1,
                   implants=SHORT_IMPLANTS[:1]),
    "monthly": Shape(hosts=3, days=30, popular_sites=2, popular_per_host=1,
                     tail_per_host=0, niche_adopters=1,
                     implants=LONG_IMPLANTS[:1]),
    "backfill": Shape(hosts=4, days=2, popular_sites=2, popular_per_host=1,
                      tail_per_host=1),
}


def _tree(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One tiny input set per workload."""
    home = tmp_path_factory.mktemp("inputs")
    return {name: generate(name, 5, home / name, shape)
            for name, shape in TINY.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_byte_identical_inputs(workload, inputs, tmp_path):
    again = generate(workload, 5, tmp_path / "again", TINY[workload])
    other = generate(workload, 6, tmp_path / "other", TINY[workload])
    assert _tree(again) == _tree(inputs[workload])
    assert _tree(other) != _tree(inputs[workload])


def _attributes():
    found = {}
    for module_name, path, _metric, _counter in TARGETS:
        owner, name = _resolve(module_name, path)
        assert owner is not None, f"{module_name}.{path} is gone"
        found[(module_name, path)] = vars(owner)[name]
    return found


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_removes_every_wrapper(workload, inputs, tmp_path):
    before = _attributes()
    job = measure.WORKLOADS[workload](inputs[workload], tmp_path)
    job.setup()
    result = measure.measure(job, seconds=0.0, trace=True)
    assert result["correct"], result["problems"]
    assert result["layers"]["unattributed_frac"] < 0.05
    after = _attributes()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_removed_when_the_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with LayerTrace():
            assert _attributes() != before
            raise RuntimeError("boom")
    assert _attributes() == before


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_and_plain_reports_are_identical(workload, inputs, tmp_path):
    job = measure.WORKLOADS[workload](inputs[workload], tmp_path)
    job.setup()
    plain = job.run_once()
    with LayerTrace() as layers:
        traced = job.run_once()
    assert not plain.problems and not traced.problems
    assert traced.signature == plain.signature
    assert plain.beacon_recall > 0
    assert layers.self_time, "the traced run recorded no spans"


def test_every_metric_name_is_well_formed():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
