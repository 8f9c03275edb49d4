"""The pinned catalog: regenerate every workload's entry at the default
seed and compare with ``catalog.lock.json``, so a scenario (its sizes,
query, executed plan, answer or exact counts) cannot drift silently.

An *intentional* change is re-pinned with::

    REGEN_CATALOG=1 PYTHONPATH=src python -m pytest \\
        benchmarks/perf/test_catalog.py
"""

import json
import os
from pathlib import Path

import pytest

import workloads as wl

LOCK = Path(__file__).resolve().parent / "catalog.lock.json"


def regenerate() -> dict:
    catalog = {}
    for name, cls in wl.WORKLOADS.items():
        workload = cls(wl.DEFAULT_SEED, smoke=True)
        workload.setup()
        try:
            catalog[name] = workload.catalog_entry()
        finally:
            workload.teardown()
    return catalog


@pytest.fixture(scope="module")
def catalog():
    fresh = regenerate()
    if os.environ.get("REGEN_CATALOG"):
        LOCK.write_text(json.dumps(fresh, indent=1, sort_keys=True)
                        + "\n")
    return fresh


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_is_the_pinned_one(catalog, name):
    pinned = json.loads(LOCK.read_text())
    assert catalog[name] == pinned[name]


def test_lock_pins_exactly_the_benchmarks_workloads():
    spec = json.loads((LOCK.parents[2] / "BENCHMARK.json").read_text())
    pinned = json.loads(LOCK.read_text())
    assert sorted(pinned) == sorted(w["name"]
                                    for w in spec["workloads"])


def test_plan_normalization_renumbers_generated_names():
    assert wl.normalize_plan("join[$_V12 = $_V7]\n  src[$H -> $_V12]") \
        == "join[$g0 = $g1]\n  src[$H -> $g0]"
