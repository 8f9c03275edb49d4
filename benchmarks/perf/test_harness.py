"""Self-tests of the benchmark harness (``pytest benchmarks/perf``; not
part of the tier-1 suite)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import stats
import workloads as wl

HERE = Path(__file__).resolve().parent


# -- order statistics ---------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))          # 1..100
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.95) == 7.0
    # order of the input does not matter, ties are kept
    assert stats.percentile([3, 1, 2, 2], 0.5) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1], 0.0)


def test_ten_samples_beyond_rule():
    # p95 needs 200 samples, p99 needs 1000
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.supported(200, 0.95)
    assert not stats.supported(199, 0.95)
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)
    # p50 of 20 has exactly ten beyond it
    assert stats.supported(20, 0.50)
    assert not stats.supported(19, 0.50)


def test_spread_matches_the_drivers_definition():
    import statistics
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    first, _, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (third - first) / statistics.median(values))


# -- self-time folding --------------------------------------------------

def test_self_times_fold_on_a_synthetic_span_tree():
    #  op [0, 10]
    #    client [1, 9]
    #      lazy [2, 5]
    #        buffer [3, 4]
    #      lazy [6, 8]
    tree = [
        ["op", 0.0, 10.0, -1, 0],
        ["client", 1.0, 9.0, 0, 0],
        ["lazy", 2.0, 5.0, 1, 0],
        ["buffer", 3.0, 4.0, 2, 0],
        ["lazy", 6.0, 8.0, 1, 0],
    ]
    folded = spans.fold_self_times(tree)
    assert folded == {"op": (2.0, 1), "client": (3.0, 1),
                      "lazy": (4.0, 2), "buffer": (1.0, 1)}
    # self times of one op sum to its root span's duration
    assert sum(s for s, _ in folded.values()) == 10.0


def test_recorder_nests_spans_and_survives_an_exception():
    recorder = spans.Recorder()
    root = recorder.begin("op")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.call("lazy", boom)
    recorder.call("lazy", lambda: recorder.call("buffer", int))
    recorder.end(root)
    taken = recorder.take()
    assert [(s[0], s[3]) for s in taken] == [
        ("op", -1), ("lazy", 0), ("lazy", 0), ("buffer", 2)]
    assert all(s[2] >= s[1] for s in taken)
    assert recorder.spans == [] and recorder.op_id == 1
    # take() closes what an exception left open
    recorder.begin("op")
    recorder.begin("client")
    assert [s[2] > 0 for s in recorder.take()] == [True, True]


# -- proxies ------------------------------------------------------------

def test_lxp_proxy_forwards_capabilities_and_stats():
    from repro import XMLFileWrapper
    from repro.runtime.fragcache import admissible

    wrapper = XMLFileWrapper("homesSrc", "<homes><home/></homes>",
                             chunk_size=2)
    recorder = spans.Recorder()
    proxy = spans.LXPProxy(wrapper, recorder, "wrappers")
    # negotiated by presence: the proxy must answer as the wrapper does
    assert admissible("homesSrc", proxy)[0] is True
    assert proxy.snapshot_version() == wrapper.snapshot_version()
    assert hasattr(proxy, "push_compile")
    assert not hasattr(proxy, "side_effects")
    assert proxy.stats is wrapper.stats
    proxy.fill(proxy.get_root().hole_id)
    assert wrapper.stats.fills == 1
    assert [s[0] for s in recorder.take()] == ["wrappers", "wrappers"]


def test_traced_stack_gives_the_untraced_answer_and_counts():
    workload = wl.WORKLOADS["wrapped_scan"](seed=5)
    workload.setup()
    recorder = spans.Recorder()
    _, _, answer, counts = workload.traced_op(recorder)
    assert answer == workload.oracle
    assert counts() == workload.expected_counts
    layers = spans.fold_self_times(recorder.take())
    assert {"mediator.register", "mediator.prepare", "client", "lazy",
            "buffer", "wrappers", "relational"} <= set(layers)
    assert workload.connection.cursor_advances == workload.ROWS + 1


# -- the daemon child ---------------------------------------------------

def test_daemon_child_is_reaped_when_setup_fails():
    class Broken(wl.ServedScan):
        def make_inputs(self):
            raise RuntimeError("no inputs")

    workload = Broken(seed=1)
    with pytest.raises(RuntimeError):
        workload.setup()
    assert workload.daemon.process.returncode is not None


def test_daemon_child_is_reaped_when_measurement_fails(monkeypatch):
    seen = []

    class Broken(wl.ServedScan):
        def teardown(self):
            super().teardown()
            seen.append(self.daemon.process.returncode)

    monkeypatch.setitem(wl.WORKLOADS, "served_scan", Broken)
    monkeypatch.setattr(wl, "measure", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run.run_one("served_scan", 2, 0.1, False, True)
    assert seen == [0]      # SIGTERM answered with a clean drain


# -- comparing reports --------------------------------------------------

def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert run.verdict(steady, [10.2] * 5, "lower", 0.10) == "no worse"
    assert run.verdict(steady, [12.0] * 5, "lower", 0.10) == "worse"
    assert run.verdict(steady, [8.0] * 5, "lower", 0.10) == "better"
    assert run.verdict(steady, [8.0] * 5, "higher", 0.10) == "worse"
    noisy = [8.0, 12.0, 9.0, 11.5, 10.0]
    assert run.verdict(noisy, [10.5] * 5, "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert run.verdict(noisy, [7.0] * 5, "lower", 0.10) == "better"
    assert run.verdict(noisy, [13.0] * 5, "lower", 0.10) == "worse"
    # single runs: medians only
    assert run.verdict([10.0], [10.5], "lower", 0.10) == "no worse"


# -- the whole set, in smoke mode ----------------------------------------

def test_smoke_runs_every_workload(tmp_path):
    import time
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:]
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(wl.WORKLOADS)
    for name, runs in report["workloads"].items():
        assert runs[0]["correct"], name
        assert set(runs[0]["end_to_end"]) == set(run.END_TO_END)
        assert set(runs[0]["per_layer"]) == set(run.PER_LAYER)
        assert runs[0]["per_layer"]["trace.coverage"] >= 0.95, name
    # the bypass predictions, on the rig's own numbers
    join = report["workloads"]["join_scan"][0]["per_layer"]
    self_times = {key: value for key, value in join.items()
                  if key.endswith("self_ms")}
    assert max(self_times, key=self_times.get) == "lazy.self_ms"
    assert all(value == 0 for key, value in join.items()
               if key.startswith(("buffer.", "wrappers.", "daemon.",
                                  "server_client.")))
    cold = report["workloads"]["cache_cold"][0]["per_layer"]
    warm = report["workloads"]["cache_warm"][0]["per_layer"]
    assert cold["wrappers.fills"] > 0 and warm["wrappers.fills"] == 0
    assert warm["fragcache.view_adoptions"] == 1
    assert elapsed < 20.0, "smoke took %.1fs" % elapsed
    # comparing a report with itself finds nothing worse
    assert run.compare(str(out), str(out)) == 0
