"""Tests for the bench-snapshot harness and its regression comparator."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_snapshot", REPO_ROOT / "benchmarks" / "snapshot.py")
snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot)


@pytest.fixture(scope="module")
def quick_snap():
    # smallest case only — keeps the module-scoped fixture fast
    scheme, p, q, P = snapshot.QUICK_CASES[0]
    return {
        "schema": snapshot.SCHEMA,
        "version": snapshot.SCHEMA_VERSION,
        "quick": True,
        "host": snapshot.host_metadata(),
        "cases": {snapshot.case_key(scheme, p, q, P):
                  snapshot.run_case(scheme, p, q, P)},
    }


class TestGrid:
    def test_quick_is_subset_of_full(self):
        assert set(snapshot.QUICK_CASES) <= set(snapshot.FULL_CASES)

    def test_acceptance_case_is_pinned(self):
        assert ("greedy", 30, 10, 16) in snapshot.QUICK_CASES


class TestRunCase:
    def test_schema(self, quick_snap):
        (case,) = quick_snap["cases"].values()
        assert set(case) == {"structural", "timing", "plan_cache"}
        s, t = case["structural"], case["timing"]
        assert s["tasks"] > 0
        assert s["makespan"] > 0
        assert s["critical_path_length"] == pytest.approx(s["makespan"])
        assert 0 < s["utilization"] <= 1
        assert sum(s["kernel_shares"].values()) == pytest.approx(1.0)
        for key in snapshot.TIMING_LOWER:
            assert t[key] >= 0
        assert t["sim_tasks_per_s"] > 0
        # the warm plan() call hit the cache instead of rebuilding
        assert case["plan_cache"]["warm_hits"] >= 1

    def test_json_round_trip(self, quick_snap):
        assert json.loads(json.dumps(quick_snap)) == quick_snap


class TestComparator:
    def test_identical_snapshots_clean(self, quick_snap):
        issues, compared = snapshot.compare_snapshots(quick_snap, quick_snap)
        assert issues == []
        assert compared == 1

    def test_structural_drift_is_fatal(self, quick_snap):
        other = copy.deepcopy(quick_snap)
        (case,) = other["cases"].values()
        case["structural"]["makespan"] += 1.0
        issues, _ = snapshot.compare_snapshots(quick_snap, other)
        kinds = {i["kind"] for i in issues}
        assert kinds == {"structural"}
        assert any(i["metric"] == "makespan" for i in issues)

    def test_timing_regression_flagged_beyond_tolerance(self, quick_snap):
        other = copy.deepcopy(quick_snap)
        (case,) = other["cases"].values()
        case["timing"]["sim_s"] *= 1.5  # 50% slower
        issues, _ = snapshot.compare_snapshots(quick_snap, other,
                                               tolerance=0.15)
        assert [i["kind"] for i in issues] == ["timing"]
        assert issues[0]["metric"] == "sim_s"
        assert issues[0]["ratio"] == pytest.approx(1.5)
        # within tolerance: clean
        issues, _ = snapshot.compare_snapshots(quick_snap, other,
                                               tolerance=0.6)
        assert issues == []

    def test_throughput_drop_flagged(self, quick_snap):
        other = copy.deepcopy(quick_snap)
        (case,) = other["cases"].values()
        case["timing"]["sim_tasks_per_s"] *= 0.5
        issues, _ = snapshot.compare_snapshots(quick_snap, other)
        assert any(i["metric"] == "sim_tasks_per_s" for i in issues)

    def test_timing_speedup_not_flagged(self, quick_snap):
        other = copy.deepcopy(quick_snap)
        (case,) = other["cases"].values()
        for key in snapshot.TIMING_LOWER:
            case["timing"][key] *= 0.1  # much faster is fine
        issues, _ = snapshot.compare_snapshots(quick_snap, other)
        assert issues == []

    def test_disjoint_cases_compare_nothing(self, quick_snap):
        issues, compared = snapshot.compare_snapshots(
            quick_snap, {"cases": {"other|p=1|q=1|P=1": {}}})
        assert issues == [] and compared == 0

    def test_render_issues_mentions_kind(self, quick_snap):
        other = copy.deepcopy(quick_snap)
        (case,) = other["cases"].values()
        case["structural"]["tasks"] += 1
        case["timing"]["sim_s"] *= 10
        issues, _ = snapshot.compare_snapshots(quick_snap, other)
        text = snapshot.render_issues(issues)
        assert "STRUCTURAL" in text and "TIMING" in text


class TestSnapshotFiles:
    def test_existing_snapshots_ordering(self, tmp_path):
        for n in (2, 1, 10):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored
        found = snapshot.existing_snapshots(tmp_path)
        assert [n for n, _ in found] == [1, 2, 10]

    def test_committed_baseline_exists_and_validates(self):
        found = snapshot.existing_snapshots()
        assert found, "a BENCH_<n>.json baseline must be committed"
        doc = json.loads(found[-1][1].read_text())
        assert doc["schema"] == snapshot.SCHEMA
        assert doc["version"] == snapshot.SCHEMA_VERSION
        assert snapshot.case_key("greedy", 30, 10, 16) in doc["cases"]

    def test_fresh_run_matches_committed_structurals(self, quick_snap):
        """The committed baseline reproduces on this machine."""
        found = snapshot.existing_snapshots()
        base = json.loads(found[-1][1].read_text())
        issues, compared = snapshot.compare_snapshots(base, quick_snap)
        assert compared == 1
        assert [i for i in issues if i["kind"] == "structural"] == []


def _factor_case(scaling):
    return {"timing": {"process_s": 1.0, "process_w1_s": scaling,
                       "process_scaling": scaling}}


class TestScalingGuard:
    def test_slower_at_full_width_is_flagged(self):
        snap = {"factor": {"k": _factor_case(0.8)}}
        issues = snapshot.scaling_issues(snap, tolerance=0.15)
        assert [i["kind"] for i in issues] == ["scaling"]
        assert "SCALING" in snapshot.render_issues(issues)

    def test_within_tolerance_or_faster_is_clean(self):
        for scaling in (0.9, 1.0, 1.6):
            snap = {"factor": {"k": _factor_case(scaling)}}
            assert snapshot.scaling_issues(snap, tolerance=0.15) == []

    def test_snapshots_predating_the_key_are_clean(self):
        for doc in (snapshot.existing_snapshots()[0][1],
                    REPO_ROOT / "BENCH_5.json"):
            base = json.loads(Path(doc).read_text())
            assert snapshot.scaling_issues(base) == []

    def test_old_baseline_compares_with_new_keys(self, quick_snap):
        """A baseline without process_w1_s / process_scaling / the
        blas_threads block still compares: the new keys are skipped."""
        base = json.loads((REPO_ROOT / "BENCH_5.json").read_text())
        new = copy.deepcopy(base)
        new["host"] = quick_snap["host"]
        for case in new["factor"].values():
            case["timing"].update(process_w1_s=1.0, process_scaling=1.0)
        issues, compared = snapshot.compare_snapshots(base, new)
        assert compared == len(base["cases"]) + len(base["factor"])
        assert issues == []

    def test_check_fails_on_a_scaling_regression(self, monkeypatch,
                                                 tmp_path):
        snap = {"factor": {"k": _factor_case(0.5)}}
        monkeypatch.setattr(snapshot, "take_snapshot", lambda quick: snap)
        out = tmp_path / "s.json"
        argv = ["--quick", "--out", str(out), "--baseline", str(out)]
        assert snapshot.main(argv + ["--check"]) == 1
        assert snapshot.main(argv) == 0


class TestHostMetadata:
    def test_blas_threads_recorded(self, quick_snap):
        meta = quick_snap["host"]
        threads = meta["blas_threads"]
        assert set(threads) == {"parent", "workers"}
        assert meta["start_method"] in ("fork", "spawn", "forkserver")
        assert len(threads["workers"]) == meta["cpu_count"]
        for libs in threads["workers"].values():
            assert set(libs) == set(threads["parent"])
            assert all(n == 1 for n in libs.values())

    def test_pool_failure_degrades_to_none(self, monkeypatch):
        from repro.runtime import ProcessPool

        def refuse(self):
            raise OSError("no workers here")

        monkeypatch.setattr(ProcessPool, "start", refuse)
        meta = snapshot.host_metadata()
        assert meta["start_method"] is None
        assert meta["blas_threads"]["workers"] is None
        assert isinstance(meta["blas_threads"]["parent"], dict)

    def test_fields_present_and_typed(self, quick_snap):
        meta = quick_snap["host"]
        assert meta["cpu_count"] >= 1
        assert isinstance(meta["platform"], str) and meta["platform"]
        assert isinstance(meta["machine"], str)
        assert meta["python"].count(".") == 2
        assert meta["numpy"]
        # scipy/blas are best-effort probes: present keys, maybe None
        assert "scipy" in meta and "blas" in meta

    def test_metadata_is_json_serializable(self, quick_snap):
        json.dumps(quick_snap["host"])

    def test_snapshot_embeds_host(self, quick_snap):
        assert quick_snap["host"] == snapshot.host_metadata()
