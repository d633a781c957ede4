"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "environments" in out
        assert "COL-LZMA2" in out
        assert "25 schemes" in out


class TestGenerate:
    def test_generate_csv(self, tmp_path, capsys):
        out_path = str(tmp_path / "taxis.csv")
        assert main(["generate", "--records", "2000", "--taxis", "8",
                     "--out", out_path]) == 0
        text = capsys.readouterr().out
        assert "2,000 records" in text
        with open(out_path) as f:
            lines = f.read().splitlines()
        assert len(lines) == 2000

    def test_generate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["generate", "--records", "500", "--taxis", "4", "--out", a])
        main(["generate", "--records", "500", "--taxis", "4", "--out", b])
        assert open(a).read() == open(b).read()


class TestRatios:
    def test_synthesized(self, capsys):
        assert main(["ratios", "--records", "2000"]) == 0
        out = capsys.readouterr().out
        assert "ROW-PLAIN" in out and "COL-LZMA2" in out
        # ROW-PLAIN ratio is the 1.000 baseline.
        row_plain = next(l for l in out.splitlines() if "ROW-PLAIN" in l)
        assert "1.000" in row_plain

    def test_csv_input(self, tmp_path, capsys):
        path = str(tmp_path / "in.csv")
        main(["generate", "--records", "1500", "--taxis", "8", "--out", path])
        capsys.readouterr()
        assert main(["ratios", "--input", path]) == 0
        assert "1,500 records" in capsys.readouterr().out


class TestCalibrate:
    def test_one_encoding(self, capsys):
        assert main(["calibrate", "--environment", "local-hadoop",
                     "--encodings", "ROW-PLAIN"]) == 0
        out = capsys.readouterr().out
        assert "local-hadoop" in out
        assert "ROW-PLAIN" in out

    def test_unknown_environment(self):
        with pytest.raises(KeyError):
            main(["calibrate", "--environment", "azure"])


class TestAdvise:
    def test_advise_greedy(self, capsys):
        assert main(["advise", "--records", "4000",
                     "--records-target", "1e6",
                     "--method", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "selected" in out
        assert "speedup vs single" in out
        assert "q8 ->" in out


class TestVerifyRepair:
    @pytest.fixture()
    def layout(self, tmp_path):
        from repro.data import synthetic_shanghai_taxis
        from repro.encoding import encoding_scheme_by_name
        from repro.partition import CompositeScheme, KdTreePartitioner
        from repro.storage import DirectoryStore, build_replica, save_manifest

        ds = synthetic_shanghai_taxis(2000, seed=211, num_taxis=8)
        paths = {}
        for name, (leaves, enc) in {
            "a": (8, "COL-GZIP"), "b": (4, "ROW-PLAIN"),
        }.items():
            store_dir = str(tmp_path / name)
            replica = build_replica(
                ds, CompositeScheme(KdTreePartitioner(leaves), 2),
                encoding_scheme_by_name(enc), DirectoryStore(store_dir),
                name=name)
            manifest = str(tmp_path / f"{name}.json")
            save_manifest(replica, manifest)
            paths[name] = (store_dir, manifest, replica)
        return paths

    def test_verify_clean(self, layout, capsys):
        store, manifest, _ = layout["a"]
        assert main(["verify", "--manifest", manifest, "--store", store]) == 0
        assert "verified OK" in capsys.readouterr().out

    def test_verify_detects_damage(self, layout, capsys):
        store, manifest, replica = layout["a"]
        key = next(k for k in replica.unit_keys if k)
        blob = bytearray(replica.store.get(key))
        blob[3] ^= 0xFF
        replica.store.delete(key)
        replica.store.put(key, bytes(blob))
        assert main(["verify", "--manifest", manifest, "--store", store]) == 1
        assert "damaged" in capsys.readouterr().out

    def test_repair_roundtrip(self, layout, capsys):
        store_a, manifest_a, replica = layout["a"]
        store_b, manifest_b, _ = layout["b"]
        key = next(k for k in replica.unit_keys if k)
        replica.store.delete(key)
        assert main(["repair", "--manifest", manifest_a, "--store", store_a,
                     "--source-manifest", manifest_b,
                     "--source-store", store_b]) == 0
        out = capsys.readouterr().out
        assert "repaired 1 units" in out
        assert main(["verify", "--manifest", manifest_a,
                     "--store", store_a]) == 0

    def test_repair_nothing_to_do(self, layout, capsys):
        store_a, manifest_a, _ = layout["a"]
        store_b, manifest_b, _ = layout["b"]
        assert main(["repair", "--manifest", manifest_a, "--store", store_a,
                     "--source-manifest", manifest_b,
                     "--source-store", store_b]) == 0
        assert "nothing to repair" in capsys.readouterr().out


class TestVerifyStore:
    @pytest.fixture()
    def layout(self, tmp_path):
        from repro.data import synthetic_shanghai_taxis
        from repro.encoding import encoding_scheme_by_name
        from repro.partition import CompositeScheme, KdTreePartitioner
        from repro.storage import DirectoryStore, build_replica, save_manifest

        ds = synthetic_shanghai_taxis(1500, seed=33, num_taxis=6)
        store_dir = str(tmp_path / "units")
        store = DirectoryStore(store_dir)
        manifests, replicas = [], []
        for name, (leaves, enc) in {
            "kd8": (8, "COL-GZIP"), "kd4": (4, "ROW-PLAIN"),
        }.items():
            replica = build_replica(
                ds, CompositeScheme(KdTreePartitioner(leaves), 2),
                encoding_scheme_by_name(enc), store, name=name)
            path = str(tmp_path / f"{name}.json")
            save_manifest(replica, path)
            manifests.append(path)
            replicas.append(replica)
        return store_dir, manifests, replicas

    def test_clean_store_passes(self, layout, capsys):
        store_dir, manifests, _ = layout
        assert main(["verify-store", "--store", store_dir,
                     "--manifest", manifests[0],
                     "--manifest", manifests[1],
                     "--queries", "4"]) == 0
        out = capsys.readouterr().out
        assert "store verification: OK" in out

    def test_corrupted_partition_fails(self, layout, capsys):
        store_dir, manifests, replicas = layout
        replica = replicas[0]
        key = next(k for k in replica.unit_keys if k)
        blob = bytearray(replica.store.get(key))
        blob[len(blob) // 2] ^= 0xFF
        replica.store.delete(key)
        replica.store.put(key, bytes(blob))
        assert main(["verify-store", "--store", store_dir,
                     "--manifest", manifests[0],
                     "--manifest", manifests[1],
                     "--queries", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "kd8" in out

    def test_json_report(self, layout, capsys):
        import json

        store_dir, manifests, _ = layout
        assert main(["verify-store", "--store", store_dir,
                     "--manifest", manifests[0],
                     "--manifest", manifests[1],
                     "--queries", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert {r["name"] for r in payload["replicas"]} == {"kd8", "kd4"}
        assert payload["metrics"]  # counters came along for the ride


class TestAnalyze:
    def test_analyze_synthesized(self, capsys):
        assert main(["analyze", "--records", "3000", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet:" in out
        assert "km driven" in out
        assert "origin->destination" in out

    def test_analyze_csv_input(self, tmp_path, capsys):
        path = str(tmp_path / "f.csv")
        main(["generate", "--records", "1200", "--taxis", "6", "--out", path])
        capsys.readouterr()
        assert main(["analyze", "--input", path, "--grid", "3"]) == 0
        assert "vehicles" in capsys.readouterr().out


class TestQuery:
    def test_query_synthesized(self, capsys):
        assert main(["query", "--records", "3000", "--frac", "0.2",
                     "--encoding", "ROW-PLAIN"]) == 0
        out = capsys.readouterr().out
        assert "records returned" in out
        assert "partitions" in out


WORKLOAD_ARGS = ["--records", "3000", "--queries", "15",
                 "--replicas", "2", "--repeat", "1"]


class TestRunWorkloadTrace:
    def test_trace_prints_telemetry_and_dumps_spans(self, tmp_path, capsys):
        out_path = str(tmp_path / "spans.jsonl")
        assert main(["run-workload", *WORKLOAD_ARGS,
                     "--trace", "--trace-out", out_path]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "trace:" in out
        assert "drift[" in out
        import json
        lines = open(out_path).read().splitlines()
        assert len(lines) >= 15  # at least one span per query
        names = {json.loads(line)["name"] for line in lines}
        assert {"workload", "query", "scan"} <= names

    def test_without_trace_no_telemetry(self, capsys):
        assert main(["run-workload", *WORKLOAD_ARGS]) == 0
        assert "telemetry:" not in capsys.readouterr().out


class TestStats:
    def test_text_report(self, capsys):
        assert main(["stats", *WORKLOAD_ARGS]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "degradation:" in out
        assert "drift[" in out

    def test_json_report_consistent_with_workload(self, capsys):
        import json
        assert main(["stats", *WORKLOAD_ARGS, "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert set(snap) == {"metrics", "trace", "drift"}
        counters = {(c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                    for c in snap["metrics"]["counters"]}
        assert counters[("repro_workloads_total", ())] == 1
        assert counters[("repro_queries_total",
                         (("path", "workload"),))] == 15
        # One drift sample per executed query, spread over the replicas.
        assert sum(d["samples"] for d in snap["drift"]) == 15

    def test_prometheus_exposition(self, capsys):
        assert main(["stats", *WORKLOAD_ARGS, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_workloads_total counter" in out
        assert "repro_workloads_total 1" in out
        assert "# TYPE repro_workload_seconds summary" in out
        assert 'repro_workload_seconds{quantile="0.5"}' in out

    def test_json_and_prom_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats", *WORKLOAD_ARGS, "--json", "--prom"])

    def test_repeat_must_be_positive(self, capsys):
        assert main(["stats", *WORKLOAD_ARGS[:-2], "--repeat", "0"]) == 2

    def test_healthy_run_predicts_in_its_own_seconds(self, capsys):
        # Eq. 6 rows timed on the store's own units predict what its
        # reads measure; rows priced in simulated-cluster seconds read
        # about 1e-6 here.  The band is wide so that load on the box
        # cannot flip it.
        import json
        assert main(["stats", "--records", "3000", "--queries", "40",
                     "--json"]) == 0
        drift = json.loads(capsys.readouterr().out)["drift"]
        assert drift
        for entry in drift:
            assert 0.1 <= entry["scale_factor"] <= 10, entry


class TestReport:
    def test_text_report(self, capsys):
        assert main(["report", *WORKLOAD_ARGS]) == 0
        out = capsys.readouterr().out
        assert "operational report" in out
        assert "drift[" in out
        assert "recalibration: 0 applied, 0 rejected" in out
        assert "no timeseries store attached" in out

    def test_json_report_is_schema_valid(self, capsys):
        import json

        from repro.obs import validate_report

        assert main(["report", *WORKLOAD_ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["queries"]["by_path"] == {"workload": 15}
        assert report["history"]["attached"] is False

    def test_timeseries_persists_across_runs(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "history.jsonl")
        assert main(["report", *WORKLOAD_ARGS, "--timeseries", path,
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        # Forced before/after checkpoints give trends its two points.
        assert first["trends"]["snapshots"] >= 2
        assert first["history"]["attached"] is True
        delta = first["trends"]["counters"]["repro_workloads_total"]["delta"]
        assert delta == 1

        # A second process over the same file: numbering continues.
        assert main(["report", *WORKLOAD_ARGS, "--timeseries", path,
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["history"]["last_seq"] > first["history"]["last_seq"]

    def test_stale_model_heals_itself(self, capsys):
        import json

        from repro.obs import validate_report

        assert main(["report", *WORKLOAD_ARGS, "--stale-factor", "4",
                     "--recalibrate", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["recalibration"]["applied"] >= 1
        applied = [e for e in report["recalibration"]["audit"]
                   if e["action"] == "applied"]
        assert applied and applied[0]["new_scan_rate"] > 0
        assert report["drift"]["flagged"] == []

    def test_dry_run_audits_without_applying(self, capsys):
        import json

        assert main(["report", *WORKLOAD_ARGS, "--stale-factor", "4",
                     "--recalibrate", "--dry-run", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recalibration"]["applied"] == 0
        actions = {e["action"] for e in report["recalibration"]["audit"]}
        assert actions <= {"dry-run", "rejected"} and actions

    def test_error_exits(self, capsys):
        assert main(["report", *WORKLOAD_ARGS[:-2], "--repeat", "0"]) == 2
        assert main(["report", *WORKLOAD_ARGS, "--dry-run"]) == 2
        # One replica: no routing model to stale or recalibrate.
        assert main(["report", "--records", "3000", "--queries", "5",
                     "--replicas", "1", "--recalibrate"]) == 2
        assert main(["report", *WORKLOAD_ARGS,
                     "--stale-factor", "-2"]) == 2


class TestDrillCommands:
    """The drill subcommands end to end (their bodies live in
    ``repro.drills``; these pin the argument checks, exit codes and the
    lines CI greps)."""

    def test_reselect_applies_and_stays_bit_equal(self, capsys):
        assert main(["reselect", "--records", "2500", "--seed", "7",
                     "--min-queries", "16", "--expect-applied"]) == 0
        out = capsys.readouterr().out
        assert "[epoch 0] drift" in out
        assert "probe reads bit-equal across transition: yes" in out

    def test_reselect_rejects_a_bad_guard(self, capsys):
        assert main(["reselect", "--drift-threshold", "0"]) == 2
        assert "drift_threshold" in capsys.readouterr().err

    def test_serve_verifies_against_the_referee(self, tmp_path, capsys):
        assert main(["serve", "--records", "2000", "--queries", "20",
                     "--worker-mode", "thread", "--verify",
                     "--store-root", str(tmp_path)]) == 0
        assert "[verify] 20 bit-equal, 0 MISMATCHED" in capsys.readouterr().out

    def test_slo_exits_by_alert_state(self, tmp_path, capsys):
        args = ["slo", "--records", "2000", "--queries", "40",
                "--latency-p99-ms"]
        assert main(args + ["1e-6", "--expect-alert",
                            "--store-root", str(tmp_path / "firing")]) == 0
        assert main(args + ["60000",  # healthy: nothing fires
                            "--store-root", str(tmp_path / "healthy")]) == 0
        assert main(["slo"]) == 2  # no objective declared

    def test_drill_survives_losing_the_busiest_replica(self, capsys):
        assert main(["drill", "--records", "3000", "--queries", "40"]) == 0
        assert "results identical: yes" in capsys.readouterr().out

    def test_ingest_round_trips_and_resumes(self, tmp_path, capsys):
        args = ["ingest", "--records", "3000", "--batch-size", "500",
                "--auto-compact-at", "1000", "--wal-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0  # same WAL dir: the resume path
        assert "resumed from" in capsys.readouterr().out
