//! Golden bytes of the telemetry bodies: a fixed [`MetricsSnapshot`] and
//! a fixed [`HealthSnapshot`], built from struct literals, must render to
//! exactly the strings below — every key, separator, escape and
//! `{:.1}` / `{:.2}` / `{:.3}` precision. The schema is a wire contract
//! (`GET /v1/metrics`, `GET /v1/health`); a change here is a change to it.

use std::time::Duration;

use mfdfp_accel::OpEnergyEstimate;
use mfdfp_obs::OpCounters;
use mfdfp_serve::{
    BreakerSnapshot, BreakerState, HealthSnapshot, MetricsSnapshot, ModelSnapshot, ShardHealth,
    StageSnapshot, StagesSnapshot,
};

fn stage(count: u64, mean_us: f64, p50_us: f64, p95_us: f64, p99_us: f64) -> StageSnapshot {
    StageSnapshot { count, mean_us, p50_us, p95_us, p99_us }
}

fn model(name: &str, seed: u64) -> ModelSnapshot {
    ModelSnapshot {
        name: name.to_string(),
        submitted: 40 + seed,
        quota_rejected: seed,
        shed: 2 * seed,
        completed: 30 + seed,
        failed: 1,
        in_flight: 3,
        version: 5 + seed,
        swaps: 4 + seed,
        mean_latency_us: 123.45 + seed as f64,
        p50_latency_us: 128.0,
        p95_latency_us: 512.0,
        p99_latency_us: 1024.0,
        batch_histogram: vec![7, 0, seed],
    }
}

#[test]
fn metrics_snapshot_json_is_byte_stable() {
    let snap = MetricsSnapshot {
        uptime: Duration::from_nanos(12_345_678_901),
        submitted: 83,
        rejected: 6,
        quota_rejected: 3,
        shed: 6,
        completed: 63,
        failed: 2,
        queue_depth: 9,
        shard_depths: vec![4, 0, 5],
        throughput_rps: 5.104_999,
        mean_latency_us: 124.949_9,
        p50_latency_us: 128.0,
        p95_latency_us: 512.0,
        p99_latency_us: 1024.0,
        batch_histogram: vec![14, 0, 3],
        stages: StagesSnapshot {
            queue_wait: stage(83, 40.25, 64.0, 128.0, 256.0),
            infer: stage(17, 1999.96, 2048.0, 2048.0, 4096.0),
            respond: stage(17, 3.05, 4.0, 8.0, 8.0),
        },
        models: vec![model("alpha", 1), model("we\"ird\\name", 2)],
        breaker_rejected: 11,
        breaker_opens: 2,
        respawns: 1,
        degraded: 5,
        degrade_level: 1,
        shutdown_rejected: 4,
        http_idle_closed: 7,
        ops: OpCounters {
            shift_macs: 1_234_567_890,
            im2col_bytes: 98_765_432,
            decode_rows: 12,
            overflow_audits: 0,
        },
        energy: OpEnergyEstimate {
            mac_uj: 54.032_49,
            sram_uj: 0.227_5,
            total_uj: 54.259_99,
            fp32_baseline_uj: 557.123_4,
            saving_pct: 90.260_9,
        },
        pool_threads: 2,
        pool_tasks_run: 31,
        pool_steals: 9,
        pool_idle_parks: 44,
    };
    let golden = concat!(
        r#"{"uptime_s":12.346,"submitted":83,"rejected":6,"quota_rejected":3,"shed":6,"#,
        r#""completed":63,"failed":2,"queue_depth":9,"shard_depths":[4,0,5],"#,
        r#""throughput_rps":5.10,"latency_us":{"mean":124.9,"p50":128.0,"p95":512.0,"#,
        r#""p99":1024.0},"batch_histogram":[14,0,3],"#,
        r#""stages":{"queue_wait":{"count":83,"mean":40.2,"p50":64.0,"p95":128.0,"p99":256.0},"#,
        r#""infer":{"count":17,"mean":2000.0,"p50":2048.0,"p95":2048.0,"p99":4096.0},"#,
        r#""respond":{"count":17,"mean":3.0,"p50":4.0,"p95":8.0,"p99":8.0}},"#,
        r#""models":{"alpha":{"submitted":41,"quota_rejected":1,"shed":2,"completed":31,"#,
        r#""failed":1,"in_flight":3,"version":6,"swaps":5,"latency_us":{"mean":124.5,"#,
        r#""p50":128.0,"p95":512.0,"p99":1024.0},"batch_histogram":[7,0,1]},"#,
        r#""we\"ird\\name":{"submitted":42,"quota_rejected":2,"shed":4,"completed":32,"#,
        r#""failed":1,"in_flight":3,"version":7,"swaps":6,"latency_us":{"mean":125.5,"#,
        r#""p50":128.0,"p95":512.0,"p99":1024.0},"batch_histogram":[7,0,2]}},"#,
        r#""resilience":{"respawns":1,"breaker_rejected":11,"breaker_opens":2,"degraded":5,"#,
        r#""degrade_level":1,"shutdown_rejected":4,"http_idle_closed":7},"#,
        r#""ops":{"shift_macs":1234567890,"im2col_bytes":98765432,"decode_rows":12,"#,
        r#""overflow_audits":0},"#,
        r#""energy_estimate":{"mac_uj":54.032,"sram_uj":0.228,"total_uj":54.260,"#,
        r#""fp32_baseline_uj":557.123,"saving_pct":90.26},"#,
        r#""pool":{"threads":2,"tasks_run":31,"steals":9,"idle_parks":44}}"#,
    );
    assert_eq!(snap.to_json(), golden);
}

#[test]
fn health_snapshot_json_is_byte_stable() {
    let snap = HealthSnapshot {
        ready: true,
        shards: vec![
            ShardHealth {
                shard: 0,
                queue_depth: 3,
                heartbeat_ages: vec![Duration::from_micros(1_500), Duration::from_nanos(250_400)],
            },
            ShardHealth {
                shard: 1,
                queue_depth: 0,
                heartbeat_ages: vec![Duration::from_nanos(12_345_600)],
            },
        ],
        breakers: vec![
            (
                "alpha".to_string(),
                BreakerSnapshot {
                    state: BreakerState::Closed,
                    consecutive_failures: 0,
                    retry_in: None,
                    opens: 0,
                },
            ),
            (
                "we\"ird\\name".to_string(),
                BreakerSnapshot {
                    state: BreakerState::Open,
                    consecutive_failures: 3,
                    retry_in: Some(Duration::from_nanos(250_456_700)),
                    opens: 2,
                },
            ),
        ],
        degrade_level: 1,
        respawns: 4,
    };
    let golden = concat!(
        r#"{"ready":true,"degrade_level":1,"respawns":4,"#,
        r#""shards":[{"shard":0,"queue_depth":3,"heartbeat_ages_ms":[1.500,0.250]},"#,
        r#"{"shard":1,"queue_depth":0,"heartbeat_ages_ms":[12.346]}],"#,
        r#""breakers":{"alpha":{"state":"closed","consecutive_failures":0,"retry_in_ms":0.000,"#,
        r#""opens":0},"we\"ird\\name":{"state":"open","consecutive_failures":3,"#,
        r#""retry_in_ms":250.457,"opens":2}}}"#,
    );
    assert_eq!(snap.to_json(), golden);
}
