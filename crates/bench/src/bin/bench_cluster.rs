//! Cluster load generator, written to `BENCH_cluster.json`.
//!
//! Spins up one and then two in-process `adc-server` hosts (one worker
//! thread each) on the loopback and drives die-tone-metrics campaigns
//! through [`adc_cluster::ClusterExecutor`], measuring end-to-end
//! campaign throughput in jobs per second — protocol framing, batch
//! scheduling, remote execution, and result assembly included. Every
//! measurement window uses a fresh block of die seeds so the servers'
//! warm caches never short-circuit the compute being timed (each window
//! asserts `remote_computed == jobs`).
//!
//! Each host count is one `hosts<N>` row (jobs/s); both are timed as
//! one interleaved group ([`adc_bench::ledger::best_windows`]). The 2-host/1-host speedup is printed,
//! not a row: on a runner with fewer CPUs than hosts both servers share
//! a core and the ratio sits near or below 1.0, so it measures the
//! host, not the executor.
//!
//! Workload knobs: `ADC_CLUSTER_JOBS` (jobs per window, default 8),
//! `ADC_CLUSTER_RECORD` (record length per die, default 512).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use adc_bench::cli::env_usize;
use adc_bench::ledger::{Report, Timed};
use adc_cluster::{
    preset_index, standard_registry, ClusterCampaign, ClusterExecutor, ClusterOptions,
};
use adc_runtime::{canonical_key, CacheCodec};
use adc_server::{Preset, Server, ServerConfig, ServerHandle};

type ServerJoin = std::thread::JoinHandle<std::io::Result<()>>;

/// Spawns one loopback host with a single worker thread, so the
/// 1-vs-2-host comparison scales servers, not threads per server.
fn spawn_host() -> (ServerHandle, ServerJoin) {
    let cfg = ServerConfig {
        threads: 1,
        job_runner: Some(standard_registry()),
        ..ServerConfig::default()
    };
    Server::spawn("127.0.0.1:0", cfg).expect("spawn loopback host")
}

/// Builds one campaign window of die-tone-metrics jobs over a fresh
/// seed block, so no server-side cache entry from a previous window can
/// answer it.
fn window_campaign(first_seed: u64, jobs: usize, record_len: usize) -> ClusterCampaign {
    let mut campaign = ClusterCampaign::new("bench-cluster", "die-tone-metrics", 0xBE7C);
    for die_seed in first_seed..first_seed + jobs as u64 {
        let config = (
            preset_index(Preset::Nominal110),
            10e6f64,
            record_len as u64,
            die_seed,
        )
            .encode();
        campaign.push_job(config, canonical_key("bench-cluster", &die_seed));
    }
    campaign
}

/// The campaign window against `host_count` freshly spawned servers,
/// plus the servers to shut down once timed. `next_seed` advances on
/// every window so every window (at every host count) sees cold keys.
fn hosts(
    host_count: usize,
    jobs: usize,
    record_len: usize,
    next_seed: Rc<Cell<u64>>,
) -> (Timed<'static>, Vec<(ServerHandle, ServerJoin)>) {
    let hosts: Vec<_> = (0..host_count).map(|_| spawn_host()).collect();
    let peers: Vec<String> = hosts.iter().map(|(h, _)| h.addr().to_string()).collect();
    let executor = ClusterExecutor::new(peers, standard_registry()).options(ClusterOptions {
        window: 2,
        batch_jobs: 2,
        backoff: Duration::from_millis(5),
        io_timeout: Duration::from_secs(30),
        ..ClusterOptions::default()
    });
    let window = move || {
        let first_seed = next_seed.get();
        next_seed.set(first_seed + jobs as u64);
        let campaign = window_campaign(first_seed, jobs, record_len);
        let outcome = executor.execute(&campaign).expect("bench campaign");
        // Every key is cold, so all jobs were computed this window; a
        // result may still be *applied* through the prefetch sweep when
        // the reply races the batch ack. Only local fallback would mean
        // the cluster path was not measured.
        let s = &outcome.stats;
        assert_eq!(
            s.remote_computed + s.remote_cached + s.prefetch_hits,
            jobs as u64,
            "window must be compute-bound, got {s:?}"
        );
        assert_eq!(s.local_computed, 0, "local fallback in bench window: {s:?}");
    };
    let name = format!("hosts{host_count}");
    (Timed::rate(&name, "jobs/s", jobs, window), hosts)
}

fn main() {
    adc_bench::banner(
        "Cluster executor -- distributed campaign throughput",
        "loopback 1-vs-2-host scaling of the framed job protocol (BENCH_cluster.json)",
    );

    let jobs = env_usize("ADC_CLUSTER_JOBS", 8);
    let record_len = env_usize("ADC_CLUSTER_RECORD", 512);
    println!("{jobs} jobs per window, record {record_len}");
    let next_seed = Rc::new(Cell::new(1u64));
    let (one, one_hosts) = hosts(1, jobs, record_len, Rc::clone(&next_seed));
    let (two, two_hosts) = hosts(2, jobs, record_len, next_seed);
    let mut report = Report::capture();
    report.time(vec![one, two]);
    for (handle, join) in one_hosts.into_iter().chain(two_hosts) {
        handle.shutdown();
        join.join().expect("server thread").expect("serve");
    }
    let value = |name: &str| report.row(name).map_or(f64::NAN, |r| r.value);
    println!(
        "2-host speedup: {:.2}x on {} CPUs (printed, not gated: it measures the host)",
        value("hosts2") / value("hosts1"),
        report.provenance.host_cpus
    );
    report.write("BENCH_cluster.json");
}
