//! `odflow_serve` — run the detection daemon from the command line.
//!
//! Hosts a single Abilene tenant (tenant index 0) and serves until a
//! drain control arrives on the wire. All failures exit with a message;
//! nothing in this binary panics.
//!
//! ```text
//! odflow_serve --udp 127.0.0.1:2055 --metrics 127.0.0.1:9100 --bins 288 --train 144
//! ```
//!
//! Flags: `--udp ADDR`, `--tcp ADDR`, `--metrics ADDR`, `--bins N`
//! (window length, default 288), `--train N` (online-detector training
//! prefix, default `bins/2`), `--name NAME` (tenant label),
//! `--checkpoint-dir DIR` (crash-safety checkpoints on every bin close),
//! `--recover` (resume from the newest valid checkpoint generation in
//! `--checkpoint-dir` instead of starting fresh). When neither `--udp`
//! nor `--tcp` is given, the `ODFLOW_SERVE_BIND` environment variable
//! supplies a default UDP bind address.

#![forbid(unsafe_code)]

use odflow_net::{AddressPlan, IngressResolver, Topology};
use odflow_serve::{Daemon, ServeConfig, TenantConfig, TenantEnd, TenantSpec};

fn main() {
    if let Err(e) = real_main() {
        eprintln!("odflow_serve: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), Box<dyn std::error::Error>> {
    let mut udp_bind: Option<String> = None;
    let mut tcp_bind: Option<String> = None;
    let mut metrics_bind: Option<String> = None;
    let mut bins: usize = 288;
    let mut train: Option<usize> = None;
    let mut name = "abilene".to_owned();
    let mut checkpoint_dir: Option<std::path::PathBuf> = None;
    let mut recover = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--udp" => udp_bind = Some(value("--udp")?),
            "--tcp" => tcp_bind = Some(value("--tcp")?),
            "--metrics" => metrics_bind = Some(value("--metrics")?),
            "--bins" => bins = value("--bins")?.parse()?,
            "--train" => train = Some(value("--train")?.parse()?),
            "--name" => name = value("--name")?,
            "--checkpoint-dir" => checkpoint_dir = Some(value("--checkpoint-dir")?.into()),
            "--recover" => recover = true,
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    if udp_bind.is_none() && tcp_bind.is_none() {
        // lint:allow(env-read-containment) -- documented operator knob: ODFLOW_SERVE_BIND supplies the default UDP bind when no --udp/--tcp flag is passed
        if let Ok(addr) = std::env::var("ODFLOW_SERVE_BIND") {
            udp_bind = Some(addr);
        }
    }
    if udp_bind.is_none() && tcp_bind.is_none() {
        return Err("no listener configured: pass --udp or --tcp, or set ODFLOW_SERVE_BIND".into());
    }

    let topology = Topology::abilene();
    let plan = AddressPlan::synthetic(&topology);
    let routes = plan.build_route_table(1.0)?;
    let ingress = IngressResolver::synthetic(&topology);
    let mut tenant = TenantConfig::abilene(&name, 0, bins);
    if let Some(t) = train {
        tenant.train_bins = t;
    }

    let config = ServeConfig {
        udp_bind,
        tcp_bind,
        metrics_bind,
        tenants: vec![TenantSpec { config: tenant, topology, ingress, routes }],
        checkpoint_dir: checkpoint_dir.clone(),
        ..ServeConfig::default()
    };
    let daemon = if recover {
        let dir = checkpoint_dir
            .ok_or("--recover requires --checkpoint-dir to locate the generations")?;
        let (daemon, recoveries) = Daemon::recover(config, &dir)?;
        for r in &recoveries {
            match r.resumed_seq {
                Some(seq) => println!(
                    "tenant {}: resumed checkpoint generation {seq} ({} frames covered, {} log records rejected)",
                    r.tenant, r.frames_ingested, r.slots_rejected
                ),
                None => println!("tenant {}: no usable checkpoint, starting fresh", r.tenant),
            }
        }
        daemon
    } else {
        Daemon::bind(config)?
    };
    if let Some(addr) = daemon.udp_addr() {
        println!("listening udp {addr}");
    }
    if let Some(addr) = daemon.tcp_addr() {
        println!("listening tcp {addr}");
    }
    if let Some(addr) = daemon.metrics_addr() {
        println!("metrics http://{addr}/metrics");
    }

    let report = daemon.run();
    for end in &report.tenants {
        match end {
            TenantEnd::Flushed(flush) => {
                let bins_total = flush.outcome.quality.bin_records.len();
                let detections: usize = flush
                    .diagnosis
                    .as_ref()
                    .map_or(0, |d| d.analyses.iter().map(|(_, a)| a.detections.len()).sum());
                println!(
                    "tenant {}: flushed {bins_total} bins, {} live verdicts, {detections} batch detections",
                    flush.name,
                    flush.live_verdicts.len()
                );
                if let Some(reason) = &flush.diagnosis_error {
                    println!("tenant {}: batch diagnosis unavailable: {reason}", flush.name);
                }
            }
            TenantEnd::Failed { name, reason } => {
                println!("tenant {name}: flush failed: {reason}");
            }
            TenantEnd::Killed { name, point } => {
                println!("tenant {name}: killed at {point:?} (recover with --recover)");
            }
        }
    }
    Ok(())
}
