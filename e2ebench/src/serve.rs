//! `serve_paced` and `serve_durable`: a one-tenant daemon over TCP
//! loopback, fed a pre-rendered frame stream by one sender thread on one
//! connection.

use crate::batch::traced_diagnose;
use crate::report::Outcome;
use crate::stats::{due_offsets, highest_quantile, median, quantile, samples_beyond, sorted};
use crate::trace::{ms, Trace};
use crate::{layers_of, out_dir, Deadline, Layers, Mode, Sample};
use odflow_flow::netflow::{decode_datagram, decode_datagram_lossy};
use odflow_flow::{PipelineConfig, QuarantineStats, ShardedIngest, TrafficMatrixSet, TrafficType};
use odflow_gen::Scenario;
use odflow_net::IngressResolver;
use odflow_serve::metrics::monotonic_now;
use odflow_serve::wire::{self, MESSAGE_PREFIX_LEN};
use odflow_serve::{
    encode_state, CheckpointStore, Daemon, DaemonHandle, DaemonReport, MessageReader, ServeConfig,
    TenantConfig, TenantCounters, TenantEnd, TenantFlush, TenantPipeline, TenantSpec,
    CONTROL_TENANT,
};
use odflow_subspace::{diagnose, Diagnosis, StatisticKind, SubspaceConfig};
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve_paced` replays one day of 5-minute bins.
pub const PACED_BINS: usize = 288;
/// `serve_paced` offers records at this fixed rate, open loop.
pub const PACED_RECORDS_PER_S: f64 = 300_000.0;
/// `serve_durable` replays half a day.
pub const DURABLE_BINS: usize = 144;
/// The tenant's name in every daemon and checkpoint.
const TENANT: &str = "abilene";
/// How long the sender waits for the daemon to close every bin.
const CLOSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A pre-rendered day: TCP messages ready to send, plus what the sender
/// needs to schedule them and to know which frame closes which bin.
struct Stream {
    /// One enveloped message per NetFlow v5 frame, in send order.
    msgs: Vec<Vec<u8>>,
    /// Records per frame.
    records: Vec<u32>,
    /// `closes[t]`: index of the frame whose export timestamp first
    /// passes the end of bin `t` and so closes it (every bin but the
    /// last, which closes at flush).
    closes: Vec<usize>,
    /// Frame bytes without envelopes.
    frame_bytes: usize,
    /// Time spent rendering and enveloping, ms.
    render_ms: f64,
}

impl Stream {
    fn render(seed: u64, num_bins: usize) -> Result<Stream, String> {
        let t0 = monotonic_now();
        let scenario = Scenario::paper_window(seed, num_bins).map_err(|e| format!("{e}"))?;
        let generator = scenario.generator();
        let (start, bin_secs) = (scenario.config.start_secs, scenario.config.bin_secs);
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let mut stream = Stream {
            msgs: Vec::new(),
            records: Vec::new(),
            closes: Vec::new(),
            frame_bytes: 0,
            render_ms: 0.0,
        };
        let mut watermark = 0u64;
        for bin in 0..num_bins {
            for frame in generator.frames_for_bin(bin, &mut seqs) {
                let (hdr, _) = decode_datagram(&frame).map_err(|e| format!("frame: {e}"))?;
                watermark = watermark.max(u64::from(hdr.unix_secs));
                let i = stream.msgs.len();
                while stream.closes.len() + 1 < num_bins
                    && watermark >= start + (stream.closes.len() as u64 + 1) * bin_secs
                {
                    stream.closes.push(i);
                }
                stream.records.push(u32::from(hdr.count));
                stream.frame_bytes += frame.len();
                stream.msgs.push(wire::encode_message(0, &frame));
            }
        }
        stream.render_ms = ms(t0.elapsed());
        Ok(stream)
    }

    fn frame(&self, i: usize) -> &[u8] {
        &self.msgs[i][MESSAGE_PREFIX_LEN..]
    }

    fn total_records(&self) -> u64 {
        self.records.iter().map(|&r| u64::from(r)).sum()
    }

    /// For each frame, the last bin it closes, if any.
    fn closing(&self) -> Vec<Option<usize>> {
        let mut at = vec![None; self.msgs.len()];
        for (bin, &i) in self.closes.iter().enumerate() {
            at[i] = Some(bin);
        }
        at
    }
}

/// The tenant's provisioning: the scenario's routing state and the
/// default Abilene tenant configuration, its queue resized if asked.
fn tenant_spec(
    seed: u64,
    num_bins: usize,
    queue_frames: Option<usize>,
) -> Result<TenantSpec, String> {
    let scenario = Scenario::paper_window(seed, num_bins).map_err(|e| format!("{e}"))?;
    let routes = scenario.plan.build_route_table(1.0).map_err(|e| format!("routes: {e}"))?;
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let mut config = TenantConfig::abilene(TENANT, scenario.config.start_secs, num_bins);
    if let Some(q) = queue_frames {
        config.queue_frames = q;
    }
    Ok(TenantSpec { config, topology: scenario.topology, ingress, routes })
}

fn serve_config(spec: TenantSpec, checkpoint_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        tcp_bind: Some("127.0.0.1:0".to_owned()),
        tenants: vec![spec],
        checkpoint_dir,
        ..ServeConfig::default()
    }
}

/// What the sender saw.
#[derive(Debug, Default)]
struct SendLog {
    /// How late each paced frame went out, ms.
    late_ms: Vec<f64>,
    /// Per watermark-closed bin: due time of its closing frame to the
    /// moment the sender saw the bin closed, ms.
    close_ms: Vec<f64>,
}

/// Sleeps until `due`, calling `poll` on every wake-up.
fn wait_until(due: Instant, poll: &mut impl FnMut(Instant)) -> Instant {
    loop {
        let now = monotonic_now();
        poll(now);
        if now >= due {
            return now;
        }
        std::thread::sleep((due - now).min(Duration::from_millis(1)));
    }
}

/// Watches the tenant's `bins_closed` counter from the sender thread and
/// times each watermark close against the due time of its closing frame.
struct CloseWatch<'a> {
    closes: &'a [usize],
    due: &'a [Duration],
    t0: Instant,
    counters: &'a TenantCounters,
    close_ms: Vec<f64>,
}

impl CloseWatch<'_> {
    fn poll(&mut self, now: Instant) {
        let closed = TenantCounters::get(&self.counters.bins_closed);
        while self.close_ms.len() < self.closes.len() && closed > self.close_ms.len() as u64 {
            let due_at = self.t0 + self.due[self.closes[self.close_ms.len()]];
            self.close_ms.push(ms(now.saturating_duration_since(due_at)));
        }
    }

    fn done(&self) -> bool {
        self.close_ms.len() == self.closes.len()
    }
}

/// Sends `msgs[from..]` and a drain over one connection. With `due`,
/// frame `i` goes out at `t0 + due[i]` and bin closes are timed against
/// the due time of their closing frame; without it, frames go out as
/// fast as the socket accepts them.
fn send(
    addr: SocketAddr,
    stream: &Stream,
    from: usize,
    due: Option<&[Duration]>,
    counters: &TenantCounters,
    t0: Instant,
) -> Result<SendLog, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut watch = CloseWatch {
        closes: if due.is_some() { &stream.closes } else { &[] },
        due: due.unwrap_or(&[]),
        t0,
        counters,
        close_ms: Vec::new(),
    };
    let mut late_ms = Vec::new();
    for (i, msg) in stream.msgs.iter().enumerate().skip(from) {
        if let Some(d) = due {
            let due_at = t0 + d[i];
            let now = wait_until(due_at, &mut |now| watch.poll(now));
            late_ms.push(ms(now - due_at));
        }
        sock.write_all(msg).map_err(|e| format!("send: {e}"))?;
    }
    sock.write_all(&wire::encode_message(CONTROL_TENANT, wire::CONTROL_DRAIN))
        .map_err(|e| format!("send drain: {e}"))?;
    let give_up = monotonic_now() + CLOSE_TIMEOUT;
    while !watch.done() {
        let now = wait_until(monotonic_now() + Duration::from_micros(100), &mut |now| {
            watch.poll(now);
        });
        if now > give_up {
            return Err("daemon never closed every bin".to_owned());
        }
    }
    Ok(SendLog { late_ms, close_ms: watch.close_ms })
}

/// One daemon run: the daemon on a pool worker, the sender on this
/// thread. Returns the report, the sender's log, and the wall clock from
/// the first frame's due time to the report.
fn drive(
    daemon: Daemon,
    stream: &Stream,
    from: usize,
    due: Option<&[Duration]>,
) -> Result<(DaemonReport, SendLog, f64, DaemonHandle), String> {
    let addr = daemon.tcp_addr().ok_or("daemon has no TCP address")?;
    let handle = daemon.handle();
    let counters = handle.tenant_counters(0).ok_or("daemon has no tenant")?;
    let mut ended: Option<(DaemonReport, Instant)> = None;
    let mut sent: Result<SendLog, String> = Err("sender never ran".to_owned());
    let t0 = monotonic_now();
    let pool = scoped_pool::Pool::new(1);
    pool.scoped(|scope| {
        let ended = &mut ended;
        scope.execute(move || {
            let report = daemon.run();
            *ended = Some((report, monotonic_now()));
        });
        sent = send(addr, stream, from, due, &counters, t0);
        if sent.is_err() {
            handle.drain();
        }
    });
    pool.shutdown();
    let log = sent?;
    let (report, end) = ended.ok_or("daemon never returned")?;
    Ok((report, log, (end - t0).as_secs_f64(), handle))
}

fn flushed(report: &DaemonReport) -> Result<&TenantFlush, String> {
    match report.tenants.first() {
        Some(TenantEnd::Flushed(flush)) => Ok(flush),
        Some(other) => Err(format!("tenant did not flush: {other:?}")),
        None => Err("daemon reported no tenant".to_owned()),
    }
}

/// Frame ledger of one daemon run.
#[derive(Debug)]
struct Ledger {
    sent: u64,
    offered: u64,
    enqueued: u64,
    shed: u64,
    quarantined: u64,
    depth_peak: u64,
    wait_p99_us: f64,
    records: u64,
}

impl Ledger {
    fn read(handle: &DaemonHandle, sent: u64) -> Ledger {
        let c = handle.tenant_counters(0).unwrap_or_default();
        let get = |a: &std::sync::atomic::AtomicU64| TenantCounters::get(a);
        Ledger {
            sent,
            offered: get(&c.frames_offered),
            enqueued: get(&c.frames_enqueued),
            shed: get(&c.frames_dropped_backpressure),
            quarantined: get(&c.frames_quarantined),
            depth_peak: get(&c.queue_depth_peak),
            wait_p99_us: handle.enqueue_p99_nanos() as f64 / 1e3,
            records: get(&c.records_decoded),
        }
    }

    /// Every frame sent was offered, and every offered frame was either
    /// enqueued or shed.
    fn balances(&self) -> bool {
        self.offered == self.sent && self.offered == self.enqueued + self.shed
    }

    /// Frames that never reached the detector: lost before admission,
    /// shed by the queue, or quarantined by the decoder.
    fn failed(&self) -> u64 {
        self.sent.saturating_sub(self.offered) + self.shed + self.quarantined
    }

    fn print(&self) {
        println!(
            "  frames sent {} offered {} enqueued {} shed {} quarantined {} failure_share {:.5} \
             queue depth_peak {} wait_p99_us {:.0}",
            self.sent,
            self.offered,
            self.enqueued,
            self.shed,
            self.quarantined,
            self.failed() as f64 / self.sent.max(1) as f64,
            self.depth_peak,
            self.wait_p99_us
        );
    }

    fn add_to(&self, layers: &mut Layers) {
        layers.insert("serve.queue.shed_frames".to_owned(), self.shed as f64);
        layers.insert("serve.queue.depth_peak".to_owned(), self.depth_peak as f64);
        layers.insert("serve.queue.wait_p99_us".to_owned(), self.wait_p99_us);
        layers.insert(
            "serve.failure_share".to_owned(),
            self.failed() as f64 / self.sent.max(1) as f64,
        );
    }
}

/// Byte image of matrices and diagnosis: floats as exact bits, discrete
/// fields in a fixed order.
fn canonical(m: &TrafficMatrixSet, d: Option<&Diagnosis>, bin_records: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in [TrafficType::Bytes, TrafficType::Packets, TrafficType::Flows] {
        for v in m.get(t).data.as_slice() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for r in bin_records {
        out.extend_from_slice(&r.to_le_bytes());
    }
    let Some(d) = d else { return out };
    for (t, a) in &d.analyses {
        out.extend_from_slice(format!("{t:?};").as_bytes());
        for series in [&a.state_norm_sq, &a.spe, &a.t2] {
            for v in series {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for det in &a.detections {
            out.extend_from_slice(&det.bin.to_le_bytes());
            out.push(u8::from(det.kind == StatisticKind::T2));
            out.extend_from_slice(&det.value.to_bits().to_le_bytes());
            out.extend_from_slice(&det.threshold.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(format!("{:?}{:?}", d.triples, d.events).as_bytes());
    out
}

fn flush_image(f: &TenantFlush) -> Vec<u8> {
    canonical(&f.outcome.matrices, f.diagnosis.as_ref(), &f.outcome.quality.bin_records)
}

/// The in-process replay behind the traced run: the same frames through
/// the tenant's public layer calls, in pipeline order.
fn traced_replay(
    seed: u64,
    stream: &Stream,
    num_bins: usize,
    due: Option<&[Duration]>,
    ckpt: Option<&Path>,
    trace: &mut Trace,
) -> Result<Layers, String> {
    let spec = tenant_spec(seed, num_bins, None)?;
    let train_bin = spec.config.train_bins.checked_sub(1);
    let mut pipeline = TenantPipeline::new(
        spec.config.clone(),
        &spec.topology,
        spec.ingress.clone(),
        spec.routes.clone(),
    )
    .map_err(|e| format!("pipeline: {e}"))?;
    let store = match ckpt {
        Some(dir) => {
            let s = CheckpointStore::new(dir, TENANT);
            s.reset().map_err(|e| format!("checkpoint reset: {e}"))?;
            Some(s)
        }
        None => None,
    };
    let closing = stream.closing();
    let mut reader = MessageReader::new();
    let mut spare_stats = QuarantineStats::default();
    let mut bytes_written = 0usize;
    let iter = trace.next_iter();
    let t0 = monotonic_now();
    for (i, msg) in stream.msgs.iter().enumerate() {
        if let Some(d) = due {
            trace.root("bench.pace_wait", true, || wait_until(t0 + d[i], &mut |_| {}));
        }
        let message = trace.root("serve.wire.reassemble", true, || {
            reader.extend(msg);
            reader.next_message()
        });
        let Ok(Some((_, frame))) = message else {
            return Err(format!("frame {i} did not reassemble"));
        };
        let layer = match closing[i] {
            None => "serve.tenant.ingest",
            Some(bin) if Some(bin) == train_bin => "serve.tenant.train_fit",
            Some(_) => "serve.tenant.close",
        };
        trace.child("flow.decode", layer, || {
            black_box(decode_datagram_lossy(&frame, &mut spare_stats));
        });
        trace.root(layer, true, || pipeline.ingest_frame(&frame));
        if let (Some(store), Some(_)) = (&store, closing[i]) {
            let state = trace.root("checkpoint.export", true, || pipeline.export_state());
            trace
                .root("checkpoint.write", true, || store.write(&state))
                .map_err(|e| format!("checkpoint write: {e}"))?;
            let image =
                trace.child("checkpoint.encode", "checkpoint.write", || encode_state(&state));
            bytes_written += image.len();
        }
    }
    let flush = trace
        .root("serve.tenant.flush", true, || pipeline.flush())
        .map_err(|e| format!("flush: {e}"))?;
    let (_, calls) = traced_diagnose(
        trace,
        "serve.tenant.flush",
        &flush.outcome.matrices,
        spec.config.subspace,
    )?;
    if let Some(store) = &store {
        let loaded = trace.root("checkpoint.load", false, || store.load_newest());
        let state = loaded.state.ok_or("no checkpoint to load")?;
        trace
            .root("serve.tenant.restore", false, || {
                TenantPipeline::restore(
                    spec.config.clone(),
                    &spec.topology,
                    spec.ingress.clone(),
                    spec.routes.clone(),
                    &state,
                    Arc::new(TenantCounters::default()),
                )
            })
            .map_err(|e| format!("restore: {e}"))?;
    }
    let mut layers = layers_of(trace, iter);
    let r = &flush.outcome.stats;
    let offered = r.flows_total + r.transit_skipped;
    layers.insert("flow.resolved_frac".to_owned(), r.flows_resolved as f64 / offered.max(1) as f64);
    layers.insert("subspace.identify_calls".to_owned(), calls as f64);
    layers.insert("checkpoint.bytes_written".to_owned(), bytes_written as f64);
    layers.insert("checkpoint.write_last_ms".to_owned(), trace.last_ms(iter, "checkpoint.write"));
    layers.insert("bench.render_frames_ms".to_owned(), stream.render_ms);
    Ok(layers)
}

/// Runs `serve_paced` until `deadline`.
///
/// # Errors
///
/// A failed render, bind or socket call.
pub fn run_paced(
    seed: u64,
    deadline: &mut Deadline,
    mode: Mode,
    out: &mut Outcome,
) -> Result<(), String> {
    let stream = Stream::render(seed, PACED_BINS)?;
    let due = due_offsets(&stream.records, PACED_RECORDS_PER_S);
    println!(
        "stream: {PACED_BINS} bins, {} frames, {} records, {:.1} MB pre-rendered, \
         rendered in {:.0} ms, offered at {PACED_RECORDS_PER_S} records/s over {:.2} s",
        stream.msgs.len(),
        stream.total_records(),
        stream.frame_bytes as f64 / 1e6,
        stream.render_ms,
        due.last().map_or(0.0, Duration::as_secs_f64)
    );
    deadline.restart();
    let mut samples = Vec::new();
    let (mut p50s, mut p95s) = (Vec::new(), Vec::new());
    let mut traced_layers = Vec::new();
    let mut trace = Trace::default();
    loop {
        out.attempted += 1;
        println!("iteration {}", out.attempted);
        let (daemon, setup_s) = crate::timed_setup(|| {
            let spec = tenant_spec(seed, PACED_BINS, None)?;
            Daemon::bind(serve_config(spec, None)).map_err(|e| format!("bind: {e}"))
        })?;
        let (report, log, wall_s, handle) = drive(daemon, &stream, 0, Some(&due))?;
        let ledger = Ledger::read(&handle, stream.msgs.len() as u64);
        let closes = sorted(&log.close_ms);
        let (p50, p95) = (quantile(&closes, 0.5), quantile(&closes, 0.95));
        // The tail reported is the highest percentile with at least ten
        // samples beyond it: p95 of one day's 287 closes.
        let tail = highest_quantile(closes.len(), &[0.5, 0.9, 0.95, 0.99], 10);
        let late_p99 = quantile(&sorted(&log.late_ms), 0.99);
        println!(
            "  setup_s {setup_s:.4} wall_s {wall_s:.4} records {} bin_close_p50_ms {p50:.3} \
             bin_close_p95_ms {p95:.3} ({} samples, {} beyond p95, max {:.1} ms) \
             gen_late_p99_ms {late_p99:.3}",
            ledger.records,
            closes.len(),
            samples_beyond(closes.len(), 0.95),
            closes.last().copied().unwrap_or(f64::NAN)
        );
        ledger.print();
        let mut problems = Vec::new();
        if let Err(e) = flushed(&report) {
            problems.push(e);
        }
        if !ledger.balances() {
            problems.push("frame ledger does not balance".to_owned());
        }
        if closes.len() != stream.closes.len() {
            problems.push(format!("{} of {} bin closes seen", closes.len(), stream.closes.len()));
        }
        if tail != Some(0.95) {
            problems.push(format!(
                "p95 is not the highest percentile with 10 samples beyond it: {tail:?}"
            ));
        }
        for p in &problems {
            println!("  CHECK FAILED: {p}");
        }
        out.failed += u64::from(!problems.is_empty());
        samples.push(Sample::new(setup_s, wall_s, ledger.records));
        p50s.push(p50);
        p95s.push(p95);
        if mode == Mode::Traced {
            let mut layers =
                traced_replay(seed, &stream, PACED_BINS, Some(&due), None, &mut trace)?;
            ledger.add_to(&mut layers);
            layers.insert("bench.gen_late_p99_ms".to_owned(), late_p99);
            traced_layers.push(layers);
        }
        if deadline.passed() {
            break;
        }
    }
    println!("metric bin_close_p50_ms {} ms (median over iterations)", median(&p50s));
    println!("metric bin_close_p95_ms {} ms (median over iterations)", median(&p95s));
    println!(
        "pre-rendered stream {:.1} MB (counted in peak_rss_mb)",
        stream.frame_bytes as f64 / 1e6
    );
    crate::summarize(out, &samples, &traced_layers, &trace, "serve_paced");
    Ok(())
}

/// The batch reference for the durable stream: the same frames through
/// `ShardedIngest::ingest_datagrams` and `diagnose`.
fn batch_reference(seed: u64, stream: &Stream) -> Result<Vec<u8>, String> {
    let scenario = Scenario::paper_window(seed, DURABLE_BINS).map_err(|e| format!("{e}"))?;
    let routes = scenario.plan.build_route_table(1.0).map_err(|e| format!("routes: {e}"))?;
    let ingress = IngressResolver::synthetic(&scenario.topology);
    let engine = ShardedIngest::new(
        PipelineConfig::abilene(scenario.config.start_secs, DURABLE_BINS),
        &scenario.topology,
        ingress,
        routes,
    )
    .map_err(|e| format!("engine: {e}"))?;
    let frames: Vec<&[u8]> = (0..stream.msgs.len()).map(|i| stream.frame(i)).collect();
    let outcome = engine.ingest_datagrams(&frames).map_err(|e| format!("ingest: {e}"))?;
    let diagnosis = diagnose(&outcome.matrices, SubspaceConfig::default())
        .map_err(|e| format!("diagnose: {e}"))?;
    Ok(canonical(&outcome.matrices, Some(&diagnosis), &outcome.quality.bin_records))
}

/// Runs `serve_durable` until `deadline`.
///
/// # Errors
///
/// A failed render, bind, socket or checkpoint directory call.
pub fn run_durable(
    seed: u64,
    deadline: &mut Deadline,
    mode: Mode,
    out: &mut Outcome,
) -> Result<(), String> {
    let stream = Stream::render(seed, DURABLE_BINS)?;
    let reference = batch_reference(seed, &stream)?;
    let dir = out_dir().join(format!("ckpt-{}", std::process::id()));
    let queue = stream.msgs.len();
    println!(
        "stream: {DURABLE_BINS} bins, {} frames, {} records, {:.1} MB pre-rendered, \
         rendered in {:.0} ms, sent as fast as the socket accepts; queue {queue} frames",
        stream.msgs.len(),
        stream.total_records(),
        stream.frame_bytes as f64 / 1e6,
        stream.render_ms
    );
    // The last checkpoint is written when the frame closing the last
    // watermark-closed bin is ingested; recovery resumes just past it.
    let cursor = stream.closes.last().map_or(0, |&i| i + 1);
    deadline.restart();
    let mut samples = Vec::new();
    let mut recovers = Vec::new();
    let mut traced_layers = Vec::new();
    let mut trace = Trace::default();
    let result = (|| -> Result<(), String> {
        loop {
            out.attempted += 1;
            println!("iteration {}", out.attempted);
            let (daemon, setup_s) = crate::timed_setup(|| {
                let spec = tenant_spec(seed, DURABLE_BINS, Some(queue))?;
                Daemon::bind(serve_config(spec, Some(dir.clone())))
                    .map_err(|e| format!("bind: {e}"))
            })?;
            let (report, _, wall_s, handle) = drive(daemon, &stream, 0, None)?;
            let ledger = Ledger::read(&handle, stream.msgs.len() as u64);
            // Memory is sampled before the recovery check, whose
            // transient buffers land wherever the allocator's state of
            // the moment puts them.
            let sample = Sample::new(setup_s, wall_s, ledger.records);
            let mut problems = Vec::new();
            let image = flushed(&report).map(flush_image);
            match &image {
                Ok(img) if *img == reference => {}
                Ok(_) => problems.push("drained state differs from the batch reference".to_owned()),
                Err(e) => problems.push(e.clone()),
            }
            if !ledger.balances() || ledger.failed() > 0 {
                problems.push("frames were lost, shed or quarantined".to_owned());
            }

            let recover_spec = tenant_spec(seed, DURABLE_BINS, Some(queue))?;
            let t1 = monotonic_now();
            let (recovered, recoveries) = Daemon::recover(serve_config(recover_spec, None), &dir)
                .map_err(|e| format!("recover: {e}"))?;
            let recover_s = t1.elapsed().as_secs_f64();
            let rec = recoveries.first().ok_or("recovery reported no tenant")?;
            if rec.frames_ingested != cursor as u64
                || rec.resumed_seq != Some(stream.closes.len() as u64 - 1)
                || rec.slots_rejected != 0
            {
                problems.push(format!(
                    "recovered cursor {} seq {:?} rejected {}, expected cursor {cursor}",
                    rec.frames_ingested, rec.resumed_seq, rec.slots_rejected
                ));
            }
            let (tail, _, _, _) = drive(recovered, &stream, cursor, None)?;
            if flushed(&tail).map(flush_image).ok() != image.ok() {
                problems.push("recovered replay differs from the uninterrupted run".to_owned());
            }
            println!(
                "  setup_s {setup_s:.4} wall_s {wall_s:.4} records {} recover_s {recover_s:.4} \
                 cursor {} of {} frames",
                ledger.records,
                rec.frames_ingested,
                stream.msgs.len()
            );
            ledger.print();
            for p in &problems {
                println!("  CHECK FAILED: {p}");
            }
            out.failed += u64::from(!problems.is_empty());
            samples.push(sample);
            recovers.push(recover_s);
            if mode == Mode::Traced {
                let mut layers =
                    traced_replay(seed, &stream, DURABLE_BINS, None, Some(&dir), &mut trace)?;
                ledger.add_to(&mut layers);
                traced_layers.push(layers);
            }
            if deadline.passed() {
                return Ok(());
            }
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    println!("metric recover_s {} s (median over iterations)", median(&recovers));
    println!(
        "pre-rendered stream {:.1} MB (counted in peak_rss_mb)",
        stream.frame_bytes as f64 / 1e6
    );
    crate::summarize(out, &samples, &traced_layers, &trace, "serve_durable");
    Ok(())
}
