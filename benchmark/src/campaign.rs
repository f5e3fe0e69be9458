//! `campaign-paper`: the researcher's path — regenerate the paper.
//!
//! One iteration is `World::build_instrumented(scale, true, true)`
//! followed by `run_all_parallel` (all 37 experiments). `topo`,
//! `netsim`, `core` and `analysis` do all of that work. After the timed
//! iterations the last world is put behind the same server the serve
//! workloads use and asked the warm mix, so the serving metrics have a
//! value on this workload too (the driver wants every end-to-end metric
//! from every workload); none of that is inside `timed_s`.

use crate::metrics::{fastest, peak_rss_mib, Outcome};
use crate::serve::{self, Node, ServeSpec, WARM_DISTINCT};
use crate::span::Tracer;
use crate::Config;
use lfp_analysis::experiments::{all_ids, run_all_parallel, run_by_id};
use lfp_analysis::path_corpus::PathCorpus;
use lfp_analysis::report::Report;
use lfp_analysis::World;
use lfp_core::pipeline::{classify_scan, scan_dataset, DatasetScan};
use lfp_core::probe::{ECHO_PAYLOAD, LFP_PORT, PROBER_IP};
use lfp_net::link::splitmix64;
use lfp_net::{traceroute, TracerouteOptions};
use lfp_packet::icmp::IcmpRepr;
use lfp_packet::ipv4::{self, Ipv4Packet, Ipv4Repr, Protocol};
use lfp_packet::snmp::{EngineId, SnmpV3Message};
use lfp_packet::tcp::{TcpFlags, TcpOptions, TcpRepr};
use lfp_packet::udp::UdpRepr;
use lfp_query::QueryEngine;
use lfp_topo::datasets::{build_itdk_on, measure_ripe_snapshot, plan_ripe_snapshots};
use lfp_topo::{Internet, Scale};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Phase sums may differ from the iteration's wall clock by this share.
const PHASE_SUM_TOLERANCE: f64 = 0.03;

fn scale_of(config: &Config) -> Scale {
    if config.quick {
        Scale::tiny()
    } else {
        Scale::paper()
    }
}

/// FNV-1a over every rendered report, in registry order.
fn digest(reports: &[Report]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for report in reports {
        for byte in report.to_json().bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One campaign iteration through the shipped entry points. Returns the
/// world, the report digest, the wall clock and the phase sum.
fn iterate(scale: Scale) -> (World, u64, f64, f64) {
    let start = Instant::now();
    let (world, timings) = World::build_instrumented(scale, true, true);
    let experiments_start = Instant::now();
    let reports = run_all_parallel(&world);
    let experiments_s = experiments_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    (
        world,
        digest(&reports),
        wall_s,
        timings.total() + experiments_s,
    )
}

fn guard_phase_sum(outcome: &mut Outcome, quick: bool, phases_s: f64, wall_s: f64) {
    let gap = (wall_s - phases_s).abs() / wall_s;
    // At test scale an iteration is milliseconds and thread start-up
    // between phases is a visible share of it.
    outcome.guard(quick || gap <= PHASE_SUM_TOLERANCE, || {
        format!("phase spans sum to {phases_s:.3}s but the iteration took {wall_s:.3}s")
    });
}

pub fn run(config: &Config) -> Outcome {
    let scale = scale_of(config);
    let mut outcome = Outcome::default();
    let iterations = ((config.seconds / 5.0).round() as usize).max(2);

    // Set-up: one untimed iteration at example scale faults the code
    // and the allocator in. (A full paper-scale iteration would not
    // warm the timed ones further: a dropped world's large buffers go
    // back to the kernel.)
    if !config.quick {
        drop(iterate(Scale::small()));
    }
    outcome.set("setup_s", config.process_start.elapsed().as_secs_f64());

    let mut samples = Vec::with_capacity(iterations);
    let mut last = None;
    let mut reference = None;
    for iteration in 0..iterations {
        drop(last.take());
        let (world, digest, wall_s, phases_s) = iterate(scale);
        let reference = *reference.get_or_insert(digest);
        outcome.check(digest == reference, || {
            format!("iteration {iteration} rendered different reports ({digest:016x} vs {reference:016x})")
        });
        guard_phase_sum(&mut outcome, config.quick, phases_s, wall_s);
        samples.push(wall_s);
        last = Some(world);
    }
    outcome.set("client.campaign_s", fastest(&samples));
    // The fixed work at the sustained pace: every iteration as fast as
    // the fastest.
    outcome.set("timed_s", fastest(&samples) * iterations as f64);
    outcome.note(format!(
        "campaign_s {:.3} (fastest iteration); timed section: {:.3}s of wall clock",
        fastest(&samples),
        samples.iter().sum::<f64>()
    ));
    outcome.note(format!(
        "{iterations} timed iterations of {} experiments; report digest {:016x}",
        all_ids().len(),
        reference.expect("at least two iterations")
    ));

    // The campaign's result, served.
    let world = Arc::new(last.expect("at least two iterations"));
    let spec = ServeSpec {
        scale,
        cold: false,
        distinct: WARM_DISTINCT,
        requests_per_conn: if config.quick {
            2000
        } else {
            config.scaled(100_000)
        },
        setups: 1,
    };
    let engine = Arc::new(QueryEngine::new(world));
    let node = Node::serve(engine, &spec, config.seed);
    let line_of = node.mix.stretch(0);
    let load = serve::run_load(
        node.served.addr,
        &node.engine,
        spec.requests_per_conn,
        &line_of,
        None,
    );
    serve::report_load(&mut outcome, &load, config.quick);
    serve::verify_samples(&mut outcome, &node.engine, &load, &line_of);
    node.served.stop(&mut outcome);
    outcome.set("peak_rss_mb", peak_rss_mib());
    outcome
}

/// One iteration driven phase by phase through the public calls
/// `World::build_instrumented` makes, in the same order and with the
/// same fan-out, one span per call.
fn iterate_traced(tracer: &mut Tracer, scale: Scale) -> (World, u64) {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (internet, _) = tracer.span("topo.generate", 0, |_| Internet::generate(scale));

    let ((ripe, itdk), _) = tracer.span("topo.collect", 0, |tracer| {
        let plans = plan_ripe_snapshots(&internet);
        std::thread::scope(|scope| {
            let internet = &internet;
            let snapshots: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(unit, plan)| {
                    let mut fork_tracer = tracer.fork(unit as u32);
                    scope.spawn(move || {
                        let (network, _) = fork_tracer
                            .span("netsim.fork", unit as u64, |_| internet.network().fork());
                        let (snapshot, _) =
                            fork_tracer.span("topo.measure_snapshot", unit as u64, |_| {
                                measure_ripe_snapshot(internet, &network, plan)
                            });
                        (snapshot, fork_tracer)
                    })
                })
                .collect();
            let unit = plans.len();
            let mut fork_tracer = tracer.fork(unit as u32);
            let itdk = scope.spawn(move || {
                let (network, _) =
                    fork_tracer.span("netsim.fork", unit as u64, |_| internet.network().fork());
                let (itdk, _) = fork_tracer.span("topo.build_itdk", unit as u64, |_| {
                    build_itdk_on(internet, &network)
                });
                (itdk, fork_tracer)
            });
            let ripe: Vec<_> = snapshots
                .into_iter()
                .map(|handle| {
                    let (snapshot, fork) = handle.join().expect("snapshot collection panicked");
                    tracer.absorb(fork);
                    snapshot
                })
                .collect();
            let (itdk, fork) = itdk.join().expect("ITDK collection panicked");
            tracer.absorb(fork);
            (ripe, itdk)
        })
    });

    let (mut scans, _) = tracer.span("core.scan", 0, |tracer| {
        let shards = (cores * 2).div_ceil(ripe.len() + 1).max(1);
        let jobs: Vec<(&str, Vec<Ipv4Addr>)> = ripe
            .iter()
            .map(|snapshot| (snapshot.name.as_str(), &snapshot.router_ips))
            .chain([(itdk.name.as_str(), &itdk.router_ips)])
            .map(|(name, ips)| (name, ips.iter().copied().collect()))
            .collect();
        std::thread::scope(|scope| {
            let internet = &internet;
            let handles: Vec<_> = jobs
                .iter()
                .enumerate()
                .map(|(unit, (name, targets))| {
                    let mut fork_tracer = tracer.fork(unit as u32);
                    scope.spawn(move || {
                        let (network, _) = fork_tracer
                            .span("netsim.fork", unit as u64, |_| internet.network().fork());
                        let (scan, _) = fork_tracer.span("core.scan_dataset", unit as u64, |_| {
                            scan_dataset(&network, name, targets, shards)
                        });
                        (scan, fork_tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    let (scan, fork) = handle.join().expect("dataset scan panicked");
                    tracer.absorb(fork);
                    scan
                })
                .collect::<Vec<DatasetScan>>()
        })
    });
    let itdk_scan = scans.pop().expect("ITDK scan present");

    let (world, _) = tracer.span("core.finalize", 0, |_| {
        World::assemble(scale, internet, ripe, itdk, scans, itdk_scan)
    });
    tracer.span("analysis.classify_warm", 0, |_| {
        std::thread::scope(|scope| {
            for scan in world.all_scans() {
                let world = &world;
                scope.spawn(move || {
                    black_box(world.classification_map(scan));
                    black_box(world.lfp_vendor_map(scan));
                    black_box(world.snmp_vendor_map(scan));
                });
            }
        });
    });
    let (corpus, seconds) = tracer.span("analysis.corpus_build", 0, |_| {
        PathCorpus::build_with_shards(&world, lfp_net::ScanConfig::default().shards)
    });
    world.seed_path_corpus(Arc::new(corpus), seconds);
    let (reports, _) = tracer.span("analysis.experiments", 0, |tracer| {
        run_registry_traced(tracer, &world, cores)
    });
    (world, digest(&reports))
}

/// `run_all_parallel` with a span per experiment: the same atomic
/// cursor over the registry, one `run_by_id` per slot, reports back in
/// registry order.
fn run_registry_traced(tracer: &mut Tracer, world: &World, cores: usize) -> Vec<Report> {
    let ids = all_ids();
    let cursor = AtomicUsize::new(0);
    let mut reports: Vec<Option<Report>> = ids.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cores.min(ids.len()))
            .map(|worker| {
                let mut fork = tracer.fork(worker as u32);
                let (ids, cursor) = (&ids, &cursor);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(id) = ids.get(index) else { break };
                        let (report, _) = fork.span("analysis.experiment", index as u64, |_| {
                            run_by_id(world, id).expect("registered id")
                        });
                        done.push((index, report));
                    }
                    (done, fork)
                })
            })
            .collect();
        for handle in handles {
            let (done, fork) = handle.join().expect("experiment worker panicked");
            tracer.absorb(fork);
            for (index, report) in done {
                reports[index] = Some(report);
            }
        }
    });
    reports
        .into_iter()
        .map(|report| report.expect("every experiment ran"))
        .collect()
}

/// The ten probes of the LFP schedule (3 ICMP echo, 2 TCP ACK + 1 SYN,
/// 3 UDP, 1 SNMPv3 discovery) as datagrams toward `target`.
fn lfp_probe_set(target: Ipv4Addr) -> Vec<Vec<u8>> {
    let wrap = |protocol: Protocol, ident: u16, payload: &[u8]| {
        ipv4::build_datagram(
            &Ipv4Repr {
                src: PROBER_IP,
                dst: target,
                protocol,
                ttl: 64,
                ident,
                dont_frag: false,
                payload_len: payload.len(),
            },
            payload,
        )
    };
    let mut set = Vec::with_capacity(10);
    for round in 0..3u16 {
        let echo = IcmpRepr::EchoRequest {
            ident: 0x4c46,
            seq: round,
            payload: vec![0u8; ECHO_PAYLOAD],
        };
        set.push(wrap(Protocol::Icmp, round, &echo.to_bytes()));
        let tcp = TcpRepr {
            src_port: 50000 + round,
            dst_port: LFP_PORT,
            seq: 0x2000_0000,
            ack: 0x5eed_0000,
            flags: if round == 2 {
                TcpFlags::SYN
            } else {
                TcpFlags::ACK
            },
            window: 1024,
            options: TcpOptions::default(),
        };
        set.push(wrap(
            Protocol::Tcp,
            16 + round,
            &tcp.to_bytes(PROBER_IP, target),
        ));
        let udp = UdpRepr {
            src_port: 51000 + round,
            dst_port: LFP_PORT,
            payload: vec![0u8; 12],
        };
        set.push(wrap(
            Protocol::Udp,
            32 + round,
            &udp.to_bytes(PROBER_IP, target),
        ));
    }
    let snmp = UdpRepr {
        src_port: 52000,
        dst_port: 161,
        payload: SnmpV3Message::discovery_request(7)
            .to_bytes()
            .expect("discovery request encodes"),
    };
    set.push(wrap(Protocol::Udp, 48, &snmp.to_bytes(PROBER_IP, target)));
    set
}

/// The call-level probes of the measurement layers: numbers too small
/// for a span per call are timed over many calls inside one span.
fn probe_layers(outcome: &mut Outcome, tracer: &mut Tracer, world: &World, seed: u64) {
    let internet = &world.internet;
    let network = internet.network().fork();

    // 1,000 routed (vantage, destination) pairs drawn by the seed.
    let vantages = internet.vantages();
    let interfaces = internet.all_interfaces();
    let pairs: Vec<_> = (0..1000u64)
        .map(|index| {
            let draw = splitmix64(seed ^ index << 8);
            (
                &vantages[(draw % vantages.len() as u64) as usize],
                interfaces[((draw >> 24) % interfaces.len() as u64) as usize],
            )
        })
        .collect();
    let (_, seconds) = tracer.span("netsim.traceroute", 0, |_| {
        for (index, (vantage, dst)) in pairs.iter().enumerate() {
            black_box(traceroute(
                &network,
                vantage.id,
                vantage.src_ip,
                *dst,
                TracerouteOptions::default(),
                index as f64 * 2.0,
                index as u64,
            ));
        }
    });
    outcome.set("netsim.traceroute_us", seconds * 1e6 / pairs.len() as f64);

    let target = world.itdk_scan.targets[0];
    let set = lfp_probe_set(target);
    let rounds = 20_000u64;
    let (_, seconds) = tracer.span("netsim.probe", 0, |_| {
        for round in 0..rounds {
            black_box(network.probe(black_box(&set[0]), round as f64, round));
        }
    });
    outcome.set("netsim.probe_ns", seconds * 1e9 / rounds as f64);

    let engine = EngineId::text(9, "bench-engine-0001");
    let report = SnmpV3Message::discovery_report(7, &engine, 3, 100_000, 42);
    let report_bytes = report.to_bytes().expect("discovery report encodes");
    let rounds = 20_000u64;
    let (_, seconds) = tracer.span("packet.codec", 0, |_| {
        for _ in 0..rounds {
            for datagram in lfp_probe_set(black_box(target)) {
                let packet = Ipv4Packet::new_checked(&datagram[..]).expect("own datagram");
                black_box(Ipv4Repr::parse(&packet).expect("own header"));
            }
            let message = SnmpV3Message::parse(black_box(&report_bytes)).expect("own report");
            black_box(message.authoritative_engine_id().expect("engine id"));
        }
    });
    outcome.set("packet.codec_ns", seconds * 1e9 / (rounds * 11) as f64);

    let (verdicts, seconds) = tracer.span("core.classify_scan", 0, |_| {
        classify_scan(&world.itdk_scan, &world.set)
    });
    outcome.set(
        "core.classify_ns_per_ip",
        seconds * 1e9 / verdicts.len().max(1) as f64,
    );
}

/// The traced run: a warm-up iteration, one driven span by span, one
/// more through the shipped entry points for comparison, then the
/// call-level probes.
pub fn run_traced(config: &Config, tracer: &mut Tracer) -> Outcome {
    let scale = scale_of(config);
    let mut outcome = Outcome::default();
    // Three iterations, each dropping its world before the next starts
    // (an iteration that cannot reuse the last one's pages is a tenth
    // slower): the first is this process's warm-up and fixes the
    // digest; the span-by-span one is compared with the shipped one
    // after it.
    drop(iterate(scale).0);
    let ((world, digest), traced_s) = tracer.span("campaign.iteration", 1, |tracer| {
        iterate_traced(tracer, scale)
    });
    drop(world);
    let (world, reference, untraced_s, _) = iterate(scale);
    outcome.check(digest == reference, || {
        format!("the span-by-span iteration rendered different reports ({digest:016x} vs {reference:016x})")
    });
    outcome.set("trace_overhead_share", (traced_s - untraced_s) / untraced_s);
    outcome.set("client.campaign_s", untraced_s);

    let phase = |name: &str| tracer.total(name).0;
    let phases_s: f64 = [
        "topo.generate",
        "topo.collect",
        "core.scan",
        "core.finalize",
        "analysis.classify_warm",
        "analysis.corpus_build",
        "analysis.experiments",
    ]
    .iter()
    .map(|name| phase(name))
    .sum();
    guard_phase_sum(&mut outcome, config.quick, phases_s, traced_s);
    outcome.set("topo.generate_s", phase("topo.generate"));
    outcome.set("topo.collect_s", phase("topo.collect"));
    outcome.set("netsim.fork_ms", tracer.mean("netsim.fork") * 1e3);
    outcome.set("core.scan_s", phase("core.scan"));
    let targets: usize = world.all_scans().map(|scan| scan.targets.len()).sum();
    outcome.set(
        "core.scan_targets_per_s",
        targets as f64 / phase("core.scan"),
    );
    outcome.set("core.finalize_ms", phase("core.finalize") * 1e3);
    outcome.set("analysis.classify_warm_s", phase("analysis.classify_warm"));
    outcome.set("analysis.corpus_build_s", phase("analysis.corpus_build"));
    outcome.set(
        "analysis.corpus_paths_per_s",
        world.path_corpus().len() as f64 / phase("analysis.corpus_build"),
    );
    outcome.set("analysis.experiments_s", phase("analysis.experiments"));

    // The slowest experiment bounds the parallel registry from below.
    let slowest = tracer
        .spans()
        .iter()
        .filter(|span| span.name == "analysis.experiment")
        .max_by_key(|span| span.duration_ns());
    if let Some(span) = slowest {
        outcome.set("analysis.experiment_max_s", span.duration_ns() as f64 / 1e9);
        outcome.note(format!(
            "slowest experiment: {} ({:.3}s); analysis.experiment spans are tagged with the \
             registry index",
            all_ids()[span.tag as usize],
            span.duration_ns() as f64 / 1e9
        ));
    }

    probe_layers(&mut outcome, tracer, &world, config.seed);
    outcome
}
