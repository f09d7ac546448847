//! `nopfs_net`: a request/reply round trip with a sample-sized payload,
//! the per-batch gradient allreduce, and the setup allgather.
//! `rtt_ns`, `allreduce_us` → `samples_per_s` on `peer_remote`;
//! `allgather_us` → `setup_s`.

use super::Replayer;
use crate::fixture::Fixture;
use crate::report::Metric;
use bytes::Bytes;
use nopfs_net::{cluster, Endpoint, NetConfig, Wire};

/// Payload of the round trip (the `peer_remote` sample size).
const RTT_PAYLOAD: usize = 64 * 1024;
/// Elements of the allreduce (the workloads' gradient size).
const GRAD_ELEMS: usize = 256;
/// Collective calls per timed batch.
const CALLS: usize = 200;

pub fn replay(view: &Fixture, r: &mut Replayer) -> Vec<Metric> {
    let config = NetConfig::new(view.workload.system().interconnect, view.workload.scale());

    // Rank 0 sends a request, rank 1 receives it and replies with the
    // payload: one remote fetch as the wire sees it. An empty message
    // tells rank 1 to stop.
    let mut eps = cluster::<Bytes>(2, config);
    let b = eps.pop().expect("two endpoints");
    let a = eps.pop().expect("two endpoints");
    let payload = Bytes::from(vec![0xA5u8; RTT_PAYLOAD]);
    let rtt_ns = std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(env) = b.recv() {
                if env.msg.is_empty() {
                    break;
                }
                b.send(0, payload.clone()).expect("rank 0 is alive");
            }
        });
        let ns = r.ns_per_call(
            "replay.net.rtt",
            CALLS,
            || {
                for _ in 0..CALLS {
                    a.send(1, Bytes::from_static(b"request"))
                        .expect("rank 1 is alive");
                    std::hint::black_box(a.recv().expect("a reply"));
                }
            },
            || {},
        );
        a.send(1, Bytes::new()).expect("rank 1 is alive");
        ns
    });

    let allreduce_ns = collective(r, "replay.net.allreduce", config, |ep| {
        let mut grad = vec![1.0f32; GRAD_ELEMS];
        ep.allreduce_sum(&mut grad).expect("both ranks take part");
    });
    let allgather_ns = collective(r, "replay.net.allgather", config, |ep: &Endpoint<u64>| {
        std::hint::black_box(
            ep.allgather(ep.rank() as u64)
                .expect("both ranks take part"),
        );
    });

    vec![
        Metric::new("net.rtt_ns", "ns", rtt_ns),
        Metric::new("net.allreduce_us", "us", allreduce_ns / 1e3),
        Metric::new("net.allgather_us", "us", allgather_ns / 1e3),
    ]
}

/// A two-rank collective: rank 1 makes as many calls as rank 0 times.
fn collective<T: Wire>(
    r: &mut Replayer,
    name: &'static str,
    config: NetConfig,
    call: impl Fn(&Endpoint<T>) + Sync,
) -> f64 {
    let mut eps = cluster::<T>(2, config);
    let b = eps.pop().expect("two endpoints");
    let a = eps.pop().expect("two endpoints");
    // Rank 1 cannot know how many batches rank 0 will time, so rank 0
    // tells it after each batch, over a channel outside the network
    // under test.
    let (more_tx, more_rx) = std::sync::mpsc::channel::<bool>();
    std::thread::scope(|s| {
        let call = &call;
        s.spawn(move || {
            while more_rx.recv() == Ok(true) {
                for _ in 0..CALLS {
                    call(&b);
                }
            }
        });
        let ns = r.ns_per_call(
            name,
            CALLS,
            || {
                more_tx.send(true).expect("rank 1 is alive");
                for _ in 0..CALLS {
                    call(&a);
                }
            },
            || {},
        );
        more_tx.send(false).expect("rank 1 is alive");
        ns
    })
}
