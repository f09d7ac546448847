//! An in-process cluster substrate.
//!
//! The paper's NoPFS implementation runs one MPI rank per worker and
//! uses the interconnect for three things: an allgather of access
//! streams at setup, point-to-point sample serving between workers, and
//! (in the training framework underneath) gradient allreduces. This
//! crate substitutes that substrate with an in-process cluster: workers
//! are OS threads, every node owns an [`Endpoint`] with an inbox
//! channel, and all traffic is paced through a per-node egress
//! [`TokenBucket`] at the modelled interconnect bandwidth `b_c` plus a
//! fixed latency. Real bytes cross real thread boundaries, so
//! correctness (ordering, integrity, graceful shutdown) is exercised the
//! way a real transport would exercise it, while transfer *times* follow
//! the performance model.
//!
//! Collectives (barrier, allgather, allreduce) are built on the same
//! point-to-point layer. The gradient allreduce uses the
//! bandwidth-optimal ring algorithm (with a star fallback at `n ≤ 2`),
//! so no rank becomes an O(n·|buf|) hotspot — which matters once
//! multi-tenant experiments run several clusters concurrently; the
//! setup allgather stays naive-star, adequate for its once-per-job use.

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use nopfs_util::rate::TokenBucket;
use nopfs_util::timing::{precise_wait, TimeScale};
use std::sync::Arc;
use std::time::Duration;

/// Messages must report their wire size so the NIC model can pace them.
pub trait Wire: Send + 'static {
    /// Bytes this message would occupy on the wire.
    fn wire_size(&self) -> u64;
}

impl Wire for bytes::Bytes {
    fn wire_size(&self) -> u64 {
        self.len() as u64
    }
}

impl Wire for Vec<f32> {
    fn wire_size(&self) -> u64 {
        (self.len() * 4) as u64
    }
}

impl Wire for u64 {
    fn wire_size(&self) -> u64 {
        8
    }
}

/// A delivered message with its sender.
#[derive(Debug)]
pub struct Envelope<T> {
    /// Sending rank.
    pub from: usize,
    /// The payload.
    pub msg: T,
}

/// Interconnect parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-node interconnect bandwidth `b_c`, model bytes/second.
    pub bandwidth: f64,
    /// One-way message latency, model seconds.
    pub latency: f64,
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
}

impl NetConfig {
    /// A configuration with the given bandwidth (model bytes/s), 10 µs
    /// latency, and the given time scale.
    pub fn new(bandwidth: f64, scale: TimeScale) -> Self {
        assert!(bandwidth > 0.0 && bandwidth.is_finite());
        Self {
            bandwidth,
            latency: 10e-6,
            scale,
        }
    }
}

/// Errors surfaced by the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer's endpoint was dropped.
    Disconnected,
    /// No message arrived within the timeout.
    Timeout,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for NetError {}

/// One node's connection to the cluster.
pub struct Endpoint<T: Wire> {
    rank: usize,
    peers: Vec<Sender<Envelope<T>>>,
    inbox: Receiver<Envelope<T>>,
    egress: Arc<TokenBucket>,
    config: NetConfig,
    barrier: Arc<std::sync::Barrier>,
}

impl<T: Wire> Endpoint<T> {
    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Cluster size.
    pub fn world_size(&self) -> usize {
        self.peers.len()
    }

    /// Sends `msg` to `to`, blocking for the modelled transfer time
    /// (egress pacing plus latency) before it is delivered.
    ///
    /// Sending to self is allowed and skips the latency (loopback).
    pub fn send(&self, to: usize, msg: T) -> Result<(), NetError> {
        assert!(to < self.peers.len(), "rank {to} out of range");
        let size = msg.wire_size();
        if to != self.rank {
            self.egress.acquire(size);
            precise_wait(self.config.scale.to_wall(self.config.latency));
        }
        self.peers[to]
            .send(Envelope {
                from: self.rank,
                msg,
            })
            .map_err(|_| NetError::Disconnected)
    }

    /// Blocks until a message arrives.
    pub fn recv(&self) -> Result<Envelope<T>, NetError> {
        self.inbox.recv().map_err(|_| NetError::Disconnected)
    }

    /// Blocks until a message arrives or `timeout` (wall time) elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<T>, NetError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<T>> {
        self.inbox.try_recv().ok()
    }

    /// Synchronizes all ranks (the bulk-synchronous barrier between
    /// training iterations).
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Pays the wire cost of transferring `bytes` from this node without
    /// sending a message — used when a payload travels out of band (an
    /// in-process reply channel) but must still occupy the modelled NIC.
    pub fn pace(&self, bytes: u64) {
        self.egress.acquire(bytes);
        precise_wait(self.config.scale.to_wall(self.config.latency));
    }
}

impl<T: Wire + Clone> Endpoint<T> {
    /// Naive allgather: every rank contributes one value and receives
    /// everyone's, indexed by rank. This is how workers exchange access
    /// streams at setup ("distributing a worker's access sequence R to
    /// all other workers", Sec. 5.2.2).
    ///
    /// All ranks must call this collectively, with no other traffic in
    /// flight on the same endpoint.
    pub fn allgather(&self, value: T) -> Result<Vec<T>, NetError> {
        let n = self.world_size();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        slots[self.rank] = Some(value.clone());
        for to in 0..n {
            if to != self.rank {
                self.send(to, value.clone())?;
            }
        }
        for _ in 0..n - 1 {
            let env = self.recv()?;
            assert!(
                slots[env.from].is_none(),
                "duplicate allgather contribution from rank {}",
                env.from
            );
            slots[env.from] = Some(env.msg);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all contributions received"))
            .collect())
    }
}

impl Endpoint<Vec<f32>> {
    /// Sum-allreduce over `buf` — the gradient synchronization of
    /// data-parallel SGD. All ranks must call collectively with
    /// equal-length buffers.
    ///
    /// Uses the bandwidth-optimal ring algorithm (reduce-scatter
    /// followed by allgather: every node moves `2·(n-1)/n · |buf|`
    /// elements regardless of `n`), falling back to the star for
    /// `n ≤ 2`, where the ring degenerates to the same exchange and the
    /// star's single hop is strictly cheaper in latency.
    pub fn allreduce_sum(&self, buf: &mut [f32]) -> Result<(), NetError> {
        if self.world_size() <= 2 {
            self.allreduce_sum_star(buf)
        } else {
            self.allreduce_sum_ring(buf)
        }
    }

    /// Star-topology sum-allreduce through rank 0. Rank 0 receives and
    /// reduces every contribution, then broadcasts the result: an
    /// O(n·|buf|) hotspot on rank 0, so it serves only as the small-`n`
    /// fallback of [`Self::allreduce_sum`]. Rank 0 answers each peer in
    /// the buffer that peer sent, so it allocates nothing at `n = 2`.
    pub fn allreduce_sum_star(&self, buf: &mut [f32]) -> Result<(), NetError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        if self.rank == 0 {
            // The contributions, kept to answer in: the latest one by
            // itself, so that `earlier` stays unallocated at n = 2.
            let mut earlier = Vec::new();
            let mut latest = None;
            for _ in 0..n - 1 {
                let env = self.recv()?;
                assert_eq!(env.msg.len(), buf.len(), "allreduce length mismatch");
                for (a, b) in buf.iter_mut().zip(&env.msg) {
                    *a += b;
                }
                earlier.extend(latest.replace(env));
            }
            for mut env in earlier.into_iter().chain(latest) {
                env.msg.copy_from_slice(buf);
                self.send(env.from, env.msg)?;
            }
        } else {
            self.send(0, buf.to_vec())?;
            let env = self.recv()?;
            assert_eq!(env.from, 0, "unexpected allreduce reply origin");
            buf.copy_from_slice(&env.msg);
        }
        Ok(())
    }

    /// Ring sum-allreduce: `n-1` reduce-scatter steps leave each rank
    /// owning one fully-reduced chunk, then `n-1` allgather steps
    /// circulate the reduced chunks. Every step only talks to the
    /// immediate neighbors, so no rank's NIC carries more than
    /// `2·(n-1)/n` of the buffer — the property that keeps gradient
    /// synchronization flat as tenants scale worker counts.
    fn allreduce_sum_ring(&self, buf: &mut [f32]) -> Result<(), NetError> {
        let n = self.world_size();
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;
        // Chunk c covers chunk_range(c); chunks may be empty when
        // `buf.len() < n`, which still circulates (zero-byte messages
        // pay only the latency).
        let len = buf.len();
        let chunk_range = move |c: usize| (c * len / n)..((c + 1) * len / n);

        // Reduce-scatter: in step s, send chunk (rank - s) and reduce
        // the incoming chunk (rank - s - 1) from the left neighbor.
        for step in 0..n - 1 {
            let send_c = (self.rank + n - step) % n;
            let recv_c = (self.rank + n - step - 1) % n;
            self.send(right, buf[chunk_range(send_c)].to_vec())?;
            let env = self.recv()?;
            assert_eq!(env.from, left, "ring allreduce expects in-ring traffic");
            let dst = &mut buf[chunk_range(recv_c)];
            assert_eq!(env.msg.len(), dst.len(), "allreduce length mismatch");
            for (a, b) in dst.iter_mut().zip(&env.msg) {
                *a += b;
            }
        }

        // Allgather: circulate the reduced chunks. After reduce-scatter,
        // rank r owns chunk (r + 1) mod n.
        for step in 0..n - 1 {
            let send_c = (self.rank + 1 + n - step) % n;
            let recv_c = (self.rank + n - step) % n;
            self.send(right, buf[chunk_range(send_c)].to_vec())?;
            let env = self.recv()?;
            assert_eq!(env.from, left, "ring allreduce expects in-ring traffic");
            let dst = &mut buf[chunk_range(recv_c)];
            assert_eq!(env.msg.len(), dst.len(), "allreduce length mismatch");
            dst.copy_from_slice(&env.msg);
        }
        Ok(())
    }
}

/// Creates a cluster of `n` connected endpoints.
///
/// # Panics
/// Panics if `n == 0`.
pub fn cluster<T: Wire>(n: usize, config: NetConfig) -> Vec<Endpoint<T>> {
    assert!(n > 0, "a cluster needs at least one node");
    let mut senders = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::unbounded::<Envelope<T>>();
        senders.push(tx);
        inboxes.push(rx);
    }
    let barrier = Arc::new(std::sync::Barrier::new(n));
    inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| Endpoint {
            rank,
            peers: senders.clone(),
            inbox,
            egress: Arc::new(TokenBucket::with_burst_window(
                config.scale.rate_to_wall(config.bandwidth),
                0.005,
            )),
            config,
            barrier: Arc::clone(&barrier),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Instant;

    fn fast_config() -> NetConfig {
        NetConfig {
            bandwidth: 1.0e12,
            latency: 0.0,
            scale: TimeScale::realtime(),
        }
    }

    #[test]
    fn point_to_point_delivery() {
        let mut eps = cluster::<Bytes>(2, fast_config());
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, Bytes::from_static(b"hello")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.from, 0);
        assert_eq!(env.msg, Bytes::from_static(b"hello"));
    }

    #[test]
    fn self_send_is_loopback() {
        let eps = cluster::<u64>(1, fast_config());
        eps[0].send(0, 42).unwrap();
        assert_eq!(eps[0].recv().unwrap().msg, 42);
    }

    #[test]
    fn transfer_time_follows_bandwidth() {
        // 10 MB/s: a 1 MB message should take ~100 ms to send.
        let cfg = NetConfig {
            bandwidth: 10.0e6,
            latency: 0.0,
            scale: TimeScale::realtime(),
        };
        let mut eps = cluster::<Bytes>(2, cfg);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let payload = Bytes::from(vec![0u8; 1_000_000]);
        a.send(1, payload.clone()).unwrap(); // drain burst
        b.recv().unwrap();
        let t0 = Instant::now();
        a.send(1, payload).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt > 0.07, "send too fast: {dt}s");
        assert!(dt < 0.5, "send too slow: {dt}s");
        b.recv().unwrap();
    }

    #[test]
    fn latency_is_applied() {
        let cfg = NetConfig {
            bandwidth: 1.0e12,
            latency: 0.02, // 20 ms model
            scale: TimeScale::realtime(),
        };
        let mut eps = cluster::<u64>(2, cfg);
        let _b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t0 = Instant::now();
        a.send(1, 1).unwrap();
        assert!(t0.elapsed().as_secs_f64() >= 0.02);
    }

    #[test]
    fn recv_timeout_expires() {
        let eps = cluster::<u64>(2, fast_config());
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn disconnected_peer_is_reported() {
        let mut eps = cluster::<u64>(2, fast_config());
        let a = eps.remove(0);
        drop(eps); // drop rank 1
        assert_eq!(a.send(1, 5).unwrap_err(), NetError::Disconnected);
    }

    #[test]
    fn allgather_collects_rank_indexed() {
        let eps = cluster::<u64>(4, fast_config());
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    let rank = ep.rank() as u64;
                    ep.allgather(rank * 10).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let eps = cluster::<Vec<f32>>(4, fast_config());
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    let mut buf = vec![ep.rank() as f32 + 1.0, 2.0];
                    ep.allreduce_sum(&mut buf).unwrap();
                    buf
                })
            })
            .collect();
        for h in handles {
            // 1+2+3+4 = 10; 2*4 = 8.
            assert_eq!(h.join().unwrap(), vec![10.0, 8.0]);
        }
    }

    /// Runs one collective closure on every rank of a fresh cluster and
    /// returns the per-rank buffers.
    fn run_allreduce<F>(n: usize, init: &[f32], f: F) -> Vec<Vec<f32>>
    where
        F: Fn(&Endpoint<Vec<f32>>, &mut Vec<f32>) + Send + Sync + Copy + 'static,
    {
        let eps = cluster::<Vec<f32>>(n, fast_config());
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut buf: Vec<f32> = init.iter().map(|v| v + ep.rank() as f32 * 0.5).collect();
                std::thread::spawn(move || {
                    f(&ep, &mut buf);
                    buf
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn ring_matches_star_for_many_shapes() {
        // Including buffers shorter than the world size (empty chunks)
        // and an empty buffer.
        for (n, len) in [(3, 0), (3, 2), (4, 4), (5, 3), (6, 17), (8, 64)] {
            let init: Vec<f32> = (0..len).map(|i| i as f32 * 0.25 - 1.0).collect();
            let ring = run_allreduce(n, &init, |ep, buf| {
                ep.allreduce_sum(buf).unwrap();
            });
            let star = run_allreduce(n, &init, |ep, buf| {
                ep.allreduce_sum_star(buf).unwrap();
            });
            for (r, s) in ring.iter().zip(&star) {
                assert_eq!(r.len(), s.len());
                for (a, b) in r.iter().zip(s) {
                    assert!((a - b).abs() < 1e-4, "n={n} len={len}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn small_world_star_fallback_is_exact() {
        // n ≤ 2 goes through the star; verify both entry points agree.
        for n in [1usize, 2] {
            let init = [1.5f32, -2.0, 3.25];
            let via_public = run_allreduce(n, &init, |ep, buf| {
                ep.allreduce_sum(buf).unwrap();
            });
            let via_star = run_allreduce(n, &init, |ep, buf| {
                ep.allreduce_sum_star(buf).unwrap();
            });
            assert_eq!(via_public, via_star);
            // And the values are the true sums.
            let rank_sum: f32 = (0..n).map(|r| r as f32 * 0.5).sum();
            for buf in via_public {
                for (got, base) in buf.iter().zip(&init) {
                    let expect = base * n as f32 + rank_sum;
                    assert!((got - expect).abs() < 1e-5, "{got} vs {expect}");
                }
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let eps = cluster::<u64>(3, fast_config());
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    ep.barrier();
                    // Everyone must have incremented before anyone passes.
                    assert_eq!(counter.load(Ordering::SeqCst), 3);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn message_order_is_preserved_per_sender() {
        let mut eps = cluster::<u64>(2, fast_config());
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..100 {
            a.send(1, i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(b.recv().unwrap().msg, i);
        }
    }
}
