//! Multi-producer multi-consumer channels, bounded and unbounded.
//!
//! A straightforward `Mutex<VecDeque>` + two-`Condvar` implementation.
//! Disconnection follows crossbeam's rules: a channel is disconnected
//! when all senders or all receivers have dropped; receivers drain
//! buffered messages before reporting disconnection, blocked senders
//! on a full bounded channel fail once every receiver is gone, and the
//! last receiver to go discards what is still buffered (nobody can
//! receive it; its destructors should not wait for the senders).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Inner<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Creates a channel of unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a channel holding at most `cap` messages; `send` blocks when
/// full. (`cap == 0`, crossbeam's rendezvous channel, is approximated
/// with capacity 1 — unused in this workspace.)
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// The sending half; clonable and shareable across threads.
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clonable and shareable across threads.
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

impl<T> Sender<T> {
    /// Blocks until the message is buffered, or fails if all receivers
    /// are gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut inner = lock(&self.0.inner);
        loop {
            if inner.receivers == 0 {
                return Err(SendError(msg));
            }
            match inner.capacity {
                Some(cap) if inner.queue.len() >= cap => {
                    inner = wait(&self.0.not_full, inner);
                }
                _ => {
                    inner.queue.push_back(msg);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives, or fails once the channel is
    /// empty and all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = lock(&self.0.inner);
        loop {
            if let Some(msg) = inner.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = wait(&self.0.not_empty, inner);
        }
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.0.inner);
        loop {
            if let Some(msg) = inner.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .0
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = lock(&self.0.inner);
        if let Some(msg) = inner.queue.pop_front() {
            self.0.not_full.notify_one();
            return Ok(msg);
        }
        if inner.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.0.inner).queue.len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A blocking iterator that ends when the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// A non-blocking iterator over currently buffered messages.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }
}

fn lock<T>(m: &Mutex<Inner<T>>) -> std::sync::MutexGuard<'_, Inner<T>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, Inner<T>>,
) -> std::sync::MutexGuard<'a, Inner<T>> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.0.inner).senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock(&self.0.inner).receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.0.inner);
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.0.inner);
        inner.receivers -= 1;
        if inner.receivers == 0 {
            let discarded = std::mem::take(&mut inner.queue);
            drop(inner);
            self.0.not_full.notify_all();
            // Outside the lock: a message's destructor may use channels.
            drop(discarded);
        }
    }
}

/// Blocking iterator returned by [`Receiver::iter`].
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Non-blocking iterator returned by [`Receiver::try_iter`].
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

/// Owning iterator returned by `Receiver::into_iter`.
pub struct IntoIter<T> {
    receiver: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// The message could not be sent because the channel is disconnected.
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// The channel is empty and disconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Why a `try_recv` returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing buffered right now.
    Empty,
    /// Empty and all senders dropped.
    Disconnected,
}

/// Why a `recv_timeout` returned no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first.
    Timeout,
    /// Empty and all senders dropped.
    Disconnected,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = thread::spawn(move || tx.send(3).map(|()| 3));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(t.join().unwrap().unwrap(), 3);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn drop_all_senders_disconnects_after_drain() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn drop_all_receivers_fails_send() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn the_last_receiver_discards_buffered_messages() {
        let (tx, rx) = unbounded();
        let (inner_tx, inner_rx) = unbounded::<u32>();
        tx.send(inner_tx).unwrap();
        drop(rx);
        // `tx` is still alive, yet the buffered sender is gone.
        assert_eq!(inner_rx.recv(), Err(RecvError));
        drop(tx);
    }

    #[test]
    fn blocked_bounded_send_fails_when_receiver_drops() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn recv_timeout_and_try_recv() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpmc_delivers_every_message_once() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..50 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 100 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
