//! Reactor observability: atomic counters shared by every serve loop.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Live counters of a reactor (all serve loops against one listener
/// share one instance). Cheap relaxed atomics — the counters order
/// nothing; they are monitoring, not synchronization.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Currently open connections (gauge).
    open: AtomicUsize,
    /// Connections accepted since start (includes ones rejected busy).
    accepted: AtomicU64,
    /// Complete request frames handed to the service.
    frames_in: AtomicU64,
    /// Response frames queued for transmission, each pulled stream
    /// frame included.
    frames_out: AtomicU64,
    /// Busy substitutions: replies or stream frames over the write
    /// budget plus
    /// connections rejected at the connection cap.
    busy_rejections: AtomicU64,
}

impl ReactorStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an accepted, now-open connection.
    pub(crate) fn conn_opened(&self) {
        self.open.fetch_add(1, Ordering::Relaxed);
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection rejected at the connection cap.
    pub(crate) fn conn_rejected(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an open connection closing.
    pub(crate) fn conn_closed(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one complete request frame handed to the service.
    pub(crate) fn frame_in(&self) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `count` response frames queued for transmission.
    pub(crate) fn frames_out(&self, count: u64) {
        self.frames_out.fetch_add(count, Ordering::Relaxed);
    }

    /// Record a reply substituted by the busy frame.
    pub(crate) fn busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    #[must_use]
    pub(crate) fn open_connections(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> ReactorCounters {
        ReactorCounters {
            open_connections: self.open.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ReactorStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReactorCounters {
    /// Currently open connections.
    pub open_connections: usize,
    /// Connections accepted since start (including busy-rejected ones).
    pub accepted: u64,
    /// Complete request frames handed to the service.
    pub frames_in: u64,
    /// Response frames queued for transmission.
    pub frames_out: u64,
    /// Busy substitutions (over-budget replies + connection-cap
    /// rejections).
    pub busy_rejections: u64,
}
