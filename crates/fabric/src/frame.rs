//! Pooled, reference-counted frame buffers — the currency of the hot path.
//!
//! Without a pool every frame that crosses the simulator is a fresh heap
//! allocation. At paper scale the fig3 shuffle moves hundreds of
//! thousands of frames, so the allocator dominated the profile. [`FramePool`] breaks that cycle: a frame's
//! backing `Vec<u8>` is borrowed from a free list, wrapped in a
//! reference-counted [`Frame`], and returned to the free list when the
//! last reference drops.
//!
//! # Ownership model
//!
//! * **Who allocates:** whoever builds a frame asks a pool for a cleared
//!   [`FramePool::buffer`], writes the wire bytes, and seals it with
//!   [`FramePool::frame`]. Only a cold pool touches the global allocator.
//! * **Who holds:** a [`Frame`] is an immutable, cheaply clonable view
//!   (one `Rc` bump per clone — switch retransmit rings, link
//!   duplication and switch floods all share one buffer).
//! * **Who recycles:** nobody, explicitly. When the last `Frame` clone
//!   drops, the buffer slides back into the free list of the pool that
//!   created it. A frame may outlive its pool; the buffer is then simply
//!   freed.
//!
//! Frames are single-threaded by design, which is what lets the pool use
//! `Rc`/`RefCell` instead of atomics: a `Frame` (or its `Rc` count)
//! **never crosses a thread**. The simulator runs one event loop on one
//! thread with one pool. The real-time UDP backend keeps the rule at the
//! socket edge: a frame's bytes are copied onto the wire on send, and
//! every received datagram is re-pooled from the receiving driver's own
//! pool — a `Frame` never crosses a process or thread.
//!
//! ```
//! use daiet_fabric::{Frame, FramePool};
//!
//! let pool = FramePool::new();
//! let mut buf = pool.buffer();          // cleared, possibly recycled
//! buf.extend_from_slice(b"hello");
//! let frame = pool.frame(buf);          // seal into an immutable Frame
//! let copy = frame.clone();             // refcount bump, no allocation
//! assert_eq!(&frame[..], b"hello");
//!
//! drop(frame);
//! drop(copy);                           // last ref: buffer returns home
//! assert_eq!(pool.stats().returned, 1);
//!
//! let reused = pool.buffer();           // same allocation, back again
//! assert!(reused.is_empty() && reused.capacity() >= 5);
//! assert_eq!(pool.stats().reused, 1);
//! ```

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

/// Default cap on buffers parked in a pool's free list. Beyond this,
/// returned buffers are simply freed — a backstop against pathological
/// workloads hoarding memory, far above any steady-state frame count the
/// figure workloads reach.
const DEFAULT_MAX_FREE: usize = 16 * 1024;

/// Counters describing a pool's behaviour (see [`FramePool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out that had to be freshly allocated.
    pub fresh: u64,
    /// Buffers handed out from the free list (allocator bypassed).
    pub reused: u64,
    /// Buffers returned to the free list by dropped frames.
    pub returned: u64,
}

struct PoolShared {
    free: RefCell<Vec<Vec<u8>>>,
    /// Free-list capacity; 0 disables recycling entirely.
    max_free: usize,
    fresh: Cell<u64>,
    reused: Cell<u64>,
    returned: Cell<u64>,
}

impl PoolShared {
    fn give_back(&self, mut buf: Vec<u8>) {
        let mut free = self.free.borrow_mut();
        if free.len() < self.max_free && buf.capacity() > 0 {
            buf.clear();
            free.push(buf);
            self.returned.set(self.returned.get() + 1);
        }
    }
}

/// A recycling arena of frame buffers. Cloning the pool clones a handle
/// to the same free list, so a pool can be shared between the simulator
/// and the nodes that build frames ahead of time.
#[derive(Clone)]
pub struct FramePool {
    shared: Rc<PoolShared>,
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::new()
    }
}

impl FramePool {
    /// A pool with the default free-list cap.
    pub fn new() -> FramePool {
        FramePool::with_max_free(DEFAULT_MAX_FREE)
    }

    /// A pool whose free list holds at most `max_free` buffers.
    pub fn with_max_free(max_free: usize) -> FramePool {
        FramePool {
            shared: Rc::new(PoolShared {
                free: RefCell::new(Vec::new()),
                max_free,
                fresh: Cell::new(0),
                reused: Cell::new(0),
                returned: Cell::new(0),
            }),
        }
    }

    /// A pool that never recycles: every [`buffer`](Self::buffer) is a
    /// fresh allocation and dropped frames free their memory. Used to
    /// cross-check that pooling does not change simulation results.
    pub fn disabled() -> FramePool {
        FramePool::with_max_free(0)
    }

    /// True when this pool recycles buffers.
    pub fn is_recycling(&self) -> bool {
        self.shared.max_free > 0
    }

    /// Hands out a cleared buffer — recycled if one is parked, freshly
    /// allocated otherwise. Write the frame bytes into it, then seal it
    /// with [`FramePool::frame`].
    pub fn buffer(&self) -> Vec<u8> {
        match self.shared.free.borrow_mut().pop() {
            Some(buf) => {
                self.shared.reused.set(self.shared.reused.get() + 1);
                debug_assert!(buf.is_empty());
                buf
            }
            None => {
                self.shared.fresh.set(self.shared.fresh.get() + 1);
                Vec::new()
            }
        }
    }

    /// Seals `buf` into an immutable [`Frame`] whose backing storage
    /// returns to this pool when the last clone drops.
    pub fn frame(&self, buf: Vec<u8>) -> Frame {
        Frame {
            inner: Rc::new(FrameInner { buf, pool: Rc::downgrade(&self.shared) }),
        }
    }

    /// Builds a pooled frame holding a copy of `bytes`.
    pub fn copy_from_slice(&self, bytes: &[u8]) -> Frame {
        let mut buf = self.buffer();
        buf.extend_from_slice(bytes);
        self.frame(buf)
    }

    /// Allocation and recycling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.shared.fresh.get(),
            reused: self.shared.reused.get(),
            returned: self.shared.returned.get(),
        }
    }

    /// Buffers currently parked in the free list.
    pub fn free_buffers(&self) -> usize {
        self.shared.free.borrow().len()
    }
}

impl core::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FramePool")
            .field("free", &self.free_buffers())
            .field("max_free", &self.shared.max_free)
            .field("stats", &self.stats())
            .finish()
    }
}

struct FrameInner {
    buf: Vec<u8>,
    /// Weak so a frame can outlive its pool (the buffer is then freed
    /// normally instead of recycled).
    pool: Weak<PoolShared>,
}

impl Drop for FrameInner {
    fn drop(&mut self) {
        if let Some(shared) = self.pool.upgrade() {
            shared.give_back(std::mem::take(&mut self.buf));
        }
    }
}

/// An immutable, reference-counted network frame.
///
/// `Frame` is the payload type of every [`crate::Node::on_packet`]
/// delivery and every [`crate::Fabric::send`]. Cloning is one refcount
/// bump; the bytes are shared, never copied. Frames built through a
/// [`FramePool`] recycle their storage on drop; frames built with
/// [`Frame::from`] a `Vec<u8>` (or [`Frame::from_slice`]) own plain heap
/// memory — convenient in tests, identical in behaviour.
#[derive(Clone)]
pub struct Frame {
    inner: Rc<FrameInner>,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Frame {
        Frame::from(Vec::new())
    }

    /// A frame holding a copy of `bytes`, not attached to any pool.
    pub fn from_slice(bytes: &[u8]) -> Frame {
        Frame::from(bytes.to_vec())
    }

    /// Number of bytes in the frame.
    pub fn len(&self) -> usize {
        self.inner.buf.len()
    }

    /// True when the frame has no bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.buf.len() == 0
    }

    /// Number of live clones of this frame (diagnostics and tests).
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.inner)
    }

    /// Mutable access to the backing buffer, only when this is the sole
    /// reference (used by link fault injection to corrupt a frame in
    /// place instead of copying).
    pub fn try_mut(&mut self) -> Option<&mut Vec<u8>> {
        Rc::get_mut(&mut self.inner).map(|inner| &mut inner.buf)
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::new()
    }
}

impl From<Vec<u8>> for Frame {
    fn from(buf: Vec<u8>) -> Frame {
        Frame {
            inner: Rc::new(FrameInner { buf, pool: Weak::new() }),
        }
    }
}

impl core::ops::Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner.buf
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.inner.buf
    }
}

impl core::borrow::Borrow<[u8]> for Frame {
    fn borrow(&self) -> &[u8] {
        &self.inner.buf
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self.inner.buf == other.inner.buf
    }
}

impl Eq for Frame {}

impl core::fmt::Debug for Frame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Frame({} B, {} refs)", self.len(), self.ref_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = FramePool::new();
        let mut buf = pool.buffer();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        let frame = pool.frame(buf);
        assert_eq!(&frame[..], &[1, 2, 3]);
        assert_eq!(pool.stats().fresh, 1);
        drop(frame);
        assert_eq!(pool.stats().returned, 1);
        let again = pool.buffer();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "recycled buffer keeps capacity");
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn clones_share_and_defer_recycling() {
        let pool = FramePool::new();
        let frame = pool.copy_from_slice(b"shared");
        let clone = frame.clone();
        assert_eq!(frame.ref_count(), 2);
        drop(frame);
        // Still alive through the clone: nothing returned yet.
        assert_eq!(pool.stats().returned, 0);
        assert_eq!(&clone[..], b"shared");
        drop(clone);
        assert_eq!(pool.stats().returned, 1);
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let pool = FramePool::disabled();
        assert!(!pool.is_recycling());
        drop(pool.copy_from_slice(b"x"));
        assert_eq!(pool.stats().returned, 0);
        assert_eq!(pool.free_buffers(), 0);
        let b = pool.buffer();
        assert_eq!(pool.stats().fresh, 2);
        drop(b);
    }

    #[test]
    fn frame_outliving_pool_is_freed_not_recycled() {
        let pool = FramePool::new();
        let frame = pool.copy_from_slice(b"orphan");
        drop(pool);
        assert_eq!(&frame[..], b"orphan"); // buffer still valid
        drop(frame); // must not panic; Weak upgrade fails, Vec is freed
    }

    #[test]
    fn try_mut_respects_sharing() {
        let pool = FramePool::new();
        let mut frame = pool.copy_from_slice(b"abc");
        let clone = frame.clone();
        assert!(frame.try_mut().is_none(), "shared frame must not be mutable");
        drop(clone);
        frame.try_mut().unwrap()[0] = b'x';
        assert_eq!(&frame[..], b"xbc");
    }

    #[test]
    fn unpooled_frames_behave() {
        let f = Frame::from(vec![9u8; 4]);
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
        assert_eq!(f, Frame::from_slice(&[9, 9, 9, 9]));
        assert!(Frame::new().is_empty());
        assert_eq!(format!("{f:?}"), "Frame(4 B, 1 refs)");
    }

    #[test]
    fn free_list_cap_is_enforced() {
        let pool = FramePool::with_max_free(1);
        let a = pool.copy_from_slice(b"a");
        let b = pool.copy_from_slice(b"b");
        drop(a);
        drop(b);
        assert_eq!(pool.free_buffers(), 1, "second return exceeds cap");
    }
}
