//! Pooled frames — re-exported from `daiet-fabric`, where they moved so
//! the real-time UDP backend and the simulator share one buffer economy.
//! See `daiet_fabric::frame` for the ownership model (a `Frame` never
//! crosses a thread; the socket edge serializes to bytes and re-pools).

pub use daiet_fabric::frame::{Frame, FramePool, PoolStats};
