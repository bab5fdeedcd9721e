//! The Splash-4 workload kernels, ported to Rust and generic over the
//! synchronization back-end.
//!
//! Each kernel module exposes a `Config` (with [`InputClass`] presets), a
//! `run(&Config, &SyncEnv) -> KernelResult` entry point and an oracle or
//! invariant check, run after the ROI, that validates the result. The *same*
//! kernel code runs as Splash-3 or Splash-4 depending on the
//! [`SyncEnv`](splash4_parmacs::SyncEnv) policy — see the `splash4-parmacs`
//! crate documentation for the construct-by-construct mapping.

#![warn(missing_docs)]

pub mod common;
pub mod dynpool;
pub mod inputs;
pub mod workload;

pub mod barnes;
pub mod cholesky;
pub mod cmap;
pub mod fft;
pub mod fmm;
pub mod lu;
pub mod ocean;
pub mod radiosity;
pub mod radix;
pub mod raytrace;
pub mod stream;
pub mod volrend;
pub mod water_nsq;
pub mod water_sp;

pub use common::{close, KernelResult, SharedAccum, SharedSlice};
pub use dynpool::{dynamic_steal_pool, dynamic_task_queue, seeded_task_pool};
pub use inputs::InputClass;
pub use workload::{suite, Workload};
