//! Synthetic traffic patterns and offered-load bookkeeping.
//!
//! Implements the four destination distributions of the paper's evaluation
//! (uniform, bit-reversal, hotspot, local) and the unit conversions between
//! the paper's load metric (flits/ns/switch) and the simulator's per-host
//! message interarrival times.

mod load;
mod pattern;

pub use load::{interarrival_cycles, CYCLE_NS};
pub use pattern::{random_hotspots, Pattern, PatternSpec};
