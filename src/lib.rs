//! # leaplist-repro — facade for the Leap-List (PODC 2013) reproduction
//!
//! Re-exports the workspace crates so downstream users can depend on one
//! package:
//!
//! * [`leaplist`] — the Leap-List itself (four synchronization variants).
//! * [`stm`] — the word-based STM substrate (`leap-stm`).
//! * [`ebr`] — epoch-based reclamation (`leap-ebr`).
//! * [`skiplist`] — the evaluation's skip-list baselines (`leap-skiplist`).
//! * [`store`] — LeapStore, the sharded range-store service layer
//!   (`leap-store`).
//! * [`memdb`] — the in-memory table store with Leap-List indexes
//!   (`leap-memdb`).
//! * [`mod@bench`] — workload generator and figure harness (`leap-bench`).
//!
//! See the repository README for the architecture overview.
//!
//! ```
//! use leaplist_repro::leaplist::{LeapListLt, Params};
//! let l: LeapListLt<u64> = LeapListLt::new(Params::default());
//! l.update(1, 2);
//! assert_eq!(l.range_query(0, 10), vec![(1, 2)]);
//! ```

pub use leap_bench as bench;
pub use leap_ebr as ebr;
pub use leap_memdb as memdb;
pub use leap_skiplist as skiplist;
pub use leap_stm as stm;
pub use leap_store as store;
pub use leaplist;
