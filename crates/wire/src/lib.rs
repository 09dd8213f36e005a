//! # magma-wire — wire-format codecs for the access-network protocols
//!
//! Byte-level encoders/decoders for the protocols Magma terminates at its
//! edges:
//!
//! - [`nas`]: UE ↔ core mobility management (attach/auth/detach)
//! - [`s1ap`]: eNodeB ↔ MME (4G access)
//! - [`gtp`]: GTP-U user-plane encapsulation and GTP-C session control
//! - [`radius`]: WiFi AAA
//! - [`diameter`]: S6a federation with an external HSS
//! - [`aka`]: EPS-AKA authentication vectors (Milenage-style, toy cipher)
//! - [`cursor`]: bounds-checked reads/writes for hand-written state codecs
//!
//! All codecs are real byte-level implementations with strict decoding
//! (truncation and bad values rejected), exercised by round-trip property
//! tests in `tests/proptest_roundtrip.rs`.

pub mod aka;
pub mod cursor;
pub mod diameter;
pub mod error;
pub mod gtp;
pub mod ids;
pub mod nas;
pub mod radius;
pub mod s1ap;

pub use error::WireError;
pub use ids::{BearerId, Guti, Imsi, Teid, UeIp};
