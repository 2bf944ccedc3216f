//! Streaming maintenance and the distributed release protocol.
//!
//! Theorem 3, item 4: the SJLT sketch of a data stream can be updated in
//! `O(s)` per turnstile update — [`streaming::StreamingSketch`] maintains
//! the noiseless projection incrementally and adds calibrated noise only
//! at release time (the stream contents stay inside the party's trust
//! boundary until then).
//!
//! §1/§2's distributed setting — several parties, shared *public*
//! projection, private noise — is [`distributed`]: parties exchange
//! serialized [`dp_core::NoisySketch`] values and anyone can estimate any
//! pairwise distance from the released objects alone. The protocol is
//! mechanism-agnostic: the shared [`dp_core::SketcherSpec`] names the
//! construction, and every release path goes through the
//! [`dp_core::PrivateSketcher`] trait, so the SJLT, FJLT, and baseline
//! constructions all run the identical multi-party code.

pub mod distributed;
pub mod knn;
pub mod streaming;

pub use distributed::{
    nearest_neighbor, parse_release, parse_release_bytes, Party, PublicParams, Release,
};
pub use streaming::{AnyStreamingTransform, StreamingSketch, StreamingSketcher};
