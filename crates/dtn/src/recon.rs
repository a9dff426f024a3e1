//! Digest-mode sync support: routing-state delta envelopes.
//!
//! In [`pfr::SyncMode::Digest`] encounters, knowledge vectors are already
//! compressed by the reconciliation layer ([`pfr::digest`]). The other
//! recurring payload in every sync request is the *routing state* — a
//! PROPHET predictability vector or a MaxProp meeting table — which
//! changes only incrementally between consecutive meetings of the same
//! pair. This module delta-encodes that payload against the last copy
//! exchanged with the peer, and transparently restores the raw bytes
//! before the routing policy sees them.
//!
//! The envelope is strictly an optimization: any decode failure (lost
//! cache after a restart, corrupt bytes) degrades to "no routing data
//! this round" — the same contract policies already honour for peers
//! running a different protocol — and the encounter driver clears the
//! sender's cache so the next exchange carries the full payload again.

use std::borrow::Cow;
use std::collections::BTreeMap;

use pfr::sync::{HostContext, SendDecision, SyncRequest};
use pfr::wire::{varint_len, Reader, Writer};
use pfr::{Item, ItemId, ReplicaId, RoutingState, SyncExtension};

/// Envelope format version.
const ENVELOPE_VERSION: u8 = 1;
/// The payload follows verbatim.
const KIND_FULL: u8 = 0;
/// The payload is a prefix/suffix diff against the last exchanged copy.
const KIND_DELTA: u8 = 1;

/// FNV-1a over the payload; guards the delta base and the reconstruction.
fn sum64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bytes [`Writer::put_bytes`] writes for a `len`-byte slice.
fn bytes_len(len: usize) -> usize {
    varint_len(len as u64) + len
}

/// Encodes `raw` (whose [`sum64`] is `raw_sum`) for the wire, as a
/// prefix/suffix delta against `last_sent` (the payload last sent and its
/// sum) when that is actually smaller, else verbatim. Both forms are sized
/// first; only the smaller one is built.
pub(crate) fn encode_envelope(
    last_sent: Option<(&[u8], u64)>,
    raw: &[u8],
    raw_sum: u64,
) -> Vec<u8> {
    // Version and kind bytes, then the length-prefixed payload.
    let full_len = 2 + bytes_len(raw.len());
    let delta = last_sent.and_then(|(base, base_sum)| {
        let prefix = base
            .iter()
            .zip(raw.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let suffix = base[prefix..]
            .iter()
            .rev()
            .zip(raw[prefix..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let middle = &raw[prefix..raw.len() - suffix];
        // Version and kind bytes, both sums, the two cut points and the
        // length-prefixed middle.
        let len = 2
            + 16
            + varint_len(prefix as u64)
            + varint_len(suffix as u64)
            + bytes_len(middle.len());
        (len < full_len).then_some((base_sum, prefix, suffix, middle))
    });
    let mut w = Writer::new();
    w.put_u8(ENVELOPE_VERSION);
    match delta {
        Some((base_sum, prefix, suffix, middle)) => {
            w.put_u8(KIND_DELTA);
            w.put_u64(base_sum);
            w.put_u64(raw_sum);
            w.put_varint(prefix as u64);
            w.put_varint(suffix as u64);
            w.put_bytes(middle);
        }
        None => {
            w.put_u8(KIND_FULL);
            w.put_bytes(raw);
        }
    }
    w.into_bytes()
}

/// Decodes an envelope produced by [`encode_envelope`], resolving deltas
/// against `last_received` (the payload last decoded and its sum).
/// Returns the payload with its sum; `None` means the payload cannot be
/// recovered this round (unknown version, checksum mismatch, missing
/// base).
pub(crate) fn decode_envelope(
    last_received: Option<(&[u8], u64)>,
    bytes: &[u8],
) -> Option<(Vec<u8>, u64)> {
    let mut r = Reader::new(bytes);
    if r.get_u8().ok()? != ENVELOPE_VERSION {
        return None;
    }
    match r.get_u8().ok()? {
        KIND_FULL => {
            let raw = r.get_bytes().ok()?.to_vec();
            let sum = sum64(&raw);
            Some((raw, sum))
        }
        KIND_DELTA => {
            let base_sum = r.get_u64().ok()?;
            let full_sum = r.get_u64().ok()?;
            let prefix = r.get_varint().ok()? as usize;
            let suffix = r.get_varint().ok()? as usize;
            let middle = r.get_bytes().ok()?;
            let (base, cached_sum) = last_received?;
            if cached_sum != base_sum || prefix.checked_add(suffix)? > base.len() {
                return None;
            }
            let mut raw = Vec::with_capacity(prefix + middle.len() + suffix);
            raw.extend_from_slice(&base[..prefix]);
            raw.extend_from_slice(middle);
            raw.extend_from_slice(&base[base.len() - suffix..]);
            (sum64(&raw) == full_sum).then_some((raw, full_sum))
        }
        _ => None,
    }
}

/// The per-peer routing-envelope caches: the raw payload last sent to
/// (`tx`) and last decoded from (`rx`) the peer, each with its
/// [`sum64`]. Purely in-memory — never snapshotted; a restart simply
/// costs one full-size routing payload per peer.
#[derive(Debug, Default)]
pub(crate) struct PeerLink {
    pub(crate) tx: Option<(Vec<u8>, u64)>,
    pub(crate) rx: Option<(Vec<u8>, u64)>,
}

/// A cached payload as the envelope codec takes it.
fn cached(entry: &Option<(Vec<u8>, u64)>) -> Option<(&[u8], u64)> {
    entry.as_ref().map(|(bytes, sum)| (bytes.as_slice(), *sum))
}

/// All of a node's digest-mode state that lives outside [`pfr`]: one
/// [`PeerLink`] per peer (the reconciliation snapshots themselves are in
/// the node's [`pfr::ReconState`]).
#[derive(Debug, Default)]
pub(crate) struct RoutingLinks {
    links: BTreeMap<ReplicaId, PeerLink>,
}

impl RoutingLinks {
    pub(crate) fn link(&mut self, peer: ReplicaId) -> &mut PeerLink {
        self.links.entry(peer).or_default()
    }

    /// Forgets the payload last sent to `peer`, forcing the next envelope
    /// to carry the full routing state (the peer reported a decode miss).
    pub(crate) fn reset_tx(&mut self, peer: ReplicaId) {
        if let Some(link) = self.links.get_mut(&peer) {
            link.tx = None;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.links.clear();
    }
}

/// Wraps a routing policy for one digest-mode sync with one peer:
/// envelopes the routing state this side generates, and unwraps the
/// peer's envelope before the inner policy reads it. Every other hook
/// passes straight through.
pub(crate) struct DigestExt<'a> {
    inner: &'a mut dyn SyncExtension,
    link: &'a mut PeerLink,
    /// Set when the peer's routing envelope could not be decoded; the
    /// encounter driver clears the peer's `tx` cache in response.
    pub(crate) decode_failed: bool,
}

impl<'a> DigestExt<'a> {
    pub(crate) fn new(inner: &'a mut dyn SyncExtension, link: &'a mut PeerLink) -> Self {
        DigestExt {
            inner,
            link,
            decode_failed: false,
        }
    }
}

impl SyncExtension for DigestExt<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn generate_request(&mut self, cx: &mut HostContext<'_>) -> RoutingState {
        let raw = self.inner.generate_request(cx);
        if raw.as_bytes().is_empty() {
            // Stateless policies (epidemic, spray, direct) pay nothing.
            return raw;
        }
        let raw = raw.into_bytes();
        let sum = sum64(&raw);
        let enveloped = encode_envelope(cached(&self.link.tx), &raw, sum);
        self.link.tx = Some((raw, sum));
        RoutingState::from_bytes(enveloped)
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        if request.routing.as_bytes().is_empty() {
            self.inner.process_request(cx, request);
            return;
        }
        let (routing, sum) =
            match decode_envelope(cached(&self.link.rx), request.routing.as_bytes()) {
                Some((raw, sum)) => (RoutingState::from_bytes(raw), Some(sum)),
                None => {
                    // Unrecoverable this round: surface "no routing data"
                    // to the policy and flag the driver to resynchronize.
                    self.decode_failed = true;
                    (RoutingState::empty(), None)
                }
            };
        let unwrapped = SyncRequest {
            target: request.target,
            knowledge: Cow::Borrowed(request.knowledge.as_ref()),
            filter: Cow::Borrowed(request.filter.as_ref()),
            routing,
        };
        self.inner.process_request(cx, &unwrapped);
        // The decoded payload becomes the next delta base.
        self.link.rx = sum.map(|sum| (unwrapped.routing.into_bytes(), sum));
    }

    fn to_send(
        &mut self,
        cx: &mut HostContext<'_>,
        item_id: ItemId,
        request: &SyncRequest<'_>,
    ) -> SendDecision {
        // Policies read routing state in process_request, never here, so
        // the enveloped request passes through untranslated.
        self.inner.to_send(cx, item_id, request)
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        self.inner
            .prepare_outgoing(cx, item, target, matched_filter);
    }

    fn on_delivered(&mut self, cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        self.inner.on_delivered(cx, delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The envelope encoder as first written — builds both forms and keeps
    /// the smaller — kept as the byte-identity oracle for
    /// [`encode_envelope`].
    fn oracle_encode(last_sent: Option<&[u8]>, raw: &[u8]) -> Vec<u8> {
        let mut full = Writer::new();
        full.put_u8(ENVELOPE_VERSION);
        full.put_u8(KIND_FULL);
        full.put_bytes(raw);
        let full = full.into_bytes();

        let Some(base) = last_sent else {
            return full;
        };
        let prefix = base
            .iter()
            .zip(raw.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let suffix = base[prefix..]
            .iter()
            .rev()
            .zip(raw[prefix..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let mut delta = Writer::new();
        delta.put_u8(ENVELOPE_VERSION);
        delta.put_u8(KIND_DELTA);
        delta.put_u64(sum64(base));
        delta.put_u64(sum64(raw));
        delta.put_varint(prefix as u64);
        delta.put_varint(suffix as u64);
        delta.put_bytes(&raw[prefix..raw.len() - suffix]);
        let delta = delta.into_bytes();
        if delta.len() < full.len() {
            delta
        } else {
            full
        }
    }

    fn encode(last_sent: Option<&[u8]>, raw: &[u8]) -> Vec<u8> {
        encode_envelope(last_sent.map(|b| (b, sum64(b))), raw, sum64(raw))
    }

    fn decode(last_received: Option<&[u8]>, bytes: &[u8]) -> Option<Vec<u8>> {
        decode_envelope(last_received.map(|b| (b, sum64(b))), bytes).map(|(raw, sum)| {
            assert_eq!(sum, sum64(&raw), "decoded sum must be the payload's");
            raw
        })
    }

    #[test]
    fn full_envelope_roundtrips() {
        let raw = b"routing-bytes".to_vec();
        let enc = encode(None, &raw);
        assert_eq!(decode(None, &enc), Some(raw));
    }

    #[test]
    fn identical_payload_deltas_to_a_few_bytes() {
        let raw: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let enc = encode(Some(&raw), &raw);
        assert!(
            enc.len() < 25,
            "unchanged payload should collapse, got {} bytes",
            enc.len()
        );
        assert_eq!(decode(Some(&raw), &enc), Some(raw));
    }

    #[test]
    fn small_edit_produces_small_delta() {
        let base: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        let mut raw = base.clone();
        raw[100] = 0xff;
        let enc = encode(Some(&base), &raw);
        assert!(enc.len() < 30, "one-byte edit, got {} bytes", enc.len());
        assert_eq!(decode(Some(&base), &enc), Some(raw));
    }

    #[test]
    fn divergent_payload_falls_back_to_full() {
        let base: Vec<u8> = vec![1; 50];
        let raw: Vec<u8> = vec![2; 50];
        let enc = encode(Some(&base), &raw);
        // Nothing shared: the full form must win the size comparison.
        assert_eq!(decode(None, &enc), Some(raw));
    }

    #[test]
    fn delta_against_wrong_base_is_rejected() {
        let base: Vec<u8> = (0..100).collect();
        let mut raw = base.clone();
        raw[10] = 0xee;
        let enc = encode(Some(&base), &raw);
        let wrong: Vec<u8> = (100..200).collect();
        assert_eq!(decode(Some(&wrong), &enc), None);
        assert_eq!(decode(None, &enc), None);
    }

    #[test]
    fn corrupt_envelopes_never_panic() {
        let base: Vec<u8> = (0..100).collect();
        let enc = encode(Some(&base), &base);
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x41;
            // Any outcome but a panic is acceptable; a wrong Some would
            // need a 64-bit checksum collision.
            let _ = decode(Some(&base), &bad);
        }
        assert_eq!(decode(Some(&base), &[]), None);
        assert_eq!(decode(Some(&base), &[9, 9, 9]), None);
    }

    #[test]
    fn shared_prefix_and_suffix_both_collapse() {
        let mut base = vec![7u8; 300];
        let mut raw = base.clone();
        raw[150] = 1;
        base[150] = 2;
        let enc = encode(Some(&base), &raw);
        assert!(enc.len() < 30, "mid-edit delta, got {} bytes", enc.len());
        assert_eq!(decode(Some(&base), &enc), Some(raw));
    }

    /// A `(base, raw)` pair shaped by `edit`: empty, identical, disjoint,
    /// a prefix-only or suffix-only rewrite, a mid-edit, or unrelated.
    fn edited(base: &[u8], edit: u8, at: usize, fill: &[u8]) -> Vec<u8> {
        let at = at % (base.len() + 1);
        match edit {
            0 => Vec::new(),
            1 => base.to_vec(),
            2 => base.iter().map(|b| !b).collect(),
            3 => fill.iter().chain(&base[at..]).copied().collect(),
            4 => base[..at].iter().chain(fill).copied().collect(),
            5 => {
                let end = (at + fill.len()).min(base.len());
                let mut raw = base[..at].to_vec();
                raw.extend_from_slice(fill);
                raw.extend_from_slice(&base[end..]);
                raw
            }
            _ => fill.to_vec(),
        }
    }

    proptest! {
        /// The sized-first encoder emits exactly the oracle's bytes, and
        /// the cached-sum decoder recovers the payload from them.
        #[test]
        fn envelope_matches_oracle_and_roundtrips(
            base in proptest::collection::vec(any::<u8>(), 0..400),
            edit in 0u8..7,
            at in 0usize..400,
            fill in proptest::collection::vec(any::<u8>(), 0..160),
            with_base in any::<bool>(),
        ) {
            let raw = edited(&base, edit, at, &fill);
            let last = with_base.then_some(base.as_slice());
            let enc = encode(last, &raw);
            prop_assert_eq!(&enc, &oracle_encode(last, &raw));
            prop_assert_eq!(decode(last, &enc), Some(raw.clone()));
            // A base-free envelope never depends on the receiver's cache.
            if !with_base {
                prop_assert_eq!(decode(Some(&fill), &enc), Some(raw));
            }
        }

        /// Deltas never resolve against the wrong base or from damaged
        /// bytes: every field after the kind byte is covered by the
        /// payload sum. Nothing panics, whatever the damage.
        #[test]
        fn damaged_deltas_are_rejected(
            base in proptest::collection::vec(any::<u8>(), 1..400),
            edit in 1u8..6,
            at in 0usize..400,
            fill in proptest::collection::vec(any::<u8>(), 0..40),
            wrong in proptest::collection::vec(any::<u8>(), 0..400),
            flip in 1u8..=255,
        ) {
            let raw = edited(&base, edit, at, &fill);
            let enc = encode(Some(&base), &raw);
            for i in 0..enc.len() {
                let mut bad = enc.clone();
                bad[i] ^= flip;
                let decoded = decode(Some(&base), &bad);
                if enc[1] == KIND_DELTA && i != 1 {
                    prop_assert_eq!(decoded, None);
                }
            }
            if enc[1] == KIND_DELTA {
                if wrong != base {
                    prop_assert_eq!(decode(Some(&wrong), &enc), None);
                }
                prop_assert_eq!(decode(None, &enc), None);
            }
        }
    }
}
