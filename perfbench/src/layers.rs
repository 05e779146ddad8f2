//! Isolated layer timings: the benchmark calls each layer's public
//! function directly, single-threaded, over the same inputs the
//! pipeline sees, and times the call from outside, in wall time and in
//! the calling thread's CPU time.

use crate::common::{thread_cpu_ns, Digest, DigestSink};
use etw_anonymize::scheme::{AnonRecord, PaperScheme};
use etw_core::pipeline::{TailConfig, TimedFrame};
use etw_core::wirepath::{Recovered, WireDecoder};
use etw_edonkey::decoder::{DecodeOutcome, Decoder};
use etw_edonkey::ids::ClientId;
use etw_edonkey::messages::Message;
use etw_xmlout::encode::encode_batch;
use etw_xmlout::writer::DatasetWriter;
use std::time::Instant;

/// Records per formatter batch: the pipeline's default, so the isolated
/// format and write layers see the batch shape that ships.
pub fn batch_records() -> usize {
    TailConfig::default().batch_records
}

/// The decode layer over a frame sequence.
pub struct Decoded {
    /// Wall time of `WireDecoder::push` + `Decoder::push` over every frame.
    pub ns: u64,
    /// CPU time of the same calls.
    pub cpu_ns: u64,
    /// Frames pushed.
    pub frames: u64,
    /// Complete UDP datagrams recovered.
    pub datagrams: u64,
    /// Datagrams that decoded into a message.
    pub ok: u64,
    /// The decoded messages with their envelopes, in capture order.
    pub messages: Vec<(u64, ClientId, Message)>,
}

/// Decodes `frames` with one wire decoder and one eDonkey decoder, the
/// way a single pipeline worker does.
pub fn decode(frames: &[TimedFrame]) -> Decoded {
    let mut wire = WireDecoder::new();
    let mut decoder = Decoder::new();
    let mut messages = Vec::with_capacity(frames.len() / 2);
    let mut datagrams = 0u64;
    let cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    for f in frames {
        if let Recovered::Udp { peer, payload, .. } = wire.push(f.ts, &f.bytes) {
            datagrams += 1;
            if let DecodeOutcome::Ok(msg) = decoder.push(&payload) {
                messages.push((f.ts.0, peer, msg));
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = thread_cpu_ns() - cpu0;
    Decoded {
        ns,
        cpu_ns,
        frames: frames.len() as u64,
        datagrams,
        ok: messages.len() as u64,
        messages,
    }
}

/// The anonymise layer over decoded messages.
pub struct Anonymized {
    /// Wall time of the `anonymize_batch` calls.
    pub ns: u64,
    /// CPU time of the same calls.
    pub cpu_ns: u64,
    /// The records, one `Vec` per formatter batch.
    pub batches: Vec<Vec<AnonRecord>>,
    /// The scheme with its accumulated state.
    pub scheme: PaperScheme,
}

/// Anonymises `messages` in pipeline-sized batches with a fresh
/// `PaperScheme::paper(width_bits)`.
pub fn anonymize(messages: &[(u64, ClientId, Message)], width_bits: u32) -> Anonymized {
    let mut scheme = PaperScheme::paper(width_bits);
    let mut batches = Vec::with_capacity(messages.len() / batch_records() + 1);
    let (mut ns, mut cpu_ns) = (0u64, 0u64);
    for chunk in messages.chunks(batch_records()) {
        let mut out = Vec::with_capacity(chunk.len());
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        scheme.anonymize_batch(chunk.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out);
        ns += t0.elapsed().as_nanos() as u64;
        cpu_ns += thread_cpu_ns() - cpu0;
        batches.push(out);
    }
    Anonymized {
        ns,
        cpu_ns,
        batches,
        scheme,
    }
}

/// The format and write layers over record batches.
pub struct Written {
    /// Wall time of the `encode_batch` calls.
    pub format_ns: u64,
    /// Wall time of the `write_encoded` calls.
    pub write_ns: u64,
    /// CPU time of the `encode_batch` calls.
    pub format_cpu_ns: u64,
    /// CPU time of the `write_encoded` calls.
    pub write_cpu_ns: u64,
    /// Records written.
    pub records: u64,
    /// Encoded record bytes (the document minus header and trailer).
    pub body_bytes: u64,
    /// Digest of the whole document.
    pub digest: Digest,
}

/// Encodes each batch into one recycled buffer and writes it through a
/// digest sink, timing the two calls separately.
pub fn format_and_write<'a>(batches: impl IntoIterator<Item = &'a [AnonRecord]>) -> Written {
    let mut writer = DatasetWriter::new(DigestSink::new()).expect("digest sink never fails");
    let mut buf: Vec<u8> = Vec::with_capacity(batch_records() * 160);
    let (mut format_ns, mut write_ns, mut records, mut body_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut format_cpu_ns, mut write_cpu_ns) = (0u64, 0u64);
    for batch in batches {
        buf.clear();
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        encode_batch(&mut buf, batch);
        let t1 = Instant::now();
        let cpu1 = thread_cpu_ns();
        writer
            .write_encoded(&buf, batch.len() as u64)
            .expect("digest sink never fails");
        write_ns += t1.elapsed().as_nanos() as u64;
        write_cpu_ns += thread_cpu_ns() - cpu1;
        format_ns += (t1 - t0).as_nanos() as u64;
        format_cpu_ns += cpu1 - cpu0;
        records += batch.len() as u64;
        body_bytes += buf.len() as u64;
    }
    let digest = writer.finish().expect("digest sink never fails").digest();
    Written {
        format_ns,
        write_ns,
        format_cpu_ns,
        write_cpu_ns,
        records,
        body_bytes,
        digest,
    }
}
