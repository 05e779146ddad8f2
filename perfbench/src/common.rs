//! Measurement plumbing shared by the workloads: the dataset digest
//! sink, process clocks and memory, and small statistics helpers.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Bytes `DatasetWriter::new` writes before the first record (the XML
/// declaration and the opening `<capture>` tag).
pub fn header_len() -> u64 {
    etw_xmlout::writer::DatasetWriter::new(Vec::new())
        .map(|w| w.bytes_written())
        .unwrap_or(0)
}

/// When the first dataset byte past the header reached the sink.
#[derive(Debug, Default)]
pub struct FirstOutput {
    arm_after: AtomicU64,
    at: OnceLock<Instant>,
}

impl FirstOutput {
    /// A probe that fires once more than `header` bytes have arrived.
    pub fn after(header: u64) -> Arc<FirstOutput> {
        Arc::new(FirstOutput {
            arm_after: AtomicU64::new(header),
            at: OnceLock::new(),
        })
    }

    /// The instant of the first record byte, if one arrived.
    pub fn at(&self) -> Option<Instant> {
        self.at.get().copied()
    }
}

/// The dataset sink every workload writes through: an in-memory FNV-1a
/// digest of the exact byte stream (no disk, so the write layer measures
/// the program rather than the filesystem) plus a first-output probe.
pub struct DigestSink {
    hash: u64,
    bytes: u64,
    first: Option<Arc<FirstOutput>>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl DigestSink {
    /// A sink with no first-output probe.
    pub fn new() -> DigestSink {
        DigestSink {
            hash: FNV_OFFSET,
            bytes: 0,
            first: None,
        }
    }

    /// A sink that stamps `probe` when the first record byte arrives.
    pub fn probed(probe: Arc<FirstOutput>) -> DigestSink {
        DigestSink {
            first: Some(probe),
            ..DigestSink::new()
        }
    }

    /// The digest of everything written so far.
    pub fn digest(&self) -> Digest {
        Digest {
            fnv: self.hash,
            bytes: self.bytes,
        }
    }
}

impl Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut h = self.hash;
        for &b in buf {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
        self.bytes += buf.len() as u64;
        if let Some(p) = &self.first {
            if self.bytes > p.arm_after.load(Ordering::Relaxed) && p.at.get().is_none() {
                let _ = p.at.set(Instant::now());
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A dataset's identity: FNV-1a 64 of its bytes and its length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a 64 over the whole document.
    pub fnv: u64,
    /// Document length in bytes.
    pub bytes: u64,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/{}B", self.fnv, self.bytes)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX: reads clock `clock_id` into `tp`.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux clock IDs for [`clock_gettime`].
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; clock_gettime only
    // writes into it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) this process has used, all threads
/// included (also those that have exited), in ns.
pub fn cpu_time_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Wall and CPU time of one call, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Elapsed wall time.
    pub wall_ns: u64,
    /// Process CPU time consumed meanwhile (all threads).
    pub cpu_ns: u64,
}

/// Runs `f`, returning its result with the wall and CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = cpu_time_ns();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = cpu_time_ns().saturating_sub(cpu0);
    (out, Cost { wall_ns, cpu_ns })
}

/// The pipeline's own accounting identities over one run's statistics,
/// given the frames the benchmark fed it. Empty when every count
/// conserves.
pub fn pipeline_conservation(
    what: &str,
    stats: &etw_core::pipeline::PipelineStats,
    frames_in: u64,
) -> Vec<String> {
    let d = &stats.decoder;
    let r = &stats.reassembly;
    let mut out = Vec::new();
    let mut expect = |ok: bool, msg: String| {
        if !ok {
            out.push(format!("{what}: {msg}"));
        }
    };
    expect(
        stats.frames == frames_in,
        format!("pipeline saw {} frames, {} fed", stats.frames, frames_in),
    );
    expect(
        stats.frames == stats.shed + stats.parse_errors + stats.not_udp + r.whole + r.fragments,
        format!("frames do not split into shed/parse/not-udp/ip: {stats:?}"),
    );
    expect(
        stats.udp_datagrams == d.handled,
        format!(
            "{} datagrams but {} reached the decoder",
            stats.udp_datagrams, d.handled
        ),
    );
    expect(
        d.handled == d.decoded + d.structurally_invalid + d.decode_failed + d.not_edonkey,
        format!("decoder outcomes do not add up: {d:?}"),
    );
    expect(
        stats.records == d.decoded,
        format!(
            "{} records from {} decoded messages",
            stats.records, d.decoded
        ),
    );
    expect(
        stats.records == stats.to_server + stats.from_server,
        format!(
            "{} records but {} to-server + {} from-server",
            stats.records, stats.to_server, stats.from_server
        ),
    );
    out
}

extern "C" {
    /// glibc: returns free heap memory to the system and consolidates the
    /// free lists.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the previous repetition's freed heap to the system, so each
/// repetition starts from the same allocator state instead of paying
/// for consolidating its predecessor's garbage inside the timed call.
pub fn settle_heap() {
    // SAFETY: malloc_trim only walks and releases the allocator's own
    // free lists; it has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between.
pub fn reset_peak_rss() {
    // Writing 5 to the process's own clear_refs resets VmHWM (Linux 4.0+).
    // If the kernel refuses, the mark keeps the process-wide peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
