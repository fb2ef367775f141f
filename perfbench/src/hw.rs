//! Process memory and the hardware ceilings measured in the same run.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Resident set size of this process in MiB (`VmRSS`), or 0 when the
/// kernel does not report it.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set size of this process so far in MiB (`VmHWM`), or 0
/// when the kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Caps glibc at one malloc arena. By default glibc gives a thread that
/// meets another in the allocator an arena of its own, and a freed block
/// stays in the arena it came from, so the server threads each keep
/// freed page buffers the others cannot reuse. The resident set then holds
/// freed memory by an amount that changes from run to run. With one
/// arena, a block freed by one thread serves the next allocation of any
/// thread, and `peak_rss_mib` follows live memory. The benchmark's threads
/// seldom allocate at the same moment, so the shared arena's lock costs
/// little. Does nothing with another C library.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        const M_ARENA_MAX: c_int = -8;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` only changes an allocator setting; it is called
        // once, first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Samples the resident set size every few milliseconds from `start` to
/// `stop`, so the peak covers one phase of the run only (fixtures and
/// oracles built before it do not count).
#[derive(Debug)]
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<f64>,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = rss_mib();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_mib());
            }
            peak.max(rss_mib())
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling and returns the peak in MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("rss sampler panicked")
    }
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Size of the last-level cache in bytes, read from sysfs (the highest
/// cache level of cpu0), or `None` when sysfs does not say.
pub fn llc_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for index in 0..8 {
        let dir = base.join(format!("index{index}"));
        let Ok(level) = std::fs::read_to_string(dir.join("level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(dir.join("size")) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1u64 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// Result of the STREAM-style triad.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triad {
    /// Best sustained rate over the passes, in GB/s (10^9 bytes), counting
    /// two reads and one write per element.
    pub gbps: f64,
    /// Total size of the three arrays in MiB.
    pub arrays_mib: f64,
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over three arrays totalling
/// `total_bytes`, split across every hardware thread; best of `passes`.
/// Size the arrays well beyond the last-level cache so the rate is DRAM's.
pub fn triad(total_bytes: usize, passes: usize) -> Triad {
    let len = total_bytes / 3 / std::mem::size_of::<f64>();
    let threads = hardware_threads();
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let scale = 3.0 + pass as f64;
        let start = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + scale * z;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    let bytes = 3.0 * (len * std::mem::size_of::<f64>()) as f64;
    Triad {
        gbps: bytes / best / 1e9,
        arrays_mib: bytes / MIB,
    }
}

/// Sequential `pread` rate of a whole file in GB/s, with 8 MiB reads. On a
/// file the OS has cached this is the OS-cache copy rate, not the device's.
pub fn pread_gbps(path: &Path) -> std::io::Result<f64> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut buffer = vec![0u8; 8 << 20];
    let start = Instant::now();
    let mut offset = 0u64;
    while offset < len {
        let n = file.read_at(&mut buffer, offset)?;
        if n == 0 {
            break;
        }
        offset += n as u64;
    }
    Ok(offset as f64 / start.elapsed().as_secs_f64() / 1e9)
}
