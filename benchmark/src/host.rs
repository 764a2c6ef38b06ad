//! What the host gives the program: peak memory, a frozen calibration
//! kernel, and the two numbers of a measured roofline.

use std::hint::black_box;
use std::time::Instant;

/// `VmHWM` of this process in MiB, or 0 when `/proc` is unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The frozen calibration kernel: a fixed mix of integer hashing and `f32`
/// arithmetic over a 16 KiB buffer that stays in L1. It never changes, so
/// its time measures the host, not the repository. Returns milliseconds.
pub fn calibration_ms() -> f64 {
    const WORDS: usize = 4096;
    const ROUNDS: usize = 96;
    let mut buf = [0u32; WORDS];
    for (i, w) in buf.iter_mut().enumerate() {
        *w = (i as u32).wrapping_mul(0x9e37_79b9);
    }
    let start = Instant::now();
    let mut acc = 0.0f32;
    for round in 0..ROUNDS {
        for w in buf.iter_mut() {
            let x = (*w ^ (*w >> 15)).wrapping_mul(0x2c1b_3c6d).wrapping_add(round as u32);
            *w = x ^ (x >> 12);
            acc = acc * 0.999 + (x >> 8) as f32 * 1e-9;
        }
    }
    black_box((acc, buf[WORDS - 1]));
    start.elapsed().as_secs_f64() * 1e3
}

/// Size of the largest cache level the kernel reports for CPU 0, in bytes.
pub fn last_level_cache_bytes() -> Option<u64> {
    (0..8)
        .filter_map(|idx| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                _ => return None,
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
}

/// Measured sustainable memory bandwidth, STREAM triad over `f32` arrays.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub gb_per_s: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    /// The last-level cache the arrays are sized against.
    pub llc_bytes: u64,
}

/// Each array is four times the last-level cache, but no more than this: a
/// shared host reports its whole L3 (260 MiB where this was written), of
/// which one tenant holds a fraction.
pub const MAX_TRIAD_ARRAY_BYTES: u64 = 192 << 20;

/// STREAM triad over three arrays of four times the last-level cache each,
/// capped at `max_array_bytes`.
pub fn stream_triad(max_array_bytes: u64) -> Triad {
    let llc_bytes = last_level_cache_bytes().unwrap_or(8 << 20);
    let array_bytes = (4 * llc_bytes).min(max_array_bytes);
    let len = (array_bytes / 4) as usize;
    let b = vec![1.5f32; len];
    let c = vec![0.25f32; len];
    let mut a = vec![0.0f32; len];
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let scalar = 1.0 + pass as f32;
        let start = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + scalar * c;
        }
        black_box(&mut a);
        // the first pass pays the page faults of `a`
        if pass > 0 {
            best = best.min(start.elapsed().as_secs_f64());
        }
    }
    Triad { gb_per_s: 3.0 * array_bytes as f64 / best / 1e9, array_bytes, llc_bytes }
}

/// Peak `f32` multiply-add rate of this build on one core, in GFLOP/s:
/// independent multiply-add chains over registers, as wide as the compiler
/// vectorises them for the target the repository is built for.
pub fn fma_peak_gflops() -> f64 {
    const LANES: usize = 64;
    const STEPS: usize = 100_000;
    let mut acc = [0.5f32; LANES];
    let mul = black_box([0.999_9f32; LANES]);
    let add = black_box([1e-4f32; LANES]);
    let mut best = f64::INFINITY;
    for _ in 0..9 {
        let start = Instant::now();
        for _ in 0..STEPS {
            for k in 0..LANES {
                acc[k] = acc[k] * mul[k] + add[k];
            }
        }
        black_box(&mut acc);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (2 * LANES * STEPS) as f64 / best / 1e9
}
