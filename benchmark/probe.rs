//! Host-speed normalization.
//!
//! On a shared host, neighbours' memory traffic slows the simulator by up
//! to half for tens of seconds at a time, which moves every wall-clock
//! figure more than any bound could tolerate. The probe is a fixed,
//! memory-bound computation owned by this benchmark (so no change to the
//! program can speed it up), run on both cores at once like the pipeline's
//! pools. It runs after every closed-loop operation, and each operation's
//! host times are scaled by `REFERENCE_PROBE_MS / probe`, the probe taken
//! as the running median of its neighbours. The results read as host time
//! on a host where the probe takes [`REFERENCE_PROBE_MS`]; the raw
//! wall-clock figures are printed beside them.

use std::time::Instant;

use crate::stats::median;

/// Probe time, in ms, of the reference host the normalized figures are
/// expressed on: about what the probe takes on a quiet 2-vCPU Xeon VM.
pub const REFERENCE_PROBE_MS: f64 = 3.0;

/// Operations on each side whose probes the running median spans.
const WINDOW: usize = 3;

/// Random read-modify-writes per thread per probe.
const PROBE_OPS: u32 = 500_000;

/// 4 MiB of `u64`s per thread: twice a core's L2, so the probe, like the
/// simulator, works out of the shared cache and memory.
const PROBE_WORDS: usize = 1 << 19;

/// The probe's buffers, one per thread.
pub struct HostProbe {
    bufs: [Vec<u64>; 2],
}

/// Random read-modify-writes over `buf` along a fixed xorshift64 stream.
fn churn(buf: &mut [u64], seed: u64) {
    let mask = buf.len() - 1;
    let mut x = seed;
    for _ in 0..PROBE_OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        buf[i] = buf[i].wrapping_add(x);
    }
    std::hint::black_box(buf);
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe { bufs: [vec![1; PROBE_WORDS], vec![1; PROBE_WORDS]] }
    }

    /// Times one probe: both threads' passes, in ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let [a, b] = &mut self.bufs;
        std::thread::scope(|s| {
            s.spawn(|| churn(a, 0x9e37_79b9_7f4a_7c15));
            churn(b, 0x2545_f491_4f6c_dd1d);
        });
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The factor that turns each operation's host time into reference-host
/// time: `REFERENCE_PROBE_MS` over the running median of the probes within
/// [`WINDOW`] operations of it.
pub fn scales(probes: &[f64]) -> Vec<f64> {
    (0..probes.len())
        .map(|i| {
            let window = &probes[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(probes.len())];
            REFERENCE_PROBE_MS / median(window).expect("a window holds its own probe")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_follow_the_running_median() {
        // One outlier probe among reference-speed ones leaves every scale at
        // 1; a lasting slowdown to twice the reference halves the scales it
        // covers.
        let r = REFERENCE_PROBE_MS;
        let probes = [r, r, 4.0 * r, r, r, 2.0 * r, 2.0 * r, 2.0 * r, 2.0 * r, 2.0 * r];
        let s = scales(&probes);
        assert_eq!(&s[..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(s[9], 0.5);
        assert_eq!(scales(&[r / 2.0]), vec![2.0]);
        assert!(scales(&[]).is_empty());
    }

    #[test]
    fn probe_takes_measurable_time() {
        let mut p = HostProbe::new();
        assert!(p.sample() > 0.0);
    }
}
