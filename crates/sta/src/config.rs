//! The fingerprinted timing-stage configuration.
//!
//! [`TimingConfig`] is plain data that rides inside
//! `t1map::flow::FlowConfig`: enabling the timing stage makes `run_flow`
//! attach a schedule-slack summary to its result, and the fingerprint keeps
//! `sfq-engine` cache keys sound — two jobs that differ only in their
//! timing stage hash to different content addresses.

use std::hash::Hasher;

/// Configuration of the flow's timing-analysis stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Master switch; a disabled stage costs nothing and reports nothing.
    pub enabled: bool,
}

impl TimingConfig {
    /// The disabled stage (flow default).
    pub fn disabled() -> Self {
        TimingConfig { enabled: false }
    }

    /// The standard enabled stage.
    pub fn standard() -> Self {
        TimingConfig { enabled: true }
    }

    /// Canonical encoding of the configuration into `h` (versioned, fixed
    /// field order) — the `sfq-engine` cache-key contribution.
    pub fn fingerprint(&self, h: &mut impl Hasher) {
        h.write_u8(1); // encoding version
        h.write_u8(self.enabled as u8);
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal FNV-1a so the test does not pull `sfq_netlist` in.
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }

    fn fp(cfg: &TimingConfig) -> u64 {
        let mut h = Fnv(0xcbf29ce484222325);
        cfg.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        assert_ne!(fp(&TimingConfig::disabled()), fp(&TimingConfig::standard()));
        assert_eq!(fp(&TimingConfig::standard()), fp(&TimingConfig::standard()));
    }
}
