//! Guest-image golden.
//!
//! Every experiment spawns the programs `WorkloadSpec::build` makes, and
//! every run is validated against the checksum it computes alongside.
//! This test pins both for each application × {accelerated, software}
//! at a small point and at the size of perfbench's `hw_contended` cells:
//! one line per case in `scripts/golden/guest_images.txt` with the
//! program's origin, word count, FNV-1a-64 of its words (little-endian
//! bytes), FNV-1a-64 of its sorted `(symbol, address)` pairs, and the
//! expected checksum. A change to how images are built must leave every
//! line as it is.
//!
//! On a mismatch the actual file is written to the test's
//! `CARGO_TARGET_TMPDIR` for diffing.

use std::fmt::Write as _;
use std::path::PathBuf;

use proteus_apps::{AppKind, WorkloadConfig, WorkloadSpec};

/// `(size, passes)` per application at perfbench's `hw_contended`
/// scale.
const HW_CONTENDED: [(AppKind, usize, u32); 3] =
    [(AppKind::Alpha, 1024, 257), (AppKind::Echo, 2048, 135), (AppKind::Twofish, 64, 1446)];
/// The guest data seed perfbench's `--seed 7` derives.
const HW_CONTENDED_SEED: u32 = 0x63CB_E1E4;

/// `(size, passes, seed)` of the small point.
const SMALL: (usize, u32, u32) = (16, 3, 11);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn line(out: &mut String, config: WorkloadConfig) {
    let spec = WorkloadSpec::build(config);
    let program = spec.program();
    let mut words = Fnv::new();
    for w in program.words() {
        words.bytes(&w.to_le_bytes());
    }
    let mut symbols: Vec<(&String, &u32)> = program.symbols().iter().collect();
    symbols.sort();
    let mut syms = Fnv::new();
    for (name, addr) in symbols {
        syms.bytes(name.as_bytes());
        syms.bytes(&[0]);
        syms.bytes(&addr.to_le_bytes());
    }
    let _ = writeln!(
        out,
        "{} {} size={} passes={} seed=0x{:08X} origin=0x{:08X} words={} words_fnv=0x{:016X} \
         symbols_fnv=0x{:016X} checksum=0x{:08X}",
        config.kind.name(),
        if config.accelerated { "accelerated" } else { "software" },
        config.size,
        config.passes,
        config.seed,
        program.origin(),
        program.words().len(),
        words.0,
        syms.0,
        spec.expected_checksum(),
    );
}

#[test]
fn guest_images_match_golden() {
    let mut rendered = String::new();
    for (kind, size, passes) in HW_CONTENDED {
        for (size, passes, seed) in [SMALL, (size, passes, HW_CONTENDED_SEED)] {
            for accelerated in [true, false] {
                let mut config = WorkloadConfig::new(kind, size, passes);
                config.seed = seed;
                if !accelerated {
                    config = config.software();
                }
                line(&mut rendered, config);
            }
        }
    }
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/golden/guest_images.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if golden != rendered {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("guest_images.txt");
        std::fs::write(&actual, &rendered).expect("write actual guest images");
        panic!(
            "guest images differ from {}; actual written to {}",
            golden_path.display(),
            actual.display()
        );
    }
}
