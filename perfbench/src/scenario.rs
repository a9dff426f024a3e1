//! Inputs for the two emulation workloads, generated from the workload
//! seed. The program under test only ever sees the generated trace and
//! mail workload.

use std::path::Path;

use dtn::PolicyKind;
use pfr::SyncMode;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace, SpooledTrace};

/// Run size: `Full` is the benchmark proper; `Tiny` is the smoke-test
/// size, small enough that every workload finishes in about a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Derives an independent sub-seed for one generator from the workload
/// seed (SplitMix64 finalizer over seed and stream tag).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fleet-wide replay settings shared by the engine run and the
/// benchmark's own replay replayer.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    pub policy: PolicyKind,
    pub sync_mode: SyncMode,
    pub relay_limit: Option<usize>,
    pub assignment_seed: u64,
}

/// Where an emulation's encounters come from.
pub enum TraceInput {
    Memory(EncounterTrace),
    Spooled(SpooledTrace),
}

/// One emulation workload's generated inputs.
pub struct EmuInputs {
    pub trace: TraceInput,
    pub mail: EmailWorkload,
    pub fleet: usize,
}

/// `paper-routing-digest`: the paper's 34-bus, 17-day DieselNet schedule
/// with the 490-message e-mail workload.
pub fn paper_inputs(seed: u64, size: Size) -> EmuInputs {
    let base = match size {
        Size::Full => DieselNetConfig::default(),
        Size::Tiny => DieselNetConfig {
            days: 2,
            ..DieselNetConfig::small()
        },
    };
    let trace = DieselNetConfig {
        seed: sub_seed(seed, 1),
        ..base
    };
    let mail = match size {
        Size::Full => EmailConfig::default(),
        Size::Tiny => EmailConfig::small(),
    };
    EmuInputs {
        trace: TraceInput::Memory(trace.generate()),
        mail: EmailConfig {
            seed: sub_seed(seed, 2),
            ..mail
        }
        .generate(),
        fleet: trace.fleet_size,
    }
}

/// City scale factor and replay length of `city-spill`.
const CITY_SCALE: usize = 10;
const CITY_DAYS: u64 = 6;

/// `city-spill`: `DieselNetConfig::city(10)` over six days (340
/// vehicles), spooled to `spool_path`, with the matching city mail load.
pub fn city_inputs(seed: u64, size: Size, spool_path: &Path) -> EmuInputs {
    let (scale, days) = match size {
        Size::Full => (CITY_SCALE, CITY_DAYS),
        Size::Tiny => (2, 2),
    };
    let trace = DieselNetConfig {
        days,
        seed: sub_seed(seed, 1),
        ..DieselNetConfig::city(scale)
    };
    let spooled = trace
        .generate_spooled(spool_path)
        .expect("write the city trace spool");
    EmuInputs {
        trace: TraceInput::Spooled(spooled),
        mail: EmailConfig {
            injection_days: days.min(8),
            seed: sub_seed(seed, 2),
            ..EmailConfig::city(scale)
        }
        .generate(),
        fleet: trace.fleet_size,
    }
}
