//! Job lists: every request a run sends, built only from the workload
//! name, the seed and the run length, so two runs with the same
//! arguments send byte-identical bodies and the program's counters
//! repeat exactly.
//!
//! Request `i` carries `"id": i`. Kinds cycle in a fixed order, so
//! kind shares are exact for any list whose length is a multiple of
//! [`Workload::granule`]; the seed only moves parameter values.

use carbon_json::Json;
use carbon_runtime::rng::{RngCore, Xoshiro256pp};

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small decks, 90 % repeats of a primed working set: transport,
    /// envelope parsing, key hashing and the cache read path.
    Interactive,
    /// Unique mid-size decks: deck validation, the spice engine and
    /// rendering of large results; every job is solved and inserted.
    Circuit,
    /// Unique Monte-Carlo campaigns on the chunked executor; spice is
    /// never used.
    Campaign,
}

/// What a request asks the server to do, at the granularity the
/// ledger reports (fixed and adaptive transients are told apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// DC operating point.
    Op,
    /// DC sweep.
    DcSweep,
    /// AC sweep.
    AcSweep,
    /// Fixed-step transient.
    TranFixed,
    /// LTE-adaptive transient.
    TranAdaptive,
    /// One wafer-economics cell.
    EconPoint,
    /// A wafer-economics grid.
    EconCampaign,
    /// The §V variability campaign, adaptively sized.
    Fig7,
}

impl Kind {
    /// Every kind, in ledger order.
    pub const ALL: [Kind; 8] = [
        Kind::Op,
        Kind::DcSweep,
        Kind::AcSweep,
        Kind::TranFixed,
        Kind::TranAdaptive,
        Kind::EconPoint,
        Kind::EconCampaign,
        Kind::Fig7,
    ];

    /// Short name, as in span records.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::DcSweep => "dc_sweep",
            Kind::AcSweep => "ac_sweep",
            Kind::TranFixed => "tran_fixed",
            Kind::TranAdaptive => "tran_adaptive",
            Kind::EconPoint => "econ_point",
            Kind::EconCampaign => "econ_campaign",
            Kind::Fig7 => "fig7",
        }
    }

    /// Name of the ledger metric holding this kind's in-process
    /// `Job::run` time.
    pub fn run_metric(self) -> &'static str {
        match self {
            Kind::Op => "spice.op_us",
            Kind::DcSweep => "spice.dc_sweep_us",
            Kind::AcSweep => "spice.ac_sweep_us",
            Kind::TranFixed => "spice.tran_fixed_us",
            Kind::TranAdaptive => "spice.tran_adaptive_us",
            Kind::EconPoint => "econ.point_us",
            Kind::EconCampaign => "econ.campaign_us",
            Kind::Fig7 => "fab.fig7_us",
        }
    }

    /// Monte-Carlo devices one job of this kind samples (0 for
    /// circuit kinds). Fixed by the job bodies below; the fig7 target
    /// is never met before the cap.
    pub fn mc_samples(self) -> u64 {
        match self {
            Kind::EconPoint => ECON_POINT_DEVICES,
            Kind::EconCampaign => ECON_CAMPAIGN_CELLS * ECON_CAMPAIGN_DEVICES,
            Kind::Fig7 => FIG7_MAX_DEVICES,
            _ => 0,
        }
    }
}

/// One request of a job list.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What the request asks for.
    pub kind: Kind,
    /// Whether the `job` field repeats a body of the primed working
    /// set (a cache hit by construction).
    pub repeat: bool,
    /// The rendered request envelope, `{"id":i,"job":{...}}`.
    pub body: String,
}

/// Everything one run sends.
#[derive(Debug, Clone, PartialEq)]
pub struct JobList {
    /// The timed requests; request `i` has id `i`.
    pub requests: Vec<Request>,
    /// Envelopes sent once, untimed, during set-up to prime the cache
    /// with the working set. Empty except on `interactive`.
    pub priming: Vec<String>,
}

impl JobList {
    /// Share of requests that repeat a primed body.
    pub fn repeat_fraction(&self) -> f64 {
        let repeats = self.requests.iter().filter(|r| r.repeat).count();
        repeats as f64 / self.requests.len() as f64
    }
}

/// Bodies in the interactive working set, per kind.
const WORKING_SET_PER_KIND: usize = 16;
/// Of every ten groups of four interactive requests (one per kind),
/// this many are fresh bodies.
const FRESH_GROUPS_PER_TEN: usize = 1;

/// Sections of the `op` diode ladder.
const OP_LADDER: usize = 256;
/// Sections of the `dc_sweep` diode ladder (dense LU: under 16
/// unknowns).
const DC_LADDER: usize = 8;
/// Points of the `dc_sweep` source ramp.
const DC_POINTS: usize = 240;
/// Sections of the `ac_sweep` RC ladder.
const AC_LADDER: usize = 128;
/// Points per decade of the `ac_sweep` grid (over six decades).
const AC_PPD: u64 = 12;
/// Sections of the fixed-step transient RC ladder.
const TRAN_FIXED_LADDER: usize = 32;
/// Steps of the fixed-step transient.
const TRAN_FIXED_STEPS: usize = 200;
/// Sections of the adaptive transient diode ladder.
const TRAN_ADAPTIVE_LADDER: usize = 3;
/// Pulse periods the adaptive transient covers.
const TRAN_ADAPTIVE_PERIODS: usize = 20;

/// Devices per `econ_point` job.
const ECON_POINT_DEVICES: u64 = 4096;
/// Cells of the `econ_campaign` grid: 2 nodes × 2 areas × 2 defect
/// densities × 3 purities.
const ECON_CAMPAIGN_CELLS: u64 = 24;
/// Devices per `econ_campaign` cell.
const ECON_CAMPAIGN_DEVICES: u64 = 256;
/// Device cap of the `fig7` jobs. At this size the CI half-width is
/// about 0.009, far above every target the list asks for.
const FIG7_MAX_DEVICES: u64 = 4096;

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [Workload::Interactive, Workload::Circuit, Workload::Campaign];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Circuit => "circuit",
            Workload::Campaign => "campaign",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second of run length: sized so a run of this many
    /// requests takes about that many seconds on a 2-vCPU host.
    fn jobs_per_second(self) -> usize {
        match self {
            Workload::Interactive => 25_000,
            Workload::Circuit => 1_100,
            Workload::Campaign => 1_000,
        }
    }

    /// List lengths are whole multiples of this, so every kind share
    /// (and the interactive fresh share) is exact.
    pub fn granule(self) -> usize {
        match self {
            Workload::Interactive => 4 * 10,
            Workload::Circuit => 5,
            Workload::Campaign => 3,
        }
    }

    /// Length of the job list for a run of `seconds`.
    pub fn list_len(self, seconds: u64) -> usize {
        let want = self.jobs_per_second() * usize::try_from(seconds.max(1)).unwrap_or(usize::MAX);
        want.div_ceil(self.granule()) * self.granule()
    }

    /// The job list of a run.
    pub fn job_list(self, seed: u64, seconds: u64) -> JobList {
        self.job_list_of_len(seed, self.list_len(seconds))
    }

    /// The job list with an explicit length (rounded up to a whole
    /// granule); tests use short lists.
    pub fn job_list_of_len(self, seed: u64, len: usize) -> JobList {
        let len = len.div_ceil(self.granule()) * self.granule();
        let mut rng = Xoshiro256pp::from_seed_and_stream(seed, self as u64);
        match self {
            Workload::Interactive => interactive(&mut rng, len),
            Workload::Circuit => unique_list(&mut rng, len, &CIRCUIT_KINDS),
            Workload::Campaign => unique_list(&mut rng, len, &CAMPAIGN_KINDS),
        }
    }
}

const INTERACTIVE_KINDS: [Kind; 4] = [Kind::Op, Kind::DcSweep, Kind::AcSweep, Kind::TranFixed];
const CIRCUIT_KINDS: [Kind; 5] = [
    Kind::Op,
    Kind::DcSweep,
    Kind::AcSweep,
    Kind::TranFixed,
    Kind::TranAdaptive,
];
const CAMPAIGN_KINDS: [Kind; 3] = [Kind::EconPoint, Kind::EconCampaign, Kind::Fig7];

/// A uniform draw in `[0, 1)` from the top 53 bits.
fn u01(rng: &mut Xoshiro256pp) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn envelope(id: impl Into<Json>, job: Json) -> String {
    Json::obj().push("id", id).push("job", job).render()
}

/// Interactive: kinds cycle op, dc_sweep, ac_sweep, transient; every
/// tenth group of four is fresh, the rest re-send a working-set body
/// picked by the seed.
fn interactive(rng: &mut Xoshiro256pp, len: usize) -> JobList {
    // Working-set entry `j` of a kind has its own 100 Ω band; fresh
    // bodies sit at 100 kΩ and up, one ohm apart per request, so no
    // fresh body repeats and none equals a working-set body.
    let working: Vec<Vec<Json>> = INTERACTIVE_KINDS
        .iter()
        .map(|&kind| {
            (0..WORKING_SET_PER_KIND)
                .map(|j| small_job(kind, 1000.0 + 100.0 * j as f64 + 50.0 * u01(rng)))
                .collect()
        })
        .collect();
    let priming = working
        .iter()
        .flatten()
        .enumerate()
        .map(|(j, job)| envelope(format!("prime-{j}"), job.clone()))
        .collect();
    let requests = (0..len)
        .map(|i| {
            let slot = i % INTERACTIVE_KINDS.len();
            let kind = INTERACTIVE_KINDS[slot];
            let fresh = (i / INTERACTIVE_KINDS.len()) % 10 < FRESH_GROUPS_PER_TEN;
            let job = if fresh {
                small_job(kind, 100_000.0 + i as f64 + u01(rng))
            } else {
                let pick = (rng.next_u64() % WORKING_SET_PER_KIND as u64) as usize;
                working[slot][pick].clone()
            };
            Request {
                kind,
                repeat: !fresh,
                body: envelope(i, job),
            }
        })
        .collect();
    JobList { requests, priming }
}

/// A 2–3 node interactive deck job; `r` is the varied resistor.
fn small_job(kind: Kind, r: f64) -> Json {
    match kind {
        Kind::Op => Json::obj()
            .push("kind", "op")
            .push(
                "deck",
                format!("* divider\nV1 top 0 2\nR1 top mid {r}\nR2 mid 0 2k\n.end\n"),
            )
            .push("nodes", names(&["mid", "top"])),
        Kind::DcSweep => Json::obj()
            .push("kind", "dc_sweep")
            .push(
                "deck",
                format!("* divider\nV1 top 0 2\nR1 top mid {r}\nR2 mid 0 2k\n.end\n"),
            )
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 2.0)
            .push("step", 0.25)
            .push("nodes", names(&["mid"])),
        Kind::AcSweep => Json::obj()
            .push("kind", "ac_sweep")
            .push(
                "deck",
                format!("* rc filter\nV1 in 0 1\nR1 in out {r}\nC1 out 0 1u\n.end\n"),
            )
            .push("source", "V1")
            .push("fstart", 1.0)
            .push("fstop", 1e5)
            .push("points_per_decade", 4)
            .push("nodes", names(&["out"])),
        Kind::TranFixed => Json::obj()
            .push("kind", "transient")
            .push(
                "deck",
                format!(
                    "* rc filter\nV1 in 0 PULSE(0 1 0 1u 1u 50u 100u)\nR1 in out {r}\n\
                     C1 out 0 10n\n.end\n"
                ),
            )
            .push("tstep", 1e-5)
            .push("tstop", 2e-4)
            .push("nodes", names(&["out"])),
        other => unreachable!("{other:?} is not an interactive kind"),
    }
}

/// Circuit and campaign: kinds cycle through `kinds`; every body is
/// unique because request `i` encodes `i` in one of its values.
fn unique_list(rng: &mut Xoshiro256pp, len: usize, kinds: &[Kind]) -> JobList {
    let requests = (0..len)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            let u = u01(rng);
            Request {
                kind,
                repeat: false,
                body: envelope(i, unique_job(kind, i, u)),
            }
        })
        .collect();
    JobList {
        requests,
        priming: Vec::new(),
    }
}

/// The body of request `i`; `u` in `[0, 1)` varies it with the seed.
fn unique_job(kind: Kind, i: usize, u: f64) -> Json {
    // Tags a value with the request index: distinct `i` always render
    // differently, whatever `u` is.
    let tagged = |base: f64, step: f64| base + (i as f64 + u) * step;
    match kind {
        Kind::Op => Json::obj()
            .push("kind", "op")
            .push(
                "deck",
                diode_ladder(OP_LADDER, tagged(1000.0, 1e-3), "V1 n0 0 5"),
            )
            .push("nodes", names(&["n1", "n128", "n256"])),
        Kind::DcSweep => Json::obj()
            .push("kind", "dc_sweep")
            .push(
                "deck",
                diode_ladder(DC_LADDER, tagged(1000.0, 1e-3), "V1 n0 0 0"),
            )
            .push("source", "V1")
            .push("from", 0.0)
            .push("to", 6.0)
            .push("step", 6.0 / DC_POINTS as f64)
            .push("nodes", names(&["n1", "n4", "n8"])),
        Kind::AcSweep => Json::obj()
            .push("kind", "ac_sweep")
            .push(
                "deck",
                rc_ladder(AC_LADDER, tagged(1000.0, 1e-3), "V1 n0 0 0"),
            )
            .push("source", "V1")
            .push("fstart", 1e3)
            .push("fstop", 1e9)
            .push("points_per_decade", AC_PPD)
            .push("nodes", names(&["n32", "n128"])),
        Kind::TranFixed => Json::obj()
            .push("kind", "transient")
            .push(
                "deck",
                rc_ladder(
                    TRAN_FIXED_LADDER,
                    tagged(1000.0, 1e-3),
                    "V1 n0 0 PULSE(0 1 1n 1n 1n 20n 40n)",
                ),
            )
            .push("tstep", 1e-10)
            .push("tstop", 1e-10 * TRAN_FIXED_STEPS as f64)
            .push("nodes", names(&["n8", "n32"])),
        Kind::TranAdaptive => Json::obj()
            .push("kind", "transient")
            .push("method", "adaptive")
            .push(
                "deck",
                diode_ladder(
                    TRAN_ADAPTIVE_LADDER,
                    tagged(1000.0, 1e-3),
                    "V1 n0 0 PULSE(0 5 1n 1n 1n 20n 40n)",
                ),
            )
            .push("tstep", 1e-10)
            .push("tstop", 40e-9 * TRAN_ADAPTIVE_PERIODS as f64)
            .push("nodes", names(&["n1", "n3"])),
        Kind::EconPoint => Json::obj()
            .push("kind", "econ_point")
            .push("node", "cnt28")
            .push("area_cm2", 1.0)
            .push("d0", 0.2)
            .push("purity", 0.999)
            .push("devices", ECON_POINT_DEVICES)
            .push("seed", seed_of(i, u)),
        Kind::EconCampaign => Json::obj()
            .push("kind", "econ_campaign")
            .push("nodes", names(&["cnt90", "cnt28"]))
            .push("areas_cm2", floats(&[0.5, 1.0]))
            .push("d0", floats(&[0.1, 0.3]))
            .push("purities", floats(&[0.95, 0.99, 0.999]))
            .push("yield_model", "negative_binomial")
            .push("alpha", 2.0)
            .push("devices", ECON_CAMPAIGN_DEVICES)
            .push("seed", seed_of(i, u)),
        Kind::Fig7 => Json::obj()
            .push("kind", "fig7")
            .push("target_ci", tagged(0.001, 1e-9))
            .push("max_devices", FIG7_MAX_DEVICES),
    }
}

/// A Monte-Carlo seed unique to request `i` and varied by the run
/// seed through `u`.
fn seed_of(i: usize, u: f64) -> u64 {
    (((u * f64::from(1u32 << 30)) as u64) << 32) | i as u64
}

/// `sections` series resistors, each loaded by a diode to ground. The
/// first resistor carries the request's tagged value.
fn diode_ladder(sections: usize, r0: f64, source: &str) -> String {
    let mut deck = format!("* diode ladder\n{source}\nR0 n0 n1 {r0}\nD0 n1 0 is=1e-14\n");
    for k in 1..sections {
        deck.push_str(&format!(
            "R{k} n{k} n{} 1k\nD{k} n{} 0 is=1e-14\n",
            k + 1,
            k + 1
        ));
    }
    deck.push_str(".end\n");
    deck
}

/// `sections` series resistors, each loaded by a capacitor to ground.
/// The first resistor carries the request's tagged value.
fn rc_ladder(sections: usize, r0: f64, source: &str) -> String {
    let mut deck = format!("* rc ladder\n{source}\nR0 n0 n1 {r0}\nC0 n1 0 1p\n");
    for k in 1..sections {
        deck.push_str(&format!("R{k} n{k} n{} 1k\nC{k} n{} 0 1p\n", k + 1, k + 1));
    }
    deck.push_str(".end\n");
    deck
}

fn names(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|&s| Json::from(s)).collect())
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}
