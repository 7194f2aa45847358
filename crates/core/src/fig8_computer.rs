//! §V — the one-bit CNT computer, end to end.
//!
//! The chain the paper's §V implies, executed in one experiment:
//!
//! 1. build a complementary inverter from the **ballistic CNT-FET**
//!    compact model (tabulated for speed) and verify it regenerates;
//! 2. measure the CNT technology's stage delay with a SPICE **ring
//!    oscillator**;
//! 3. run the **SUBNEG one-bit computer** (counting and sorting — the
//!    programs the Shulaker machine demonstrated) with instruction
//!    timing grounded in that stage delay;
//! 4. fold in the §V statistics: computer yield versus semiconducting
//!    purity, for the 178-CNFET Shulaker design.

use std::sync::Arc;

use carbon_devices::{BallisticFet, TableFet};
use carbon_logic::computer::{counting_program, sorting_program, Halt, SubnegComputer};
use carbon_logic::{Inverter, RingOscillator};
use carbon_runtime::Xoshiro256pp;
use carbon_units::{Capacitance, Time, Voltage};

use carbon_fab::{CircuitYield, SelfAssembly, VariabilityModel, VmrProcess, WaferModel};

use crate::error::CoreError;
use crate::table::{num, Table};

/// Results of the CNT-computer experiment.
#[derive(Debug, Clone)]
pub struct Fig8Computer {
    /// Peak inverter gain of the CNT technology at V_DD = 0.5 V.
    pub inverter_gain: f64,
    /// Ring-oscillator stage delay, s.
    pub stage_delay_s: f64,
    /// Counting program: instructions executed and runtime, s.
    pub counting: (u64, f64),
    /// Sorting program result `(min, max)` for the (9, 3) input.
    pub sorted: (i64, i64),
    /// Yield rows: (semiconducting purity, device yield, computer yield).
    pub yield_vs_purity: Vec<(f64, f64, f64)>,
    /// VMR rescue: computer yield at 99 % purity before and after the
    /// metallic burn-off step.
    pub vmr_rescue: (f64, f64),
    /// Expected working computers on a Shulaker-run wafer.
    pub wafer_expected: f64,
    /// ASCII wafer map of one sampled run.
    pub wafer_map: String,
}

/// Runs the CNT-computer experiment.
///
/// # Errors
///
/// Propagates device, circuit, and logic failures.
pub fn run() -> Result<Fig8Computer, CoreError> {
    let vdd = 0.5;
    let nfet_live = BallisticFet::cnt_fig1()?;
    let pfet_live = {
        let band =
            carbon_band::CntBand::from_bandgap(carbon_units::Energy::from_electron_volts(0.56))
                .map_err(|e| CoreError::Device(e.to_string()))?;
        BallisticFet::builder(Arc::new(band))
            .threshold_voltage(0.3)
            .p_type()
            .width(carbon_units::Length::from_nanometers(1.5))
            .build()
            .map_err(|e| CoreError::Device(e.to_string()))?
    };
    // Tabulate for transient speed; windows cover rail excursions.
    let win = 0.2;
    let nfet = Arc::new(
        TableFet::sample(&nfet_live, (-win, vdd + win), (-win, vdd + win), 49, 49)
            .map_err(|e| CoreError::Device(e.to_string()))?,
    );
    let pfet = Arc::new(
        TableFet::sample(&pfet_live, (-vdd - win, win), (-vdd - win, win), 49, 49)
            .map_err(|e| CoreError::Device(e.to_string()))?,
    );

    let inverter = Inverter::new(nfet.clone(), pfet.clone(), Voltage::from_volts(vdd))?;
    let inverter_gain = inverter.vtc(101)?.max_abs_gain();

    let ring = RingOscillator::new(
        nfet,
        pfet,
        3,
        Voltage::from_volts(vdd),
        Capacitance::from_femtofarads(1.0),
    )?;
    let osc = ring.oscillation(Time::from_nanoseconds(4.0))?;
    let stage_delay_s = osc.stage_delay.seconds();

    // Counting: the Shulaker demo program.
    let (prog, mem) = counting_program(7);
    let mut cpu = SubnegComputer::new(prog, mem, 8, osc.stage_delay)?;
    let (halt, stats) = cpu.run(10_000)?;
    if halt != Halt::ProgramEnd || cpu.memory()[1] != -1 {
        return Err(CoreError::Extract(format!(
            "counting program misbehaved: halt {halt:?}, counter {}",
            cpu.memory()[1]
        )));
    }
    let counting = (stats.instructions, stats.execution_time.seconds());

    // Sorting (9, 3).
    let (prog, mem) = sorting_program(9, 3);
    let mut cpu = SubnegComputer::new(prog, mem, 8, osc.stage_delay)?;
    let (halt, _) = cpu.run(10_000)?;
    if halt != Halt::ProgramEnd {
        return Err(CoreError::Extract(format!(
            "sorting program halt: {halt:?}"
        )));
    }
    let sorted = (cpu.memory()[2], cpu.memory()[3]);

    // Yield vs purity for the 178-CNFET design, device yield from the
    // placement+purity Monte-Carlo.
    let mut yield_vs_purity = Vec::new();
    for purity in [0.99, 0.999, 0.9999, 0.99999] {
        let model = VariabilityModel::new(
            SelfAssembly::park_high_density(),
            purity,
            0.35,
            0.07,
            10e-6,
            0.4,
        )
        .map_err(|e| CoreError::Device(e.to_string()))?;
        let pop = model.sample_population(&mut Xoshiro256pp::seed_from_u64(99), 20_000);
        // Empty sites are screened out at test time (as in the Shulaker
        // flow); what kills a shipped circuit is the metallic-short
        // fraction among *occupied* sites.
        let occupied = 1.0 - pop.empty_fraction();
        let device_yield = if occupied > 0.0 {
            pop.functional_yield() / occupied
        } else {
            0.0
        };
        let cy = CircuitYield::new(device_yield).map_err(|e| CoreError::Device(e.to_string()))?;
        yield_vs_purity.push((
            purity,
            device_yield,
            cy.all_of(CircuitYield::SHULAKER_COMPUTER_CNFETS),
        ));
    }
    // VMR rescue at 99 % ink: §V's imperfection-immune trick.
    let vmr = VmrProcess::shulaker();
    let out = vmr.simulate(
        &mut Xoshiro256pp::seed_from_u64(7),
        &SelfAssembly::park_high_density(),
        0.99,
        20_000,
    );
    let n_dev = CircuitYield::SHULAKER_COMPUTER_CNFETS;
    let occupied = 1.0 - 0.1; // Poisson empties are screened out
    let before = CircuitYield::new((out.functional_before / occupied).min(1.0))
        .map_err(|e| CoreError::Device(e.to_string()))?
        .all_of(n_dev);
    let after = CircuitYield::new((out.functional_after / occupied).min(1.0))
        .map_err(|e| CoreError::Device(e.to_string()))?
        .all_of(n_dev);

    // A full wafer of one-bit computers.
    let wafer = WaferModel::shulaker_run();
    let wafer_expected = wafer.expected_good_dies();
    let wafer_map = wafer
        .sample(&mut Xoshiro256pp::seed_from_u64(2013))
        .to_string();

    Ok(Fig8Computer {
        inverter_gain,
        stage_delay_s,
        counting,
        sorted,
        yield_vs_purity,
        vmr_rescue: (before, after),
        wafer_expected,
        wafer_map,
    })
}

impl std::fmt::Display for Fig8Computer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "§V — one-bit SUBNEG CNT computer (stage delay from SPICE ring oscillator)",
            &["metric", "value"],
        );
        t.push_owned_row(vec![
            "CNT inverter peak gain (V_DD = 0.5 V)".into(),
            num(self.inverter_gain, 1),
        ]);
        t.push_owned_row(vec![
            "ring-oscillator stage delay".into(),
            format!("{:.1} ps", self.stage_delay_s * 1e12),
        ]);
        t.push_owned_row(vec![
            "counting(7): instructions".into(),
            format!("{}", self.counting.0),
        ]);
        t.push_owned_row(vec![
            "counting(7): runtime".into(),
            format!("{:.2} ns", self.counting.1 * 1e9),
        ]);
        t.push_owned_row(vec![
            "sorting(9, 3) → (min, max)".into(),
            format!("({}, {})", self.sorted.0, self.sorted.1),
        ]);
        writeln!(f, "{t}")?;
        let mut y = Table::new(
            "§V — computer yield vs semiconducting purity (178 CNFETs, Park-style placement)",
            &["purity", "device yield", "computer yield"],
        );
        for (p, dy, cy) in &self.yield_vs_purity {
            y.push_owned_row(vec![
                format!("{:.3} %", p * 100.0),
                format!("{:.2} %", dy * 100.0),
                format!("{:.2e}", cy),
            ]);
        }
        writeln!(f, "{y}")?;
        writeln!(
            f,
            "VMR (metallic burn-off) rescue at 99 % ink: computer yield {:.2e} → {:.2}",
            self.vmr_rescue.0, self.vmr_rescue.1
        )?;
        writeln!(
            f,
            "\nShulaker-run wafer map ({:.0} working computers expected; # = works, · = fails):\n{}",
            self.wafer_expected, self.wafer_map
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnt_technology_regenerates_and_rings() {
        let fig = run().unwrap();
        assert!(fig.inverter_gain > 1.5, "gain {}", fig.inverter_gain);
        let ps = fig.stage_delay_s * 1e12;
        assert!((1.0..2000.0).contains(&ps), "stage delay {ps} ps");
    }

    #[test]
    fn programs_execute_correctly() {
        let fig = run().unwrap();
        assert_eq!(fig.sorted, (3, 9));
        assert_eq!(fig.counting.0, 15, "2·7 + 1 instructions");
        assert!(fig.counting.1 > 0.0);
    }

    #[test]
    fn yield_collapses_without_purity() {
        let fig = run().unwrap();
        let first = fig.yield_vs_purity.first().unwrap();
        let last = fig.yield_vs_purity.last().unwrap();
        assert!(first.0 < last.0);
        assert!(
            last.2 > 10.0 * first.2,
            "purity buys computer yield: {:.2e} → {:.2e}",
            first.2,
            last.2
        );
        // The `verify` claim: at five-nines purity the computer yields.
        assert!(
            last.2 > 0.9,
            "computer yield at purity {}: {:.2}",
            last.0,
            last.2
        );
    }

    #[test]
    fn vmr_rescues_the_computer() {
        let fig = run().unwrap();
        let (before, after) = fig.vmr_rescue;
        assert!(after > 10.0 * before, "VMR: {before:.2e} → {after:.2e}");
        assert!(after > 0.3, "rescued to a usable yield: {after}");
    }

    #[test]
    fn wafer_holds_several_computers() {
        let fig = run().unwrap();
        assert!(fig.wafer_expected > 5.0, "{} expected", fig.wafer_expected);
        assert!(fig.wafer_map.contains('#'));
    }

    #[test]
    fn report_renders() {
        let s = run().unwrap().to_string();
        assert!(s.contains("SUBNEG"));
        assert!(s.contains("computer yield"));
        assert!(s.contains("wafer map"));
    }
}
