//! The §II RF argument as a runnable program: small-signal figures of
//! merit of a saturating CNT-FET versus a non-saturating GNR, plus a
//! Bode sweep of an RC stage through the AC engine.
//!
//! ```text
//! cargo run --release --example rf_analysis
//! ```

use carbon_electronics::experiments::rf;
use carbon_electronics::spice::{AcOptions, Circuit};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cmp = rf::run()?;
    print!("{cmp}");

    // Bonus: a Bode plot straight from the AC engine.
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "in", "0", 0.0);
    ckt.resistor("r", "in", "out", 1e3)?;
    ckt.capacitor("c", "out", "0", 1e-12)?;
    let freqs: Vec<f64> = (0..9).map(|k| 1e6 * 10f64.powf(k as f64 / 2.0)).collect();
    let ac = ckt.ac_sweep("vin", &freqs, AcOptions::default())?;
    println!("RC low-pass Bode sweep (R = 1 kΩ, C = 1 pF, f_c ≈ 159 MHz):");
    println!("{:>12} {:>10} {:>10}", "f [Hz]", "|H| [dB]", "∠H [deg]");
    let mag = ac.magnitude("out")?;
    let ph = ac.phase("out")?;
    for ((f, m), p) in freqs.iter().zip(&mag).zip(&ph) {
        println!(
            "{:>12.3e} {:>10.2} {:>10.1}",
            f,
            20.0 * m.log10(),
            p.to_degrees()
        );
    }
    if let Some(fc) = ac.corner_frequency("out")? {
        println!("−3 dB corner: {fc:.3e} Hz");
    }
    Ok(())
}
