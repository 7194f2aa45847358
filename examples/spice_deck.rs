//! Driving the simulator from a classic SPICE deck: parse a netlist
//! string, solve the operating point, sweep it, and integrate a
//! transient — no Rust netlist-building code.
//!
//! ```text
//! cargo run --release --example spice_deck
//! ```

use carbon_electronics::spice::{parser::parse_deck, DcOptions, TranOptions};

const DECK: &str = "
* full-wave-ish diode clipper with an RC tail
V1   in   0    SIN(0 2 1meg)
R1   in   a    1k
D1   a    0    is=1e-15 n=1.0
D2   0    a    is=1e-15 n=1.0
R2   a    out  10k
C1   out  0    1n
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ckt = parse_deck(DECK)?;
    println!("parsed {} elements from the deck", ckt.num_elements());

    // DC operating point (source at its offset, 0 V).
    let op = ckt.op()?;
    println!(
        "DC operating point: V(a) = {:.4} V, V(out) = {:.4} V",
        op.voltage("a")?,
        op.voltage("out")?
    );

    // Transient: the clipper limits the 2 V sine to the diode drops.
    let tran = ckt.transient(5e-9, 3e-6, TranOptions::default())?;
    let va = tran.voltages("a")?;
    let peak = va.iter().cloned().fold(f64::MIN, f64::max);
    let trough = va.iter().cloned().fold(f64::MAX, f64::min);
    println!("clipped node swings {trough:.3} V … {peak:.3} V (diodes clamp a ±2 V drive)");
    assert!(peak < 1.0 && trough > -1.0, "clipping works");

    // And the same circuit parsed again with a DC source for a sweep.
    let ckt2 = parse_deck(
        "V1 in 0 0
         R1 in a 1k
         D1 a 0 is=1e-15 n=1.0
         D2 0 a is=1e-15 n=1.0",
    )?;
    let sweep = ckt2.dc_sweep("v1", -2.0, 2.0, 0.1, DcOptions::default())?;
    println!("\ntransfer V(a) vs V(in):");
    for k in (0..sweep.len()).step_by(8) {
        println!(
            "  {:>6.2} V → {:>7.4} V",
            sweep.sweep_values()[k],
            sweep.voltages("a")?[k]
        );
    }
    Ok(())
}
