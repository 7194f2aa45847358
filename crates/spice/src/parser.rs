//! A parser for a practical subset of the classic SPICE deck format.
//!
//! Supported cards (case-insensitive, one per line):
//!
//! ```text
//! * comment                      ; also lines starting with ';'
//! Rname node+ node- value        ; resistor, ohms
//! Cname node+ node- value        ; capacitor, farads
//! Lname node+ node- value        ; inductor, henries
//! Vname node+ node- value        ; DC voltage source, volts
//! Vname node+ node- PULSE(lo hi delay rise fall width period)
//! Vname node+ node- SIN(offset amplitude freq [delay])
//! Iname node+ node- value        ; DC current source, amperes
//! Dname node+ node- [is=..] [n=..]
//! Gname out+ out- ctrl+ ctrl- gm ; VCCS
//! .end                           ; optional terminator
//! ```
//!
//! Values accept the standard SPICE suffixes (`f p n u m k meg g t`,
//! plus the `µ` alias for `u`): `10k`, `1.5MEG`, `100n`, `2.2u`.
//! FET elements have no card syntax (compact models are Rust values);
//! build those netlists programmatically.

use crate::error::SpiceError;
use crate::netlist::Circuit;
use crate::waveform::Waveform;

/// Parses a SPICE deck into a [`Circuit`].
///
/// # Errors
///
/// Returns [`SpiceError::InvalidValue`] with the offending line number
/// for malformed cards, bad numbers, or unsupported element types, and
/// propagates the netlist builder's validation errors.
///
/// # Examples
///
/// ```
/// use carbon_spice::parser::parse_deck;
///
/// # fn main() -> Result<(), carbon_spice::SpiceError> {
/// let ckt = parse_deck(
///     "* a divider
///      V1 in 0 2.0
///      R1 in out 1k
///      R2 out 0 1k
///      .end",
/// )?;
/// let op = ckt.op()?;
/// assert!((op.voltage("out")? - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn parse_deck(deck: &str) -> Result<Circuit, SpiceError> {
    let mut ckt = Circuit::new();
    for (lineno, raw) in deck.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower == ".end" {
            break;
        }
        if lower.starts_with('.') {
            return Err(err(lineno, format!("unsupported control card '{line}'")));
        }
        parse_card_into(&mut ckt, lineno, line)?;
    }
    Ok(ckt)
}

fn err(lineno: usize, reason: String) -> SpiceError {
    SpiceError::InvalidValue {
        element: format!("line {}", lineno + 1),
        reason,
    }
}

pub(crate) fn parse_card_into(
    ckt: &mut Circuit,
    lineno: usize,
    line: &str,
) -> Result<(), SpiceError> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let name = tokens[0];
    let kind = name
        .chars()
        .next()
        .expect("non-empty token")
        .to_ascii_lowercase();
    let need = |n: usize| -> Result<(), SpiceError> {
        if tokens.len() < n {
            Err(err(lineno, format!("'{name}' needs at least {} fields", n)))
        } else {
            Ok(())
        }
    };
    match kind {
        'r' => {
            need(4)?;
            let v = parse_value(tokens[3]).map_err(|m| err(lineno, m))?;
            ckt.resistor(name, tokens[1], tokens[2], v)
        }
        'c' => {
            need(4)?;
            let v = parse_value(tokens[3]).map_err(|m| err(lineno, m))?;
            ckt.capacitor(name, tokens[1], tokens[2], v)
        }
        'l' => {
            need(4)?;
            let v = parse_value(tokens[3]).map_err(|m| err(lineno, m))?;
            ckt.inductor(name, tokens[1], tokens[2], v)
        }
        'v' | 'i' => {
            need(4)?;
            let rest = tokens[3..].join(" ");
            let wave = parse_source(&rest).map_err(|m| err(lineno, m))?;
            if kind == 'v' {
                ckt.voltage_source_wave(name, tokens[1], tokens[2], wave)
            } else {
                ckt.current_source_wave(name, tokens[1], tokens[2], wave)
            }
        }
        'd' => {
            need(3)?;
            let mut i_s = 1e-15;
            let mut n_ideality = 1.0;
            for t in &tokens[3..] {
                let lower = t.to_ascii_lowercase();
                if let Some(v) = lower.strip_prefix("is=") {
                    i_s = parse_value(v).map_err(|m| err(lineno, m))?;
                } else if let Some(v) = lower.strip_prefix("n=") {
                    n_ideality = parse_value(v).map_err(|m| err(lineno, m))?;
                } else {
                    return Err(err(lineno, format!("unknown diode parameter '{t}'")));
                }
            }
            ckt.diode(name, tokens[1], tokens[2], i_s, n_ideality)
        }
        'g' => {
            need(6)?;
            let gm = parse_value(tokens[5]).map_err(|m| err(lineno, m))?;
            ckt.vccs(name, tokens[1], tokens[2], tokens[3], tokens[4], gm)
        }
        other => Err(err(
            lineno,
            format!("unsupported element type '{other}' (supported: R C L V I D G)"),
        )),
    }
}

fn parse_source(spec: &str) -> Result<Waveform, String> {
    let lower = spec.to_ascii_lowercase();
    if let Some(args) = function_args(&lower, "pulse") {
        let v = parse_list(&args)?;
        if v.len() != 7 {
            return Err(format!("PULSE needs 7 arguments, got {}", v.len()));
        }
        return Ok(Waveform::Pulse {
            low: v[0],
            high: v[1],
            delay: v[2],
            rise: v[3],
            fall: v[4],
            width: v[5],
            period: v[6],
        });
    }
    if let Some(args) = function_args(&lower, "sin") {
        let v = parse_list(&args)?;
        if !(3..=4).contains(&v.len()) {
            return Err(format!("SIN needs 3 or 4 arguments, got {}", v.len()));
        }
        return Ok(Waveform::Sin {
            offset: v[0],
            amplitude: v[1],
            freq: v[2],
            delay: v.get(3).copied().unwrap_or(0.0),
        });
    }
    Ok(Waveform::Dc(parse_value(lower.trim())?))
}

fn function_args(spec: &str, func: &str) -> Option<String> {
    let spec = spec.trim();
    let body = spec.strip_prefix(func)?.trim_start();
    let body = body.strip_prefix('(')?;
    let body = body.strip_suffix(')')?;
    Some(body.to_owned())
}

fn parse_list(args: &str) -> Result<Vec<f64>, String> {
    args.split([',', ' '])
        .filter(|s| !s.is_empty())
        .map(parse_value)
        .collect()
}

/// Parses a SPICE number with magnitude suffix.
pub fn parse_value(token: &str) -> Result<f64, String> {
    let t = token.trim().to_ascii_lowercase();
    if t.is_empty() {
        return Err("empty value".to_owned());
    }
    // Longest suffixes first ("meg" before "m").
    const SUFFIXES: [(&str, f64); 10] = [
        ("meg", 1e6),
        ("f", 1e-15),
        ("p", 1e-12),
        ("n", 1e-9),
        ("u", 1e-6),
        ("µ", 1e-6),
        ("m", 1e-3),
        ("k", 1e3),
        ("g", 1e9),
        ("t", 1e12),
    ];
    for (suffix, scale) in SUFFIXES {
        if let Some(num) = t.strip_suffix(suffix) {
            // Guard against "1e-15" matching the "f"-less path: the
            // stripped remainder must parse and not end in 'e'.
            if !num.is_empty() && !num.ends_with(['e', '+', '-']) {
                if let Ok(v) = num.parse::<f64>() {
                    return Ok(v * scale);
                }
            }
        }
    }
    t.parse::<f64>()
        .map_err(|_| format!("cannot parse value '{token}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TranOptions;

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("10k").unwrap(), 10e3);
        assert_eq!(parse_value("1.5MEG").unwrap(), 1.5e6);
        assert!((parse_value("100n").unwrap() - 100e-9).abs() < 1e-21);
        assert_eq!(parse_value("2.2u").unwrap(), 2.2e-6);
        assert_eq!(parse_value("3p").unwrap(), 3e-12);
        assert_eq!(parse_value("4f").unwrap(), 4e-15);
        assert_eq!(parse_value("5m").unwrap(), 5e-3);
        assert_eq!(parse_value("2g").unwrap(), 2e9);
        assert_eq!(parse_value("1t").unwrap(), 1e12);
        assert_eq!(parse_value("1e-15").unwrap(), 1e-15);
        assert_eq!(parse_value("-0.5").unwrap(), -0.5);
        assert!(parse_value("abc").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn parses_and_solves_divider() {
        let ckt = parse_deck(
            "* divider
             V1 in 0 2.0
             R1 in out 1k
             R2 out 0 1k",
        )
        .unwrap();
        let op = ckt.op().unwrap();
        assert!((op.voltage("out").unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parses_diode_card_with_parameters() {
        let ckt = parse_deck(
            "V1 in 0 5
             R1 in d 1k
             D1 d 0 is=1e-15 n=1.2",
        )
        .unwrap();
        let op = ckt.op().unwrap();
        let vd = op.voltage("d").unwrap();
        assert!((0.5..1.0).contains(&vd));
    }

    #[test]
    fn parses_pulse_and_runs_transient() {
        let ckt = parse_deck(
            "V1 in 0 PULSE(0 1 1u 1n 1n 10u 0)
             R1 in out 1k
             C1 out 0 1n",
        )
        .unwrap();
        let tran = ckt.transient(1e-7, 1e-5, TranOptions::default()).unwrap();
        let v = tran.voltages("out").unwrap();
        assert!(v[0] < 0.01 && *v.last().unwrap() > 0.9);
    }

    #[test]
    fn parses_sin_source() {
        let ckt = parse_deck("V1 in 0 SIN(0.5 0.2 1meg)\nR1 in 0 1k").unwrap();
        let op = ckt.op().unwrap();
        assert!(
            (op.voltage("in").unwrap() - 0.5).abs() < 1e-9,
            "DC value is the offset"
        );
    }

    #[test]
    fn parses_vccs() {
        let ckt = parse_deck(
            "V1 in 0 0.5
             G1 out 0 in 0 1m
             R1 out 0 1k",
        )
        .unwrap();
        let op = ckt.op().unwrap();
        assert!((op.voltage("out").unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn comments_blanks_and_end_are_handled() {
        let ckt = parse_deck(
            "* top comment
             ; another comment

             V1 a 0 1.0
             R1 a 0 1k
             .END
             R2 ignored 0 1k",
        )
        .unwrap();
        assert_eq!(ckt.num_elements(), 2, "cards after .end are ignored");
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let e = parse_deck("V1 a 0 1.0\nR1 a 0 notanumber").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = parse_deck("X1 a 0 model").unwrap_err();
        assert!(e.to_string().contains("unsupported element"), "{e}");
        let e = parse_deck(".tran 1n 1u").unwrap_err();
        assert!(e.to_string().contains("control card"), "{e}");
        let e = parse_deck("R1 a 0").unwrap_err();
        assert!(e.to_string().contains("at least"), "{e}");
        let e = parse_deck("V1 a 0 PULSE(0 1)").unwrap_err();
        assert!(e.to_string().contains("PULSE needs 7"), "{e}");
        let e = parse_deck("D1 a 0 beta=2").unwrap_err();
        assert!(e.to_string().contains("unknown diode parameter"), "{e}");
    }

    #[test]
    fn duplicate_names_propagate_builder_errors() {
        let e = parse_deck("R1 a 0 1k\nR1 b 0 2k").unwrap_err();
        assert!(matches!(e, SpiceError::DuplicateElement { .. }));
    }
}
