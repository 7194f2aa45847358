//! Deck-level analysis cards and a batch runner: the layer that makes
//! the simulator usable as a standalone tool (`.op`, `.dc`, `.tran`,
//! `.ac`, `.print`) rather than only as a library.

use crate::analysis::{DcOptions, TranOptions};
use crate::error::SpiceError;
use crate::netlist::Circuit;
use crate::parser::{parse_card_into, parse_value};

/// One analysis request parsed from a control card.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisCard {
    /// `.op` — DC operating point.
    Op,
    /// `.dc <source> <from> <to> <step>`.
    Dc {
        /// Swept source name.
        source: String,
        /// Sweep start, V or A.
        from: f64,
        /// Sweep end.
        to: f64,
        /// Sweep step (positive).
        step: f64,
    },
    /// `.tran <step> <stop>`.
    Tran {
        /// Time step, s.
        step: f64,
        /// Stop time, s.
        stop: f64,
    },
    /// `.ac <source> <f_start> <f_stop> <points>` (log-spaced).
    Ac {
        /// AC stimulus source name.
        source: String,
        /// Start frequency, Hz.
        f_start: f64,
        /// Stop frequency, Hz.
        f_stop: f64,
        /// Number of log-spaced points (≥ 2).
        points: usize,
    },
}

/// A parsed deck: the circuit, its analyses, and the nodes to print.
#[derive(Debug)]
pub struct Deck {
    /// The circuit.
    pub circuit: Circuit,
    /// Analyses in deck order.
    pub analyses: Vec<AnalysisCard>,
    /// Node names from `.print` cards (all nodes if empty).
    pub print_nodes: Vec<String>,
}

/// Parses a full deck including control cards.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidValue`] with the line number for
/// malformed element or control cards.
///
/// # Examples
///
/// ```
/// use carbon_spice::runner::parse_full_deck;
///
/// # fn main() -> Result<(), carbon_spice::SpiceError> {
/// let deck = parse_full_deck(
///     "V1 in 0 1.0
///      R1 in out 1k
///      R2 out 0 1k
///      .op
///      .print out",
/// )?;
/// assert_eq!(deck.analyses.len(), 1);
/// let report = deck.run()?;
/// assert!(report.contains("out"));
/// # Ok(())
/// # }
/// ```
pub fn parse_full_deck(text: &str) -> Result<Deck, SpiceError> {
    let mut circuit = Circuit::new();
    let mut analyses = Vec::new();
    let mut print_nodes = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') || line.starts_with(';') {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower == ".end" {
            break;
        }
        if let Some(card) = lower.strip_prefix('.') {
            let tokens: Vec<&str> = card.split_whitespace().collect();
            let bad = |reason: String| SpiceError::InvalidValue {
                element: format!("line {}", lineno + 1),
                reason,
            };
            match tokens.first().copied() {
                Some("op") => analyses.push(AnalysisCard::Op),
                Some("dc") => {
                    if tokens.len() != 5 {
                        return Err(bad(".dc needs: source from to step".into()));
                    }
                    analyses.push(AnalysisCard::Dc {
                        source: tokens[1].to_owned(),
                        from: parse_value(tokens[2]).map_err(&bad)?,
                        to: parse_value(tokens[3]).map_err(&bad)?,
                        step: parse_value(tokens[4]).map_err(&bad)?,
                    });
                }
                Some("tran") => {
                    if tokens.len() != 3 {
                        return Err(bad(".tran needs: step stop".into()));
                    }
                    analyses.push(AnalysisCard::Tran {
                        step: parse_value(tokens[1]).map_err(&bad)?,
                        stop: parse_value(tokens[2]).map_err(&bad)?,
                    });
                }
                Some("ac") => {
                    if tokens.len() != 5 {
                        return Err(bad(".ac needs: source f_start f_stop points".into()));
                    }
                    let points = tokens[4]
                        .parse::<usize>()
                        .map_err(|_| bad(format!("bad point count '{}'", tokens[4])))?;
                    if points < 2 {
                        return Err(bad("ac sweep needs at least 2 points".into()));
                    }
                    analyses.push(AnalysisCard::Ac {
                        source: tokens[1].to_owned(),
                        f_start: parse_value(tokens[2]).map_err(&bad)?,
                        f_stop: parse_value(tokens[3]).map_err(&bad)?,
                        points,
                    });
                }
                Some("print") => {
                    print_nodes.extend(tokens[1..].iter().map(|s| (*s).to_owned()));
                }
                other => {
                    return Err(bad(format!(
                        "unsupported control card '.{}'",
                        other.unwrap_or("")
                    )));
                }
            }
            continue;
        }
        parse_card_into(&mut circuit, lineno, line)?;
    }
    Ok(Deck {
        circuit,
        analyses,
        print_nodes,
    })
}

impl Deck {
    /// Runs every analysis and renders a plain-text report.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from any analysis.
    pub fn run(&self) -> Result<String, SpiceError> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let nodes: Vec<String> = self.print_nodes.clone();
        for analysis in &self.analyses {
            match analysis {
                AnalysisCard::Op => {
                    let op = self.circuit.op()?;
                    let _ = writeln!(out, "* .op");
                    for node in &nodes {
                        let _ = writeln!(out, "V({node}) = {:.6e}", op.voltage(node)?);
                    }
                }
                AnalysisCard::Dc {
                    source,
                    from,
                    to,
                    step,
                } => {
                    let sweep =
                        self.circuit
                            .dc_sweep(source, *from, *to, *step, DcOptions::default())?;
                    let _ = writeln!(out, "* .dc {source} {from} {to} {step}");
                    let traces: Vec<(String, Vec<f64>)> = nodes
                        .iter()
                        .map(|n| Ok((n.clone(), sweep.voltages(n)?)))
                        .collect::<Result<_, SpiceError>>()?;
                    for (k, v) in sweep.sweep_values().iter().enumerate() {
                        let mut row = format!("{v:.6e}");
                        for (_, t) in &traces {
                            let _ = write!(row, "\t{:.6e}", t[k]);
                        }
                        let _ = writeln!(out, "{row}");
                    }
                }
                AnalysisCard::Tran { step, stop } => {
                    let tran = self
                        .circuit
                        .transient(*step, *stop, TranOptions::default())?;
                    let _ = writeln!(out, "* .tran {step} {stop}");
                    let traces: Vec<(String, Vec<f64>)> = nodes
                        .iter()
                        .map(|n| Ok((n.clone(), tran.voltages(n)?.to_vec())))
                        .collect::<Result<_, SpiceError>>()?;
                    for (k, t) in tran.times().iter().enumerate() {
                        let mut row = format!("{t:.6e}");
                        for (_, tr) in &traces {
                            let _ = write!(row, "\t{:.6e}", tr[k]);
                        }
                        let _ = writeln!(out, "{row}");
                    }
                }
                AnalysisCard::Ac {
                    source,
                    f_start,
                    f_stop,
                    points,
                } => {
                    let freqs: Vec<f64> = (0..*points)
                        .map(|k| {
                            f_start * (f_stop / f_start).powf(k as f64 / (*points as f64 - 1.0))
                        })
                        .collect();
                    let ac = self.circuit.ac_sweep(source, &freqs)?;
                    let _ = writeln!(out, "* .ac {source} {f_start} {f_stop} {points}");
                    let traces: Vec<(String, Vec<f64>)> = nodes
                        .iter()
                        .map(|n| Ok((n.clone(), ac.magnitude(n)?)))
                        .collect::<Result<_, SpiceError>>()?;
                    for (k, f) in freqs.iter().enumerate() {
                        let mut row = format!("{f:.6e}");
                        for (_, t) in &traces {
                            let _ = write!(row, "\t{:.6e}", t[k]);
                        }
                        let _ = writeln!(out, "{row}");
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_runs_all_card_kinds() {
        let deck = parse_full_deck(
            "V1 in 0 SIN(0 1 1meg)
             R1 in out 1k
             C1 out 0 1n
             .op
             .dc V1 0 1 0.5
             .tran 0.1u 2u
             .ac V1 1k 1g 7
             .print out in",
        )
        .unwrap();
        assert_eq!(deck.analyses.len(), 4);
        assert_eq!(deck.print_nodes, vec!["out", "in"]);
        let report = deck.run().unwrap();
        assert!(report.contains("* .op"));
        assert!(report.contains("* .dc"));
        assert!(report.contains("* .tran"));
        assert!(report.contains("* .ac"));
        // The .tran block has ~20 rows of 3 columns.
        let tran_rows = report
            .lines()
            .skip_while(|l| !l.starts_with("* .tran"))
            .skip(1)
            .take_while(|l| !l.starts_with('*'))
            .count();
        assert!(tran_rows >= 20, "rows {tran_rows}");
    }

    #[test]
    fn op_report_is_correct() {
        let deck = parse_full_deck(
            "V1 in 0 2
             R1 in out 1k
             R2 out 0 1k
             .op
             .print out",
        )
        .unwrap();
        let report = deck.run().unwrap();
        assert!(report.contains("V(out) = 1.0000"), "{report}");
    }

    #[test]
    fn control_card_errors_have_line_numbers() {
        let e = parse_full_deck("V1 a 0 1\n.dc V1 0 1").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = parse_full_deck(".noise").unwrap_err();
        assert!(e.to_string().contains("unsupported control card"), "{e}");
        let e = parse_full_deck("V1 a 0 1\n.ac V1 1k 1g 1").unwrap_err();
        assert!(e.to_string().contains("at least 2"), "{e}");
    }

    #[test]
    fn end_card_still_terminates() {
        let deck = parse_full_deck("V1 a 0 1\nR1 a 0 1k\n.op\n.end\n.dc V1 0 1 0.1").unwrap();
        assert_eq!(deck.analyses.len(), 1);
    }
}
