//! Gate-level event-driven logic simulation.
//!
//! The analog layer (`carbon-spice` + the inverter/ring analyses)
//! establishes that a CNT technology has restoring gates with a
//! measurable stage delay; this module lifts that into a digital
//! abstraction: combinational networks of INV/NAND/NOR/BUF gates with a
//! per-gate delay, simulated with an event queue. The SUBNEG computer of
//! [`crate::computer`] executes on networks built here.

use std::collections::{BTreeMap, HashMap};

use crate::error::LogicError;

/// Kind of a logic gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter (1 input).
    Inv,
    /// Buffer (1 input).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR (modelled as a primitive; costs 4 NAND delays).
    Xor2,
    /// Level-sensitive D latch (inputs `[d, en]`): transparent while
    /// `en` is high, holding otherwise. A behavioral state element, as
    /// in HDL simulators — it avoids the power-on metastability race of
    /// a structural cross-coupled loop.
    DLatch,
}

impl GateKind {
    fn arity(self) -> usize {
        match self {
            Self::Inv | Self::Buf => 1,
            Self::Nand2 | Self::Nor2 | Self::Xor2 | Self::DLatch => 2,
        }
    }

    /// Evaluates the gate; `prev` is the output's current value (only
    /// the latch, a state element, reads it).
    fn eval(self, a: bool, b: bool, prev: bool) -> bool {
        match self {
            Self::Inv => !a,
            Self::Buf => a,
            Self::Nand2 => !(a && b),
            Self::Nor2 => !(a || b),
            Self::Xor2 => a ^ b,
            Self::DLatch => {
                if b {
                    a
                } else {
                    prev
                }
            }
        }
    }

    /// Delay in units of one inverter stage delay.
    fn delay_stages(self) -> u64 {
        match self {
            Self::Inv | Self::Buf => 1,
            Self::Nand2 | Self::Nor2 => 2,
            Self::Xor2 | Self::DLatch => 4,
        }
    }
}

#[derive(Debug, Clone)]
struct Gate {
    kind: GateKind,
    inputs: [usize; 2],
    output: usize,
}

/// A combinational gate network over named nets.
///
/// # Examples
///
/// ```
/// use carbon_logic::digital::{GateKind, GateNetwork};
///
/// # fn main() -> Result<(), carbon_logic::LogicError> {
/// let mut net = GateNetwork::new();
/// net.add_gate(GateKind::Nand2, &["a", "b"], "nand_ab")?;
/// net.add_gate(GateKind::Inv, &["nand_ab"], "and_ab")?;
/// let out = net.evaluate(&[("a", true), ("b", true)])?;
/// assert_eq!(out.value("and_ab")?, true);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GateNetwork {
    net_names: Vec<String>,
    net_index: HashMap<String, usize>,
    gates: Vec<Gate>,
    driven: Vec<bool>,
}

/// Result of evaluating a [`GateNetwork`]: settled net values plus the
/// critical-path depth in inverter-stage delays.
#[derive(Debug, Clone)]
pub struct Evaluation {
    values: HashMap<String, bool>,
    /// Settling time of the slowest net, in inverter-stage delays.
    pub depth_stages: u64,
    /// Total gate evaluations performed (switching activity proxy).
    pub gate_evaluations: u64,
}

impl Evaluation {
    /// Builds an explicit power-on state to seed
    /// [`GateNetwork::evaluate_seeded`] with — the way sequential
    /// designs declare their reset state instead of racing a metastable
    /// cross-coupled loop from the symmetric all-low start.
    pub fn initial_state<I>(values: I) -> Self
    where
        I: IntoIterator<Item = (String, bool)>,
    {
        Self {
            values: values.into_iter().collect(),
            depth_stages: 0,
            gate_evaluations: 0,
        }
    }

    /// Value of a named net after settling.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] for unknown nets.
    pub fn value(&self, net: &str) -> Result<bool, LogicError> {
        self.values
            .get(net)
            .copied()
            .ok_or_else(|| LogicError::InvalidParameter {
                reason: format!("unknown net '{net}'"),
            })
    }
}

impl GateNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    fn net(&mut self, name: &str) -> usize {
        if let Some(&i) = self.net_index.get(name) {
            return i;
        }
        let i = self.net_names.len();
        self.net_names.push(name.to_owned());
        self.net_index.insert(name.to_owned(), i);
        self.driven.push(false);
        i
    }

    /// Adds a gate driving `output` from `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] on arity mismatch or if
    /// the output net already has a driver.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[&str],
        output: &str,
    ) -> Result<(), LogicError> {
        if inputs.len() != kind.arity() {
            return Err(LogicError::InvalidParameter {
                reason: format!(
                    "{kind:?} takes {} inputs, got {}",
                    kind.arity(),
                    inputs.len()
                ),
            });
        }
        let in0 = self.net(inputs[0]);
        let in1 = if inputs.len() > 1 {
            self.net(inputs[1])
        } else {
            in0
        };
        let out = self.net(output);
        if self.driven[out] {
            return Err(LogicError::InvalidParameter {
                reason: format!("net '{output}' already has a driver"),
            });
        }
        self.driven[out] = true;
        self.gates.push(Gate {
            kind,
            inputs: [in0, in1],
            output: out,
        });
        Ok(())
    }

    /// `true` if the named net is driven by a gate output.
    pub fn is_driven(&self, net: &str) -> bool {
        self.net_index
            .get(net)
            .map(|&i| self.driven[i])
            .unwrap_or(false)
    }

    /// Iterates over the gates as `(kind, [input names], output name)` —
    /// the structural view the transistor-level synthesizer consumes.
    pub fn gates_iter(&self) -> impl Iterator<Item = (GateKind, Vec<String>, String)> + '_ {
        self.gates.iter().map(|g| {
            let ins = (0..g.kind.arity())
                .map(|k| self.net_names[g.inputs[k]].clone())
                .collect();
            (g.kind, ins, self.net_names[g.output].clone())
        })
    }

    /// Evaluates the network for the given primary-input assignment,
    /// propagating events until quiescence. All nets start low (a
    /// power-on evaluation); for sequential elements use
    /// [`evaluate_seeded`](Self::evaluate_seeded).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] if an input name is
    /// unknown, drives a gated net, or the network does not settle
    /// (combinational loop).
    pub fn evaluate(&self, inputs: &[(&str, bool)]) -> Result<Evaluation, LogicError> {
        self.evaluate_seeded(inputs, None)
    }

    /// Evaluates with net values seeded from a previous evaluation —
    /// the mechanism that lets cross-coupled latch loops *hold state*:
    /// an SR latch evaluated from its previous settled state keeps its
    /// output when both inputs are inactive, instead of racing from the
    /// power-on state.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate); a genuinely metastable
    /// stimulus (e.g. releasing both SR inputs from the symmetric
    /// power-on state) still reports a non-settling network.
    pub fn evaluate_seeded(
        &self,
        inputs: &[(&str, bool)],
        seed: Option<&Evaluation>,
    ) -> Result<Evaluation, LogicError> {
        let mut values = vec![false; self.net_names.len()];
        let mut known = vec![false; self.net_names.len()];
        if let Some(prev) = seed {
            for (i, name) in self.net_names.iter().enumerate() {
                if let Some(&v) = prev.values.get(name) {
                    values[i] = v;
                    known[i] = true;
                }
            }
        }
        for (name, v) in inputs {
            let &i = self
                .net_index
                .get(*name)
                .ok_or_else(|| LogicError::InvalidParameter {
                    reason: format!("unknown input net '{name}'"),
                })?;
            if self.driven[i] {
                return Err(LogicError::InvalidParameter {
                    reason: format!("net '{name}' is gate-driven, cannot force"),
                });
            }
            values[i] = *v;
            known[i] = true;
        }
        // Undriven, unforced nets default to false (pulled low).
        // Event-driven propagation with *delayed* value updates: a gate
        // evaluated at time t schedules its output value at t + delay;
        // values change only when their event time arrives, so timing
        // depth is physical and a combinational loop oscillates until
        // the event budget trips instead of settling spuriously.
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); self.net_names.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            fanout[g.inputs[0]].push(gi);
            if g.kind.arity() > 1 {
                fanout[g.inputs[1]].push(gi);
            }
        }
        // time → (net → scheduled value); later schedules at the same
        // time overwrite earlier ones (last evaluation wins). The
        // decision to schedule compares against the *latest scheduled*
        // value of the net (falling back to its current value), so a
        // correction is emitted even when a stale event is still in
        // flight — omitting that is the classic transport-delay
        // cancellation bug.
        let mut queue: BTreeMap<u64, HashMap<usize, bool>> = BTreeMap::new();
        let mut last_scheduled: Vec<Option<bool>> = vec![None; self.net_names.len()];
        let mut evaluations: u64 = 0;
        let limit = (self.gates.len() as u64 + 1) * 1000;
        let mut depth = 0;
        // Initial evaluation of every gate at t = 0.
        for g in &self.gates {
            evaluations += 1;
            let new = g
                .kind
                .eval(values[g.inputs[0]], values[g.inputs[1]], values[g.output]);
            queue
                .entry(g.kind.delay_stages())
                .or_default()
                .insert(g.output, new);
            last_scheduled[g.output] = Some(new);
        }
        while let Some((&t, _)) = queue.iter().next() {
            let updates = queue.remove(&t).expect("key exists");
            let mut changed: Vec<usize> = Vec::new();
            for (net, val) in updates {
                if !known[net] || values[net] != val {
                    values[net] = val;
                    known[net] = true;
                    depth = depth.max(t);
                    changed.push(net);
                }
            }
            let mut affected: Vec<usize> = changed
                .iter()
                .flat_map(|&n| fanout[n].iter().copied())
                .collect();
            affected.sort_unstable();
            affected.dedup();
            for gi in affected {
                evaluations += 1;
                if evaluations > limit {
                    return Err(LogicError::InvalidParameter {
                        reason: "network does not settle (combinational loop?)".into(),
                    });
                }
                let g = &self.gates[gi];
                let new = g
                    .kind
                    .eval(values[g.inputs[0]], values[g.inputs[1]], values[g.output]);
                let effective = last_scheduled[g.output].unwrap_or(values[g.output]);
                if new != effective || !known[g.output] {
                    queue
                        .entry(t + g.kind.delay_stages())
                        .or_default()
                        .insert(g.output, new);
                    last_scheduled[g.output] = Some(new);
                }
            }
        }
        let map = self
            .net_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), values[i]))
            .collect();
        Ok(Evaluation {
            values: map,
            depth_stages: depth,
            gate_evaluations: evaluations,
        })
    }

    /// Builds a cross-coupled-NOR SR latch: `q = NOR(r, qbar)`,
    /// `qbar = NOR(s, q)`, producing nets `<prefix>_q` and
    /// `<prefix>_qbar`. Evaluate with
    /// [`evaluate_seeded`](Self::evaluate_seeded) to hold state.
    ///
    /// # Errors
    ///
    /// Propagates gate-construction errors (duplicate drivers if the
    /// prefix is reused).
    pub fn add_sr_latch(&mut self, s: &str, r: &str, prefix: &str) -> Result<(), LogicError> {
        let q = format!("{prefix}_q");
        let qbar = format!("{prefix}_qbar");
        self.add_gate(GateKind::Nor2, &[r, &qbar], &q)?;
        self.add_gate(GateKind::Nor2, &[s, &q], &qbar)?;
        Ok(())
    }

    /// Builds a gated (level-sensitive) D latch: transparent while `en`
    /// is high, holding while low. Produces nets `<prefix>_q` and
    /// `<prefix>_qbar`. Implemented with the behavioral
    /// [`GateKind::DLatch`] primitive so the hold state is well defined
    /// from power-on (seed it with
    /// [`Evaluation::initial_state`] to choose the reset value).
    ///
    /// # Errors
    ///
    /// Propagates gate-construction errors.
    pub fn add_d_latch(&mut self, d: &str, en: &str, prefix: &str) -> Result<(), LogicError> {
        let q = format!("{prefix}_q");
        let qbar = format!("{prefix}_qbar");
        self.add_gate(GateKind::DLatch, &[d, en], &q)?;
        self.add_gate(GateKind::Inv, &[&q], &qbar)?;
        Ok(())
    }

    /// Builds a 1-bit full subtractor: `diff = a − b − bin`,
    /// producing nets `<prefix>_diff` and `<prefix>_bout`.
    ///
    /// # Errors
    ///
    /// Propagates gate-construction errors (duplicate drivers if the
    /// prefix is reused).
    pub fn add_full_subtractor(
        &mut self,
        a: &str,
        b: &str,
        bin: &str,
        prefix: &str,
    ) -> Result<(), LogicError> {
        let x1 = format!("{prefix}_x1");
        let diff = format!("{prefix}_diff");
        let na = format!("{prefix}_na");
        let nx1 = format!("{prefix}_nx1");
        let bout = format!("{prefix}_bout");
        self.add_gate(GateKind::Xor2, &[a, b], &x1)?;
        self.add_gate(GateKind::Xor2, &[&x1, bin], &diff)?;
        // bout = (!a & b) | (!(a^b) & bin)
        self.add_gate(GateKind::Inv, &[a], &na)?;
        self.add_gate(GateKind::Inv, &[&x1], &nx1)?;
        let nand1 = format!("{prefix}_nand1");
        let nand2 = format!("{prefix}_nand2");
        self.add_gate(GateKind::Nand2, &[&na, b], &nand1)?;
        self.add_gate(GateKind::Nand2, &[&nx1, bin], &nand2)?;
        self.add_gate(GateKind::Nand2, &[&nand1, &nand2], &bout)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_truth_tables() {
        let mut n = GateNetwork::new();
        n.add_gate(GateKind::Nand2, &["a", "b"], "nand").unwrap();
        n.add_gate(GateKind::Nor2, &["a", "b"], "nor").unwrap();
        n.add_gate(GateKind::Xor2, &["a", "b"], "xor").unwrap();
        n.add_gate(GateKind::Inv, &["a"], "na").unwrap();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let e = n.evaluate(&[("a", a), ("b", b)]).unwrap();
            assert_eq!(e.value("nand").unwrap(), !(a && b));
            assert_eq!(e.value("nor").unwrap(), !(a || b));
            assert_eq!(e.value("xor").unwrap(), a ^ b);
            assert_eq!(e.value("na").unwrap(), !a);
        }
    }

    #[test]
    fn chained_gates_accumulate_depth() {
        // All nets power up low; applying a = true ripples x2 high at
        // stage 2 (x1 is already at its settled value), so a 3-chain
        // settles in 2 stages and a 5-chain in 4.
        let mut chain3 = GateNetwork::new();
        chain3.add_gate(GateKind::Inv, &["a"], "x1").unwrap();
        chain3.add_gate(GateKind::Inv, &["x1"], "x2").unwrap();
        chain3.add_gate(GateKind::Inv, &["x2"], "x3").unwrap();
        let e3 = chain3.evaluate(&[("a", true)]).unwrap();
        assert!(!e3.value("x3").unwrap());
        let mut chain5 = GateNetwork::new();
        chain5.add_gate(GateKind::Inv, &["a"], "x1").unwrap();
        for k in 2..=5 {
            chain5
                .add_gate(GateKind::Inv, &[&format!("x{}", k - 1)], &format!("x{k}"))
                .unwrap();
        }
        let e5 = chain5.evaluate(&[("a", true)]).unwrap();
        assert!(!e5.value("x5").unwrap());
        assert!(
            e5.depth_stages > e3.depth_stages,
            "5-chain {} vs 3-chain {}",
            e5.depth_stages,
            e3.depth_stages
        );
        assert!(e3.depth_stages >= 2, "depth {}", e3.depth_stages);
    }

    #[test]
    fn duplicate_driver_rejected() {
        let mut n = GateNetwork::new();
        n.add_gate(GateKind::Inv, &["a"], "x").unwrap();
        assert!(n.add_gate(GateKind::Inv, &["b"], "x").is_err());
    }

    #[test]
    fn arity_checked() {
        let mut n = GateNetwork::new();
        assert!(n.add_gate(GateKind::Inv, &["a", "b"], "x").is_err());
        assert!(n.add_gate(GateKind::Nand2, &["a"], "x").is_err());
    }

    #[test]
    fn forcing_a_driven_net_rejected() {
        let mut n = GateNetwork::new();
        n.add_gate(GateKind::Inv, &["a"], "x").unwrap();
        assert!(n.evaluate(&[("x", true)]).is_err());
        assert!(n.evaluate(&[("ghost", true)]).is_err());
    }

    #[test]
    fn combinational_loop_detected() {
        let mut n = GateNetwork::new();
        n.add_gate(GateKind::Inv, &["a"], "b").unwrap();
        n.add_gate(GateKind::Inv, &["b"], "a").unwrap();
        assert!(n.evaluate(&[]).is_err());
    }

    #[test]
    fn full_subtractor_truth_table() {
        let mut n = GateNetwork::new();
        n.add_full_subtractor("a", "b", "bin", "s0").unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for bin in [false, true] {
                    let e = n.evaluate(&[("a", a), ("b", b), ("bin", bin)]).unwrap();
                    let expect = (a as i8) - (b as i8) - (bin as i8);
                    let diff = expect.rem_euclid(2) == 1;
                    let borrow = expect < 0;
                    assert_eq!(e.value("s0_diff").unwrap(), diff, "diff {a}{b}{bin}");
                    assert_eq!(e.value("s0_bout").unwrap(), borrow, "bout {a}{b}{bin}");
                }
            }
        }
    }

    #[test]
    fn sr_latch_sets_holds_and_resets() {
        let mut n = GateNetwork::new();
        n.add_sr_latch("s", "r", "l").unwrap();
        // Set.
        let e1 = n.evaluate(&[("s", true), ("r", false)]).unwrap();
        assert!(e1.value("l_q").unwrap());
        assert!(!e1.value("l_qbar").unwrap());
        // Hold (seeded from the set state).
        let e2 = n
            .evaluate_seeded(&[("s", false), ("r", false)], Some(&e1))
            .unwrap();
        assert!(e2.value("l_q").unwrap(), "state held");
        // Reset.
        let e3 = n
            .evaluate_seeded(&[("s", false), ("r", true)], Some(&e2))
            .unwrap();
        assert!(!e3.value("l_q").unwrap());
        // Hold the reset state.
        let e4 = n
            .evaluate_seeded(&[("s", false), ("r", false)], Some(&e3))
            .unwrap();
        assert!(!e4.value("l_q").unwrap());
    }

    #[test]
    fn sr_latch_metastable_from_power_on_is_reported() {
        let mut n = GateNetwork::new();
        n.add_sr_latch("s", "r", "l").unwrap();
        // Both inactive from the symmetric all-low state: the loop
        // oscillates and the simulator must say so rather than settle.
        assert!(n.evaluate(&[("s", false), ("r", false)]).is_err());
    }

    #[test]
    fn d_latch_is_transparent_then_holds() {
        let mut n = GateNetwork::new();
        n.add_d_latch("d", "en", "dl").unwrap();
        // Transparent: q follows d while en = 1.
        let e1 = n.evaluate(&[("d", true), ("en", true)]).unwrap();
        assert!(e1.value("dl_q").unwrap());
        let e2 = n
            .evaluate_seeded(&[("d", false), ("en", true)], Some(&e1))
            .unwrap();
        assert!(!e2.value("dl_q").unwrap(), "follows d");
        // Opaque: q ignores d while en = 0.
        let e3 = n
            .evaluate_seeded(&[("d", true), ("en", false)], Some(&e2))
            .unwrap();
        assert!(!e3.value("dl_q").unwrap(), "holds");
        let e4 = n
            .evaluate_seeded(&[("d", false), ("en", false)], Some(&e3))
            .unwrap();
        assert!(!e4.value("dl_q").unwrap());
    }

    #[test]
    fn latch_pipeline_shifts_a_bit() {
        // Two D latches with complementary enables: a master-slave
        // flip-flop shifting one bit per full clock cycle.
        let mut n = GateNetwork::new();
        n.add_gate(GateKind::Inv, &["clk"], "nclk").unwrap();
        n.add_d_latch("d", "clk", "master").unwrap();
        n.add_d_latch("master_q", "nclk", "slave").unwrap();
        // Declare the slave's reset state (q = 0); the opaque latch
        // would otherwise be metastable at power-on.
        let reset = Evaluation::initial_state([
            ("slave_q".to_owned(), false),
            ("slave_qbar".to_owned(), true),
        ]);
        // clk high: master samples d = 1; slave holds its reset 0.
        let e1 = n
            .evaluate_seeded(&[("d", true), ("clk", true)], Some(&reset))
            .unwrap();
        assert!(e1.value("master_q").unwrap());
        // clk low: slave copies the master's 1.
        let e2 = n
            .evaluate_seeded(&[("d", false), ("clk", false)], Some(&e1))
            .unwrap();
        assert!(e2.value("slave_q").unwrap(), "bit moved to the slave");
        // Next high phase: master samples the new 0, slave keeps 1.
        let e3 = n
            .evaluate_seeded(&[("d", false), ("clk", true)], Some(&e2))
            .unwrap();
        assert!(!e3.value("master_q").unwrap());
        assert!(e3.value("slave_q").unwrap());
    }

    #[test]
    fn undriven_inputs_default_low() {
        let mut n = GateNetwork::new();
        n.add_gate(GateKind::Nor2, &["a", "b"], "y").unwrap();
        let e = n.evaluate(&[]).unwrap();
        assert!(e.value("y").unwrap());
    }
}
