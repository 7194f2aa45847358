//! Netlist construction: nodes, elements, and the [`Circuit`] builder.

use std::collections::HashMap;
use std::sync::Arc;

use crate::element::{Element, ElementKind, FetCurve};
use crate::error::SpiceError;
use crate::waveform::Waveform;

/// Identifier of a circuit node. [`NodeId::GROUND`] is the reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground/reference node (named `"0"` or `"gnd"`).
    pub const GROUND: NodeId = NodeId(0);

    /// Index into the unknown vector, or `None` for ground.
    #[inline]
    pub(crate) fn unknown_index(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

/// Whether `name` is the reference node: `"0"` or `"gnd"`, in any case.
pub(crate) fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// A circuit under construction plus its node registry.
///
/// Node names are free-form strings; `"0"` and `"gnd"` (case-insensitive)
/// are the reference node. Element names must be unique.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Default, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    pub(crate) elements: Vec<Element>,
    element_index: HashMap<String, usize>,
    pub(crate) num_branches: usize,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node name, creating the node on first use.
    pub fn node(&mut self, name: &str) -> NodeId {
        if is_ground(name) {
            return NodeId::GROUND;
        }
        let lower = name.to_ascii_lowercase();
        if let Some(&id) = self.node_index.get(&lower) {
            return id;
        }
        let id = NodeId(self.node_names.len() + 1);
        self.node_names.push(lower.clone());
        self.node_index.insert(lower, id);
        id
    }

    /// Looks up an existing node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] if the node was never used.
    pub fn find_node(&self, name: &str) -> Result<NodeId, SpiceError> {
        if is_ground(name) {
            return Ok(NodeId::GROUND);
        }
        self.node_index
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or(SpiceError::UnknownNode {
                name: name.to_owned(),
            })
    }

    /// Number of node-voltage unknowns (excludes ground).
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Total unknowns: node voltages + source branch currents.
    pub(crate) fn num_unknowns(&self) -> usize {
        self.num_nodes() + self.num_branches
    }

    /// Name of a node-voltage unknown (for diagnostics).
    pub(crate) fn node_name(&self, id: NodeId) -> &str {
        if id.0 == 0 {
            "gnd"
        } else {
            &self.node_names[id.0 - 1]
        }
    }

    fn register(&mut self, name: &str, kind: ElementKind) -> Result<(), SpiceError> {
        // Element names are case-insensitive, as in classic SPICE.
        let name = name.to_ascii_lowercase();
        if self.element_index.contains_key(&name) {
            return Err(SpiceError::DuplicateElement { name });
        }
        self.element_index.insert(name.clone(), self.elements.len());
        self.elements.push(Element { name, kind });
        Ok(())
    }

    /// Adds a resistor of `ohms` between `p` and `n`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance and duplicate names.
    pub fn resistor(&mut self, name: &str, p: &str, n: &str, ohms: f64) -> Result<(), SpiceError> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: format!("resistance must be positive and finite, got {ohms}"),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        self.register(
            name,
            ElementKind::Resistor {
                p,
                n,
                g: 1.0 / ohms,
            },
        )
    }

    /// Adds a capacitor of `farads` between `p` and `n`.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite capacitance and duplicate names.
    pub fn capacitor(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        farads: f64,
    ) -> Result<(), SpiceError> {
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: format!("capacitance must be non-negative and finite, got {farads}"),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        self.register(name, ElementKind::Capacitor { p, n, c: farads })
    }

    /// Adds an inductor of `henries` between `p` and `n`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite inductance and duplicate
    /// names.
    pub fn inductor(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        henries: f64,
    ) -> Result<(), SpiceError> {
        if !(henries.is_finite() && henries > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: format!("inductance must be positive and finite, got {henries}"),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        let branch = self.num_branches;
        self.num_branches += 1;
        self.register(
            name,
            ElementKind::Inductor {
                p,
                n,
                branch,
                l: henries,
            },
        )
    }

    /// Adds a DC voltage source of `volts` from `p` (+) to `n` (−).
    ///
    /// # Panics
    ///
    /// Panics if an element with the same name exists (use distinct
    /// names); sources are so central that the builder keeps this
    /// infallible for ergonomic examples.
    pub fn voltage_source(&mut self, name: &str, p: &str, n: &str, volts: f64) {
        self.voltage_source_wave(name, p, n, Waveform::Dc(volts))
            .expect("voltage source construction cannot fail for finite DC values");
    }

    /// Adds a voltage source with an arbitrary waveform.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and non-finite DC values.
    pub fn voltage_source_wave(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        if !wave.dc_value().is_finite() {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: "source value must be finite".to_owned(),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        let branch = self.num_branches;
        self.num_branches += 1;
        self.register(name, ElementKind::VoltageSource { p, n, branch, wave })
    }

    /// Adds a DC current source pushing `amps` from `n` into `p`
    /// (i.e. out of the `p` terminal into the circuit).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and non-finite values.
    pub fn current_source(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        amps: f64,
    ) -> Result<(), SpiceError> {
        self.current_source_wave(name, p, n, Waveform::Dc(amps))
    }

    /// Adds a current source with an arbitrary waveform.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and non-finite DC values.
    pub fn current_source_wave(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        if !wave.dc_value().is_finite() {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: "source value must be finite".to_owned(),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        self.register(name, ElementKind::CurrentSource { p, n, wave })
    }

    /// Adds a Shockley diode `p → n`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive saturation current or ideality factor.
    pub fn diode(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        i_s: f64,
        n_ideality: f64,
    ) -> Result<(), SpiceError> {
        if !(i_s.is_finite() && i_s > 0.0 && n_ideality.is_finite() && n_ideality > 0.0) {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: format!("diode needs i_s > 0 and n > 0, got i_s = {i_s}, n = {n_ideality}"),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        self.register(
            name,
            ElementKind::Diode {
                p,
                n,
                i_s,
                n_ideality,
            },
        )
    }

    /// Adds a voltage-controlled current source: `gm·(v(cp) − v(cn))`
    /// injected from `n` into `p`.
    ///
    /// # Errors
    ///
    /// Rejects non-finite transconductance.
    pub fn vccs(
        &mut self,
        name: &str,
        p: &str,
        n: &str,
        cp: &str,
        cn: &str,
        gm: f64,
    ) -> Result<(), SpiceError> {
        if !gm.is_finite() {
            return Err(SpiceError::InvalidValue {
                element: name.to_owned(),
                reason: format!("transconductance must be finite, got {gm}"),
            });
        }
        let (p, n) = (self.node(p), self.node(n));
        let (cp, cn) = (self.node(cp), self.node(cn));
        self.register(name, ElementKind::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a three-terminal FET (drain, gate, source) driven by a
    /// compact model.
    ///
    /// # Errors
    ///
    /// Rejects duplicate element names.
    pub fn fet(
        &mut self,
        name: &str,
        drain: &str,
        gate: &str,
        source: &str,
        model: Arc<dyn FetCurve>,
    ) -> Result<(), SpiceError> {
        let (d, g, s) = (self.node(drain), self.node(gate), self.node(source));
        self.register(name, ElementKind::Fet { d, g, s, model })
    }

    /// Replaces the DC value of the named voltage or current source —
    /// the primitive DC sweeps are built on.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSource`] if no source has that name.
    pub fn set_source_value(&mut self, name: &str, value: f64) -> Result<(), SpiceError> {
        let idx = *self
            .element_index
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| SpiceError::UnknownSource {
                name: name.to_owned(),
            })?;
        match &mut self.elements[idx].kind {
            ElementKind::VoltageSource { wave, .. } | ElementKind::CurrentSource { wave, .. } => {
                *wave = Waveform::Dc(value);
                Ok(())
            }
            _ => Err(SpiceError::UnknownSource {
                name: name.to_owned(),
            }),
        }
    }

    /// Number of elements in the circuit.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert_eq!(c.node("GND"), NodeId::GROUND);
        assert_eq!(c.num_nodes(), 0);
    }

    #[test]
    fn node_interning_is_case_insensitive_and_stable() {
        let mut c = Circuit::new();
        let a = c.node("OUT");
        let b = c.node("out");
        assert_eq!(a, b);
        assert_eq!(c.num_nodes(), 1);
        assert_eq!(c.find_node("Out").unwrap(), a);
        assert!(c.find_node("nope").is_err());
    }

    #[test]
    fn duplicate_element_names_rejected() {
        let mut c = Circuit::new();
        c.resistor("r1", "a", "0", 1e3).unwrap();
        let err = c.resistor("r1", "b", "0", 2e3).unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateElement { .. }));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut c = Circuit::new();
        assert!(c.resistor("r", "a", "0", 0.0).is_err());
        assert!(c.resistor("r", "a", "0", -5.0).is_err());
        assert!(c.resistor("r", "a", "0", f64::NAN).is_err());
        assert!(c.capacitor("c", "a", "0", -1e-15).is_err());
        assert!(c.capacitor("c0", "a", "0", 0.0).is_ok(), "zero cap allowed");
        assert!(c.diode("d", "a", "0", 0.0, 1.0).is_err());
        assert!(c.diode("d", "a", "0", 1e-15, -1.0).is_err());
        assert!(c.vccs("g", "a", "0", "b", "0", f64::INFINITY).is_err());
    }

    #[test]
    fn branch_unknowns_counted() {
        let mut c = Circuit::new();
        c.voltage_source("v1", "a", "0", 1.0);
        c.voltage_source("v2", "b", "0", 2.0);
        c.resistor("r", "a", "b", 1e3).unwrap();
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.num_unknowns(), 4);
        assert_eq!(c.num_elements(), 3);
    }

    #[test]
    fn set_source_value_only_touches_sources() {
        let mut c = Circuit::new();
        c.voltage_source("vdd", "a", "0", 1.0);
        c.resistor("r", "a", "0", 1e3).unwrap();
        c.set_source_value("vdd", 0.5).unwrap();
        assert!(c.set_source_value("r", 0.5).is_err());
        assert!(c.set_source_value("ghost", 0.5).is_err());
    }

    #[test]
    fn node_name_lookup() {
        let mut c = Circuit::new();
        let a = c.node("alpha");
        assert_eq!(c.node_name(a), "alpha");
        assert_eq!(c.node_name(NodeId::GROUND), "gnd");
    }
}
