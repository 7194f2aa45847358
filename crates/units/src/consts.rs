//! Physical constants (SI) and graphene/carbon-nanotube lattice parameters.
//!
//! Fundamental constants follow CODATA 2018. The graphene tight-binding
//! parameters (`A_CC`, `GAMMA_0`, `FERMI_VELOCITY`) are the values used by
//! the zone-folding compact models the paper's Fig. 1 simulation is based
//! on (Ouyang et al., Appl. Phys. Lett. 89, 203107 (2006)).

/// Elementary charge, C.
pub const Q_E: f64 = 1.602_176_634e-19;

/// Planck constant, J·s.
pub const PLANCK_H: f64 = 6.626_070_15e-34;

/// Reduced Planck constant ħ, J·s.
pub const HBAR: f64 = PLANCK_H / (2.0 * std::f64::consts::PI);

/// Boltzmann constant, J/K.
pub const K_B: f64 = 1.380_649e-23;

/// Vacuum permittivity ε₀, F/m.
pub const EPS_0: f64 = 8.854_187_812_8e-12;

/// Free-electron rest mass, kg.
pub const M_0: f64 = 9.109_383_701_5e-31;

/// Room temperature used throughout the paper's evaluation, K.
pub const ROOM_TEMPERATURE: f64 = 300.0;

/// Thermal voltage kT/q at 300 K, V (≈ 25.85 mV).
pub const VT_300K: f64 = K_B * ROOM_TEMPERATURE / Q_E;

/// Ideal (thermionic) subthreshold swing limit at 300 K, mV/decade.
///
/// The paper quotes "the theoretical limit of ~60 mV/dec at room
/// temperature"; the exact value is `ln(10)·kT/q ≈ 59.6 mV/dec`.
pub const SS_THERMAL_LIMIT_MV_PER_DEC: f64 = VT_300K * std::f64::consts::LN_10 * 1e3;

/// Carbon–carbon bond length in graphene, m (0.142 nm).
pub const A_CC: f64 = 0.142e-9;

/// Graphene lattice constant a = √3·a_cc, m (≈ 0.246 nm).
pub const A_LATTICE: f64 = 1.732_050_807_568_877_2 * A_CC;

/// Nearest-neighbour tight-binding hopping energy γ₀ of graphene, J
/// (3.0 eV, the value conventionally used in CNT zone-folding models).
pub const GAMMA_0: f64 = 3.0 * Q_E;

/// Graphene Fermi velocity v_F = 3·γ₀·a_cc / (2ħ), m/s (≈ 9.7·10⁵).
pub const FERMI_VELOCITY: f64 = 1.5 * GAMMA_0 * A_CC / HBAR;

/// Minimum two-terminal resistance of a single-walled CNT with 2 conducting
/// subbands (4 modes counting spin): h/(4q²) ≈ 6.45 kΩ.
///
/// The paper's Section III.B quotes 11 kΩ total serial resistance for the
/// best experimental CNT-FET; the quantum limit below is the floor any
/// contact engineering must approach.
pub const R_QUANTUM_CNT: f64 = PLANCK_H / (4.0 * Q_E * Q_E);

/// Relative permittivity of SiO₂.
pub const EPS_R_SIO2: f64 = 3.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_at_room_temperature() {
        assert!(
            (VT_300K - 0.025_85).abs() < 1e-4,
            "kT/q at 300 K ≈ 25.85 mV"
        );
    }

    #[test]
    fn subthreshold_limit_is_about_60mv_per_dec() {
        assert!((SS_THERMAL_LIMIT_MV_PER_DEC - 59.5).abs() < 0.5);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // compile-time sanity pin
    fn fermi_velocity_is_about_1e6() {
        assert!(FERMI_VELOCITY > 8.0e5 && FERMI_VELOCITY < 1.1e6);
    }

    #[test]
    fn cnt_quantum_resistance_is_6_45_kohm() {
        assert!((R_QUANTUM_CNT - 6453.2).abs() < 10.0);
    }

    #[test]
    fn lattice_constant_follows_bond_length() {
        assert!((A_LATTICE - 0.246e-9).abs() < 1e-12);
    }

    #[test]
    fn hbar_consistent_with_h() {
        assert!((HBAR * 2.0 * std::f64::consts::PI - PLANCK_H).abs() < 1e-45);
    }
}
