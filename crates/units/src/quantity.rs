//! Strongly-typed scalar physical quantities.
//!
//! Each quantity wraps an `f64` in SI base units and exposes unit-named
//! constructors and accessors. Same-type addition/subtraction, scalar
//! multiplication, and the handful of physically meaningful cross-type
//! operations (`Voltage / Current = Resistance`, `Charge / Voltage =
//! Capacitance`, ...) are implemented; everything else is a compile error,
//! which is the point.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::consts;
use crate::eng::Eng;

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, si = $si:literal, base = $base:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw value in SI base units.
            #[inline]
            pub const fn $base(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// `true` if the underlying value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// The greater of `self` and `other` (NaN-propagating like `f64::max`).
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The lesser of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", Eng(self.0), $si)
            }
        }
    };
}

quantity! {
    /// Electric potential, stored in volts.
    Voltage, si = "V", base = volts
}
quantity! {
    /// Electric current, stored in amperes.
    Current, si = "A", base = amperes
}
quantity! {
    /// Current per unit device width (the paper's `mA/µm`), stored in A/m.
    CurrentDensity, si = "A/m", base = amps_per_meter
}
quantity! {
    /// Length, stored in meters.
    Length, si = "m", base = meters
}
quantity! {
    /// Energy, stored in joules.
    Energy, si = "J", base = joules
}
quantity! {
    /// Electric charge, stored in coulombs.
    Charge, si = "C", base = coulombs
}
quantity! {
    /// Capacitance, stored in farads.
    Capacitance, si = "F", base = farads
}
quantity! {
    /// Resistance, stored in ohms.
    Resistance, si = "Ω", base = ohms
}
quantity! {
    /// Conductance, stored in siemens.
    Conductance, si = "S", base = siemens
}
quantity! {
    /// Time, stored in seconds.
    Time, si = "s", base = seconds
}
quantity! {
    /// Absolute temperature, stored in kelvin.
    Temperature, si = "K", base = kelvin
}

impl Voltage {
    /// Constructs a voltage from a value in volts.
    #[inline]
    pub const fn from_volts(v: f64) -> Self {
        Self(v)
    }

    /// Constructs a voltage from a value in millivolts.
    #[inline]
    pub const fn from_millivolts(mv: f64) -> Self {
        Self(mv * 1e-3)
    }

    /// Value in millivolts.
    #[inline]
    pub const fn millivolts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Current {
    /// Constructs a current from a value in amperes.
    #[inline]
    pub const fn from_amperes(a: f64) -> Self {
        Self(a)
    }

    /// Constructs a current from a value in microamperes.
    #[inline]
    pub const fn from_microamperes(ua: f64) -> Self {
        Self(ua * 1e-6)
    }

    /// Value in microamperes.
    #[inline]
    pub const fn microamperes(self) -> f64 {
        self.0 * 1e6
    }

    /// Value in nanoamperes.
    #[inline]
    pub const fn nanoamperes(self) -> f64 {
        self.0 * 1e9
    }

    /// Normalizes this current by a device width, producing the per-width
    /// density the paper's benchmark plots use.
    #[inline]
    pub fn per_width(self, width: Length) -> CurrentDensity {
        CurrentDensity(self.0 / width.0)
    }
}

impl CurrentDensity {
    /// Constructs a density from mA/µm.
    #[inline]
    pub const fn from_milliamps_per_micron(v: f64) -> Self {
        Self(v * 1e3)
    }

    /// Value in µA/µm (numerically equal to A/m).
    #[inline]
    pub const fn microamps_per_micron(self) -> f64 {
        self.0
    }

    /// Value in mA/µm.
    #[inline]
    pub const fn milliamps_per_micron(self) -> f64 {
        self.0 * 1e-3
    }

    /// Total current through a device of the given width.
    #[inline]
    pub fn times_width(self, width: Length) -> Current {
        Current(self.0 * width.0)
    }
}

impl Length {
    /// Constructs a length from a value in meters.
    #[inline]
    pub const fn from_meters(m: f64) -> Self {
        Self(m)
    }

    /// Constructs a length from a value in nanometers.
    #[inline]
    pub const fn from_nanometers(nm: f64) -> Self {
        Self(nm * 1e-9)
    }

    /// Constructs a length from a value in micrometers.
    #[inline]
    pub const fn from_micrometers(um: f64) -> Self {
        Self(um * 1e-6)
    }

    /// Value in nanometers.
    #[inline]
    pub const fn nanometers(self) -> f64 {
        self.0 * 1e9
    }

    /// Value in micrometers.
    #[inline]
    pub const fn micrometers(self) -> f64 {
        self.0 * 1e6
    }
}

impl Energy {
    /// Constructs an energy from a value in joules.
    #[inline]
    pub const fn from_joules(j: f64) -> Self {
        Self(j)
    }

    /// Constructs an energy from a value in electron-volts.
    #[inline]
    pub const fn from_electron_volts(ev: f64) -> Self {
        Self(ev * consts::Q_E)
    }

    /// Value in electron-volts.
    #[inline]
    pub const fn electron_volts(self) -> f64 {
        self.0 / consts::Q_E
    }
}

impl Charge {
    /// Charge of `n` elementary charges.
    #[inline]
    pub fn elementary(n: f64) -> Self {
        Self(n * consts::Q_E)
    }
}

impl Capacitance {
    /// Constructs a capacitance from a value in farads.
    #[inline]
    pub const fn from_farads(f: f64) -> Self {
        Self(f)
    }

    /// Constructs a capacitance from a value in femtofarads.
    #[inline]
    pub const fn from_femtofarads(ff: f64) -> Self {
        Self(ff * 1e-15)
    }

    /// Constructs a capacitance from a value in attofarads.
    #[inline]
    pub const fn from_attofarads(af: f64) -> Self {
        Self(af * 1e-18)
    }

    /// Value in femtofarads.
    #[inline]
    pub const fn femtofarads(self) -> f64 {
        self.0 * 1e15
    }
}

impl Resistance {
    /// Constructs a resistance from a value in ohms.
    #[inline]
    pub const fn from_ohms(o: f64) -> Self {
        Self(o)
    }

    /// Constructs a resistance from a value in kilohms.
    #[inline]
    pub const fn from_kilohms(k: f64) -> Self {
        Self(k * 1e3)
    }

    /// Value in kilohms.
    #[inline]
    pub const fn kilohms(self) -> f64 {
        self.0 * 1e-3
    }

    /// The reciprocal conductance.
    ///
    /// # Panics
    ///
    /// Panics if the resistance is zero.
    #[inline]
    pub fn to_conductance(self) -> Conductance {
        assert!(self.0 != 0.0, "zero resistance has no finite conductance");
        Conductance(1.0 / self.0)
    }
}

impl Conductance {
    /// The reciprocal resistance.
    ///
    /// # Panics
    ///
    /// Panics if the conductance is zero.
    #[inline]
    pub fn to_resistance(self) -> Resistance {
        assert!(self.0 != 0.0, "zero conductance has no finite resistance");
        Resistance(1.0 / self.0)
    }
}

impl Time {
    /// Constructs a time from a value in seconds.
    #[inline]
    pub const fn from_seconds(s: f64) -> Self {
        Self(s)
    }

    /// Constructs a time from a value in picoseconds.
    #[inline]
    pub const fn from_picoseconds(ps: f64) -> Self {
        Self(ps * 1e-12)
    }

    /// Constructs a time from a value in nanoseconds.
    #[inline]
    pub const fn from_nanoseconds(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Value in picoseconds.
    #[inline]
    pub const fn picoseconds(self) -> f64 {
        self.0 * 1e12
    }
}

impl Temperature {
    /// Constructs a temperature from a value in kelvin.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative (below absolute zero) or NaN.
    #[inline]
    pub fn from_kelvin(k: f64) -> Self {
        assert!(k >= 0.0, "temperature below absolute zero: {k} K");
        Self(k)
    }

    /// Room temperature, 300 K.
    #[inline]
    pub fn room() -> Self {
        Self(consts::ROOM_TEMPERATURE)
    }

    /// Thermal voltage kT/q at this temperature.
    #[inline]
    pub fn thermal_voltage(self) -> Voltage {
        Voltage(consts::K_B * self.0 / consts::Q_E)
    }

    /// Thermal energy kT at this temperature.
    #[inline]
    pub fn thermal_energy(self) -> Energy {
        Energy(consts::K_B * self.0)
    }
}

// ---- physically meaningful cross-type operations ----

impl Div<Current> for Voltage {
    type Output = Resistance;
    #[inline]
    fn div(self, rhs: Current) -> Resistance {
        Resistance(self.0 / rhs.0)
    }
}

impl Div<Resistance> for Voltage {
    type Output = Current;
    #[inline]
    fn div(self, rhs: Resistance) -> Current {
        Current(self.0 / rhs.0)
    }
}

impl Mul<Resistance> for Current {
    type Output = Voltage;
    #[inline]
    fn mul(self, rhs: Resistance) -> Voltage {
        Voltage(self.0 * rhs.0)
    }
}

impl Mul<Current> for Resistance {
    type Output = Voltage;
    #[inline]
    fn mul(self, rhs: Current) -> Voltage {
        Voltage(self.0 * rhs.0)
    }
}

impl Mul<Voltage> for Conductance {
    type Output = Current;
    #[inline]
    fn mul(self, rhs: Voltage) -> Current {
        Current(self.0 * rhs.0)
    }
}

impl Div<Voltage> for Charge {
    type Output = Capacitance;
    #[inline]
    fn div(self, rhs: Voltage) -> Capacitance {
        Capacitance(self.0 / rhs.0)
    }
}

impl Mul<Voltage> for Capacitance {
    type Output = Charge;
    #[inline]
    fn mul(self, rhs: Voltage) -> Charge {
        Charge(self.0 * rhs.0)
    }
}

impl Div<Time> for Charge {
    type Output = Current;
    #[inline]
    fn div(self, rhs: Time) -> Current {
        Current(self.0 / rhs.0)
    }
}

impl Mul<Time> for Current {
    type Output = Charge;
    #[inline]
    fn mul(self, rhs: Time) -> Charge {
        Charge(self.0 * rhs.0)
    }
}

impl Mul<Capacitance> for Resistance {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Capacitance) -> Time {
        Time(self.0 * rhs.0)
    }
}

impl Div<Voltage> for Energy {
    type Output = Charge;
    #[inline]
    fn div(self, rhs: Voltage) -> Charge {
        Charge(self.0 / rhs.0)
    }
}

impl Mul<Voltage> for Charge {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Voltage) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_round_trip() {
        assert_eq!(Voltage::from_millivolts(500.0).volts(), 0.5);
        assert!((Current::from_microamperes(20.0).amperes() - 20e-6).abs() < 1e-18);
        assert!((Length::from_nanometers(9.0).nanometers() - 9.0).abs() < 1e-12);
        assert_eq!(Energy::from_electron_volts(0.56).electron_volts(), 0.56);
        assert!((Capacitance::from_femtofarads(10.0).farads() - 10e-15).abs() < 1e-27);
        assert_eq!(Resistance::from_kilohms(50.0).ohms(), 50_000.0);
        assert_eq!(Time::from_picoseconds(3.0).seconds(), 3e-12);
    }

    #[test]
    fn ohms_law_combinations() {
        let v = Voltage::from_volts(1.0);
        let i = Current::from_microamperes(10.0);
        let r = v / i;
        assert!((r.kilohms() - 100.0).abs() < 1e-9);
        let v2 = i * r;
        assert!((v2.volts() - 1.0).abs() < 1e-12);
        let i2 = v / r;
        assert!((i2.microamperes() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rc_time_constant() {
        let tau = Resistance::from_kilohms(50.0) * Capacitance::from_femtofarads(10.0);
        assert!((tau.picoseconds() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn current_density_normalization() {
        // 20 µA through a 1 µm wide device is 20 µA/µm.
        let d = Current::from_microamperes(20.0).per_width(Length::from_micrometers(1.0));
        assert!((d.microamps_per_micron() - 20.0).abs() < 1e-9);
        // 2 mA/µm (the sub-10nm GNR claim) through 10 nm width is 20 µA.
        let i = CurrentDensity::from_milliamps_per_micron(2.0)
            .times_width(Length::from_nanometers(10.0));
        assert!((i.microamperes() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn thermal_voltage_room() {
        let vt = Temperature::room().thermal_voltage();
        assert!((vt.millivolts() - 25.85).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "absolute zero")]
    fn negative_temperature_panics() {
        let _ = Temperature::from_kelvin(-1.0);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Voltage::from_volts(0.3);
        let b = Voltage::from_volts(0.2);
        assert!(((a + b).volts() - 0.5).abs() < 1e-12);
        assert!(((a - b).volts() - 0.1).abs() < 1e-12);
        assert!(a > b);
        assert_eq!((-a).volts(), -0.3);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!((2.0 * a).volts(), 0.6);
        assert!(((a / 3.0).volts() - 0.1).abs() < 1e-12);
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Current = (1..=4).map(|k| Current::from_microamperes(k as f64)).sum();
        assert!((total.microamperes() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(format!("{}", Current::from_microamperes(20.0)), "20 µA");
        assert_eq!(format!("{}", Voltage::from_volts(0.5)), "500 mV");
        assert_eq!(format!("{}", Resistance::from_kilohms(50.0)), "50 kΩ");
    }

    #[test]
    fn energy_charge_voltage_relations() {
        let e = Charge::elementary(1.0) * Voltage::from_volts(0.56);
        assert!((e.electron_volts() - 0.56).abs() < 1e-12);
        let q = e / Voltage::from_volts(0.56);
        assert!((q.coulombs() - crate::consts::Q_E).abs() < 1e-30);
    }

    #[test]
    fn conversion_between_r_and_g() {
        let g = Resistance::from_kilohms(10.0).to_conductance();
        assert!((g.siemens() - 1e-4).abs() < 1e-12);
        assert!((g.to_resistance().kilohms() - 10.0).abs() < 1e-9);
        let i = g * Voltage::from_volts(2.0);
        assert!((i.microamperes() - 200.0).abs() < 1e-9);
    }
}
