//! Strongly typed physical quantities.
//!
//! Each quantity is a thin newtype over `f64` storing the value in its SI
//! base unit. Constructors are unit-named (`Length::from_nanometers`), and
//! accessors convert back (`length.nanometers()`), so call sites read
//! unambiguously and the compiler rejects unit mix-ups (C-NEWTYPE).
//!
//! Quantities implement the common traits (C-COMMON-TRAITS) plus the small
//! set of arithmetic operators that are physically meaningful: same-type
//! addition/subtraction, scaling by `f64`, and a few cross-type products
//! such as `Voltage / Current = Resistance`.
//!
//! ```
//! use cnt_units::si::{Voltage, Current};
//!
//! let r = Voltage::from_volts(1.0) / Current::from_microamps(50.0);
//! assert!((r.kilo_ohms() - 20.0).abs() < 1e-12);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $base_unit:literal {
            $( $(#[$cmeta:meta])* $ctor:ident / $getter:ident => $scale:expr ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity directly from its SI base-unit value.
            #[inline]
            pub const fn new(base: f64) -> Self {
                Self(base)
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            $(
                $(#[$cmeta])*
                #[inline]
                pub fn $ctor(v: f64) -> Self {
                    Self(v * $scale)
                }

                #[doc = concat!("Returns the value converted from the base unit (", $base_unit, ").")]
                #[inline]
                pub fn $getter(self) -> f64 {
                    self.0 / $scale
                }
            )+
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", crate::fmt_eng::engineering(self.0, $base_unit))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
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

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity! {
    /// A length, stored in metres.
    Length, "m" {
        /// Creates a length from metres.
        from_meters / meters => 1.0,
        /// Creates a length from millimetres.
        from_millimeters / millimeters => 1e-3,
        /// Creates a length from micrometres.
        from_micrometers / micrometers => 1e-6,
        /// Creates a length from nanometres.
        from_nanometers / nanometers => 1e-9,
        /// Creates a length from ångströms.
        from_angstroms / angstroms => 1e-10,
    }
}

quantity! {
    /// An area, stored in square metres.
    Area, "m²" {
        /// Creates an area from square metres.
        from_square_meters / square_meters => 1.0,
        /// Creates an area from square micrometres.
        from_square_micrometers / square_micrometers => 1e-12,
        /// Creates an area from square nanometres.
        from_square_nanometers / square_nanometers => 1e-18,
        /// Creates an area from square centimetres.
        from_square_centimeters / square_centimeters => 1e-4,
    }
}

quantity! {
    /// A thermodynamic temperature, stored in kelvin.
    Temperature, "K" {
        /// Creates a temperature from kelvin.
        from_kelvin / kelvin => 1.0,
    }
}

impl Temperature {
    /// Creates a temperature from degrees Celsius.
    #[inline]
    pub fn from_celsius(c: f64) -> Self {
        Self::from_kelvin(c + 273.15)
    }

    /// Returns the temperature in degrees Celsius.
    #[inline]
    pub fn celsius(self) -> f64 {
        self.kelvin() - 273.15
    }
}

quantity! {
    /// An electrical resistance, stored in ohms.
    Resistance, "Ω" {
        /// Creates a resistance from ohms.
        from_ohms / ohms => 1.0,
        /// Creates a resistance from kilo-ohms.
        from_kilo_ohms / kilo_ohms => 1e3,
        /// Creates a resistance from mega-ohms.
        from_mega_ohms / mega_ohms => 1e6,
    }
}

quantity! {
    /// An electrical conductance, stored in siemens.
    Conductance, "S" {
        /// Creates a conductance from siemens.
        from_siemens / siemens => 1.0,
        /// Creates a conductance from millisiemens.
        from_millisiemens / millisiemens => 1e-3,
        /// Creates a conductance from microsiemens.
        from_microsiemens / microsiemens => 1e-6,
    }
}

impl Conductance {
    /// Returns the reciprocal resistance.
    #[inline]
    pub fn to_resistance(self) -> Resistance {
        Resistance::from_ohms(1.0 / self.siemens())
    }
}

quantity! {
    /// A capacitance, stored in farads.
    Capacitance, "F" {
        /// Creates a capacitance from farads.
        from_farads / farads => 1.0,
        /// Creates a capacitance from picofarads.
        from_picofarads / picofarads => 1e-12,
        /// Creates a capacitance from femtofarads.
        from_femtofarads / femtofarads => 1e-15,
        /// Creates a capacitance from attofarads.
        from_attofarads / attofarads => 1e-18,
    }
}

quantity! {
    /// An inductance, stored in henries.
    Inductance, "H" {
        /// Creates an inductance from henries.
        from_henries / henries => 1.0,
        /// Creates an inductance from nanohenries.
        from_nanohenries / nanohenries => 1e-9,
        /// Creates an inductance from picohenries.
        from_picohenries / picohenries => 1e-12,
    }
}

quantity! {
    /// An electric potential, stored in volts.
    Voltage, "V" {
        /// Creates a voltage from volts.
        from_volts / volts => 1.0,
        /// Creates a voltage from millivolts.
        from_millivolts / millivolts => 1e-3,
    }
}

quantity! {
    /// An electric current, stored in amperes.
    Current, "A" {
        /// Creates a current from amperes.
        from_amps / amps => 1.0,
        /// Creates a current from milliamperes.
        from_milliamps / milliamps => 1e-3,
        /// Creates a current from microamperes.
        from_microamps / microamps => 1e-6,
        /// Creates a current from nanoamperes.
        from_nanoamps / nanoamps => 1e-9,
    }
}

quantity! {
    /// A current density, stored in A/m².
    CurrentDensity, "A/m²" {
        /// Creates a current density from A/m².
        from_amps_per_square_meter / amps_per_square_meter => 1.0,
        /// Creates a current density from A/cm² (the paper's unit).
        from_amps_per_square_centimeter / amps_per_square_centimeter => 1e4,
        /// Creates a current density from MA/cm².
        from_mega_amps_per_square_centimeter / mega_amps_per_square_centimeter => 1e10,
    }
}

quantity! {
    /// An energy, stored in joules.
    Energy, "J" {
        /// Creates an energy from joules.
        from_joules / joules => 1.0,
        /// Creates an energy from electronvolts.
        from_electron_volts / electron_volts => crate::consts::Q_E,
        /// Creates an energy from femtojoules.
        from_femtojoules / femtojoules => 1e-15,
    }
}

quantity! {
    /// A time interval, stored in seconds.
    Time, "s" {
        /// Creates a time from seconds.
        from_seconds / seconds => 1.0,
        /// Creates a time from hours.
        from_hours / hours => 3600.0,
        /// Creates a time from nanoseconds.
        from_nanoseconds / nanoseconds => 1e-9,
        /// Creates a time from picoseconds.
        from_picoseconds / picoseconds => 1e-12,
    }
}

quantity! {
    /// A frequency, stored in hertz.
    Frequency, "Hz" {
        /// Creates a frequency from hertz.
        from_hertz / hertz => 1.0,
        /// Creates a frequency from gigahertz.
        from_gigahertz / gigahertz => 1e9,
    }
}

quantity! {
    /// A power, stored in watts.
    Power, "W" {
        /// Creates a power from watts.
        from_watts / watts => 1.0,
        /// Creates a power from milliwatts.
        from_milliwatts / milliwatts => 1e-3,
        /// Creates a power from microwatts.
        from_microwatts / microwatts => 1e-6,
    }
}

quantity! {
    /// An electrical resistivity, stored in Ω·m.
    Resistivity, "Ω·m" {
        /// Creates a resistivity from Ω·m.
        from_ohm_meters / ohm_meters => 1.0,
        /// Creates a resistivity from µΩ·cm.
        from_micro_ohm_centimeters / micro_ohm_centimeters => 1e-8,
    }
}

quantity! {
    /// A thermal conductivity, stored in W/(m·K).
    ThermalConductivity, "W/(m·K)" {
        /// Creates a thermal conductivity from W/(m·K).
        from_watts_per_meter_kelvin / watts_per_meter_kelvin => 1.0,
    }
}

quantity! {
    /// An electric charge, stored in coulombs.
    Charge, "C" {
        /// Creates a charge from coulombs.
        from_coulombs / coulombs => 1.0,
        /// Creates a charge from femtocoulombs.
        from_femtocoulombs / femtocoulombs => 1e-15,
    }
}

// --- Cross-type arithmetic (only physically meaningful combinations) ---

impl Div<Current> for Voltage {
    type Output = Resistance;
    /// Ohm's law: `R = V / I`.
    #[inline]
    fn div(self, rhs: Current) -> Resistance {
        Resistance::from_ohms(self.volts() / rhs.amps())
    }
}

impl Div<Resistance> for Voltage {
    type Output = Current;
    /// Ohm's law: `I = V / R`.
    #[inline]
    fn div(self, rhs: Resistance) -> Current {
        Current::from_amps(self.volts() / rhs.ohms())
    }
}

impl Mul<Resistance> for Current {
    type Output = Voltage;
    /// Ohm's law: `V = I·R`.
    #[inline]
    fn mul(self, rhs: Resistance) -> Voltage {
        Voltage::from_volts(self.amps() * rhs.ohms())
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    /// Electrical power: `P = V·I`.
    #[inline]
    fn mul(self, rhs: Current) -> Power {
        Power::from_watts(self.volts() * rhs.amps())
    }
}

impl Mul<Area> for CurrentDensity {
    type Output = Current;
    /// Total current through a cross-section: `I = J·A`.
    #[inline]
    fn mul(self, rhs: Area) -> Current {
        Current::from_amps(self.amps_per_square_meter() * rhs.square_meters())
    }
}

impl Div<Area> for Current {
    type Output = CurrentDensity;
    /// Current density in a cross-section: `J = I/A`.
    #[inline]
    fn div(self, rhs: Area) -> CurrentDensity {
        CurrentDensity::from_amps_per_square_meter(self.amps() / rhs.square_meters())
    }
}

impl Mul<Length> for Length {
    type Output = Area;
    /// Rectangle area: `A = w·h`.
    #[inline]
    fn mul(self, rhs: Length) -> Area {
        Area::from_square_meters(self.meters() * rhs.meters())
    }
}

impl Mul<Resistance> for Capacitance {
    type Output = Time;
    /// RC time constant: `τ = R·C`.
    #[inline]
    fn mul(self, rhs: Resistance) -> Time {
        Time::from_seconds(self.farads() * rhs.ohms())
    }
}

impl Mul<Capacitance> for Resistance {
    type Output = Time;
    /// RC time constant: `τ = R·C`.
    #[inline]
    fn mul(self, rhs: Capacitance) -> Time {
        Time::from_seconds(self.ohms() * rhs.farads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_roundtrip() {
        let l = Length::from_nanometers(7.5);
        assert!((l.nanometers() - 7.5).abs() < 1e-12);
        assert!((l.micrometers() - 0.0075).abs() < 1e-15);
        assert!((l.meters() - 7.5e-9).abs() < 1e-21);
    }

    #[test]
    fn temperature_celsius() {
        let t = Temperature::from_celsius(400.0);
        assert!((t.kelvin() - 673.15).abs() < 1e-9);
        assert!((t.celsius() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn resistance_conductance_reciprocal() {
        let r = Resistance::from_kilo_ohms(12.906);
        let g = Conductance::from_siemens(1.0 / r.ohms());
        assert!((g.microsiemens() - 77.48).abs() < 0.02);
        let back = g.to_resistance();
        assert!((back.ohms() - r.ohms()).abs() < 1e-9);
    }

    #[test]
    fn ohms_law_types() {
        let v = Voltage::from_volts(1.0);
        let i = Current::from_microamps(20.0);
        let r = v / i;
        assert!((r.kilo_ohms() - 50.0).abs() < 1e-9);
        let i2 = v / r;
        assert!((i2.microamps() - 20.0).abs() < 1e-9);
        let p = v * i;
        assert!((p.microwatts() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn current_density_area() {
        // Paper, Section I: 100 nm × 50 nm Cu wire at 10⁶ A/cm² carries 50 µA.
        let j = CurrentDensity::from_amps_per_square_centimeter(1e6);
        let a = Length::from_nanometers(100.0) * Length::from_nanometers(50.0);
        let i = j * a;
        assert!((i.microamps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rc_time_constant() {
        let tau = Resistance::from_kilo_ohms(1.0) * Capacitance::from_femtofarads(100.0);
        assert!((tau.picoseconds() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Length::from_nanometers(10.0);
        let b = Length::from_nanometers(4.0);
        assert!((a + b).nanometers() > (a - b).nanometers());
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert!((-(a - b)).nanometers() < 0.0);
        let sum: Length = [a, b, b].into_iter().sum();
        assert!((sum.nanometers() - 18.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_engineering_notation() {
        let c = Capacitance::from_attofarads(96.5);
        let s = format!("{c}");
        assert!(s.contains('F'), "display should mention the unit: {s}");
    }

    #[test]
    fn energy_ev_alias() {
        let e = Energy::from_electron_volts(2.7);
        assert!((e.electron_volts() - 2.7).abs() < 1e-12);
        assert!((e.joules() - 2.7 * crate::consts::Q_E).abs() < 1e-30);
    }
}
