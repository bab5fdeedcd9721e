//! Input classes.
//!
//! The paper runs the suites at their standard Splash-3 input sizes on a
//! 64-core machine. On this repository's reference host, inputs are offered
//! in three classes; `Native` approximates the paper's sizes scaled to stay
//! minutes-level on a small machine, `Small` is the characterization default,
//! and `Test` is CI-sized. Exact per-kernel parameters live in each kernel's
//! `Config::class` constructor and are summarized by the `T1-inputs` table.

use std::fmt;

/// Input size class for a kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputClass {
    /// Seconds-level CI inputs.
    Test,
    /// Default characterization inputs.
    Small,
    /// Paper-like inputs (scaled; see module docs).
    Native,
}

impl InputClass {
    /// Every class, smallest first.
    pub const ALL: [InputClass; 3] = [InputClass::Test, InputClass::Small, InputClass::Native];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            InputClass::Test => "test",
            InputClass::Small => "small",
            InputClass::Native => "native",
        }
    }

    /// Parse a label produced by [`InputClass::label`].
    pub fn from_label(s: &str) -> Option<InputClass> {
        match s.to_ascii_lowercase().as_str() {
            "test" => Some(InputClass::Test),
            "small" => Some(InputClass::Small),
            "native" => Some(InputClass::Native),
            _ => None,
        }
    }
}

impl fmt::Display for InputClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for c in InputClass::ALL {
            assert_eq!(InputClass::from_label(c.label()), Some(c));
        }
        assert_eq!(InputClass::from_label("check"), None);
        assert_eq!(InputClass::from_label("huge"), None);
    }
}
