//! The microarchitecture registry: builtin specs plus runtime
//! registration of user-defined ones.

use std::sync::OnceLock;

use super::{parse_specs, SpecError, UarchSpec};
use crate::profile::UarchProfile;

/// An ordered collection of validated [`UarchSpec`]s, addressable by
/// registry key or display name (case-insensitive).
///
/// [`UarchRegistry::builtin`] serves the eight Table 1 specs in the
/// paper's order; [`UarchRegistry::with_builtins`] gives an owned copy
/// that accepts additional user specs (the `repro --spec` path).
///
/// # Examples
///
/// ```
/// use phantom_pipeline::UarchRegistry;
///
/// let reg = UarchRegistry::builtin();
/// assert_eq!(reg.specs().len(), 8);
/// assert_eq!(reg.get("zen2").unwrap().name, "Zen 2");
/// assert_eq!(reg.get("Zen 2").unwrap().key, "zen2"); // display name works too
/// assert!(reg.get("zen5").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct UarchRegistry {
    specs: Vec<UarchSpec>,
}

impl UarchRegistry {
    /// An empty registry.
    pub fn empty() -> UarchRegistry {
        UarchRegistry::default()
    }

    /// The shared registry of the eight builtin Table 1 specs.
    pub fn builtin() -> &'static UarchRegistry {
        static BUILTIN: OnceLock<UarchRegistry> = OnceLock::new();
        BUILTIN.get_or_init(UarchRegistry::with_builtins)
    }

    /// An owned registry seeded with the builtins, ready for
    /// user-defined additions via [`UarchRegistry::register`].
    pub fn with_builtins() -> UarchRegistry {
        let mut reg = UarchRegistry::empty();
        for spec in UarchSpec::builtins() {
            // The builtins are valid with distinct keys and names; the
            // registry's unit tests register every one of them.
            #[allow(clippy::expect_used)]
            reg.register(spec).expect("builtin specs are valid");
        }
        reg
    }

    /// Validate and add a spec. Keys and display names share one
    /// case-insensitive namespace, so a new spec can never shadow an
    /// existing one.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] if validation fails, or
    /// [`SpecError::Duplicate`] on a key/name collision.
    pub fn register(&mut self, spec: UarchSpec) -> Result<(), SpecError> {
        spec.validate()?;
        for taken in [&spec.key, &spec.name] {
            if self.get(taken).is_some() {
                return Err(SpecError::Duplicate(taken.clone()));
            }
        }
        self.specs.push(spec);
        Ok(())
    }

    /// Parse a spec file and register every block. Returns the keys
    /// registered, in file order.
    ///
    /// # Errors
    ///
    /// Propagates parse/validation errors; on a duplicate, specs
    /// registered from earlier blocks of the same file remain.
    pub fn register_text(&mut self, text: &str) -> Result<Vec<String>, SpecError> {
        let specs = parse_specs(text)?;
        let mut keys = Vec::with_capacity(specs.len());
        for spec in specs {
            keys.push(spec.key.clone());
            self.register(spec)?;
        }
        Ok(keys)
    }

    /// Look up a spec by registry key or display name,
    /// case-insensitively.
    pub fn get(&self, name: &str) -> Option<&UarchSpec> {
        self.specs
            .iter()
            .find(|s| s.key.eq_ignore_ascii_case(name) || s.name.eq_ignore_ascii_case(name))
    }

    /// The specs, in registration order (builtins keep Table 1 order).
    pub fn specs(&self) -> &[UarchSpec] {
        &self.specs
    }

    /// Compile every spec to a [`UarchProfile`], in order.
    pub fn profiles(&self) -> Vec<UarchProfile> {
        self.specs.iter().map(UarchSpec::profile).collect()
    }

    /// Number of registered specs.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}
