//! Class labels and the class registry.
//!
//! Queries are expressed over human-readable class labels (`"car" >= 2`)
//! while the hot path works with dense [`ClassId`]s. The [`ClassRegistry`]
//! provides the bidirectional mapping and pre-registers the four classes the
//! paper's experiments restrict detection to: person, car, truck and bus.

use std::collections::HashMap;
use std::fmt;

use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};
use crate::ids::ClassId;

/// A human-readable object class label.
///
/// Labels are case-insensitive (normalised to lowercase) and compared by their
/// normalised form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassLabel(String);

impl ClassLabel {
    /// Creates a label, normalising to lowercase and trimming whitespace.
    pub fn new(label: impl AsRef<str>) -> Self {
        ClassLabel(label.as_ref().trim().to_ascii_lowercase())
    }

    /// Returns the normalised label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ClassLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl<T: AsRef<str>> From<T> for ClassLabel {
    fn from(value: T) -> Self {
        ClassLabel::new(value)
    }
}

/// Registry mapping class labels to dense [`ClassId`]s.
///
/// The registry is append-only: classes are never removed, so a [`ClassId`]
/// handed out once stays valid for the lifetime of the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRegistry {
    labels: Vec<ClassLabel>,
    by_label: HashMap<ClassLabel, ClassId>,
}

/// The class label `"person"` pre-registered by [`ClassRegistry::with_default_classes`].
pub const PERSON: &str = "person";
/// The class label `"car"` pre-registered by [`ClassRegistry::with_default_classes`].
pub const CAR: &str = "car";
/// The class label `"truck"` pre-registered by [`ClassRegistry::with_default_classes`].
pub const TRUCK: &str = "truck";
/// The class label `"bus"` pre-registered by [`ClassRegistry::with_default_classes`].
pub const BUS: &str = "bus";

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ClassRegistry {
            labels: Vec::new(),
            by_label: HashMap::new(),
        }
    }

    /// Creates a registry pre-populated with the paper's four classes
    /// (person, car, truck, bus), in that order.
    pub fn with_default_classes() -> Self {
        let mut registry = ClassRegistry::new();
        for label in [PERSON, CAR, TRUCK, BUS] {
            registry.register(label);
        }
        registry
    }

    /// Registers a class label, returning its identifier. Registering an
    /// already-known label returns the existing identifier. Ids are dense
    /// and handed out in registration order, so a new label takes id
    /// [`len`](Self::len); `None` when all 65,536 `u16` ids are taken.
    pub fn register(&mut self, label: impl Into<ClassLabel>) -> Option<ClassId> {
        let label = label.into();
        if let Some(&id) = self.by_label.get(&label) {
            return Some(id);
        }
        let id = ClassId(u16::try_from(self.labels.len()).ok()?);
        self.labels.push(label.clone());
        self.by_label.insert(label, id);
        Some(id)
    }

    /// Looks up the identifier for a label.
    pub fn id(&self, label: impl Into<ClassLabel>) -> Option<ClassId> {
        self.by_label.get(&label.into()).copied()
    }

    /// Looks up the identifier for a label, returning an error when unknown.
    pub fn require(&self, label: impl Into<ClassLabel>) -> Result<ClassId> {
        let label = label.into();
        self.by_label
            .get(&label)
            .copied()
            .ok_or_else(|| Error::UnknownClass(label.as_str().to_owned()))
    }

    /// Returns the label registered under `id`, if any.
    pub fn label(&self, id: ClassId) -> Option<&ClassLabel> {
        self.labels.get(id.raw() as usize)
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over `(ClassId, &ClassLabel)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ClassLabel)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(idx, label)| (ClassId(idx as u16), label))
    }

    /// Appends the labels in [`ClassId`] order.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.labels.len());
        for label in &self.labels {
            enc.put_str(label.as_str());
        }
    }

    /// Reads a registry written by [`encode`](Self::encode): labels
    /// registered in order reproduce their ids, so a label that lands on
    /// another id (a repeat) or on none (one past the `u16` id space) is
    /// corrupt.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ClassRegistry> {
        let labels = dec.take_len()?;
        let mut registry = ClassRegistry::new();
        for index in 0..labels {
            let label = dec.take_str()?;
            if registry.register(label).map(|id| usize::from(id.raw())) != Some(index) {
                return Err(Error::Corrupt(format!(
                    "registry label {index} ({label:?}) does not register as class {index}"
                )));
            }
        }
        Ok(registry)
    }
}

impl Default for ClassRegistry {
    fn default() -> Self {
        ClassRegistry::with_default_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_normalise_case_and_whitespace() {
        assert_eq!(ClassLabel::new(" Car "), ClassLabel::new("car"));
        assert_eq!(ClassLabel::new("CAR").as_str(), "car");
        assert_eq!(ClassLabel::new("Bus").to_string(), "bus");
    }

    #[test]
    fn default_registry_has_paper_classes_in_order() {
        let registry = ClassRegistry::with_default_classes();
        assert_eq!(registry.len(), 4);
        assert_eq!(registry.id("person"), Some(ClassId(0)));
        assert_eq!(registry.id("car"), Some(ClassId(1)));
        assert_eq!(registry.id("truck"), Some(ClassId(2)));
        assert_eq!(registry.id("bus"), Some(ClassId(3)));
    }

    #[test]
    fn register_is_idempotent() {
        let mut registry = ClassRegistry::new();
        let a = registry.register("car");
        let b = registry.register("CAR");
        assert_eq!(a, Some(ClassId(0)));
        assert_eq!(a, b);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn lookup_by_id_round_trips() {
        let mut registry = ClassRegistry::new();
        let id = registry.register("bicycle").unwrap();
        assert_eq!(registry.label(id).unwrap().as_str(), "bicycle");
        assert!(registry.label(ClassId(99)).is_none());
    }

    #[test]
    fn require_reports_unknown_labels() {
        let registry = ClassRegistry::with_default_classes();
        assert!(registry.require("car").is_ok());
        let err = registry.require("submarine").unwrap_err();
        assert!(err.to_string().contains("submarine"));
    }

    #[test]
    fn iteration_preserves_registration_order() {
        let registry = ClassRegistry::with_default_classes();
        let labels: Vec<_> = registry
            .iter()
            .map(|(_, l)| l.as_str().to_owned())
            .collect();
        assert_eq!(labels, vec!["person", "car", "truck", "bus"]);
    }

    #[test]
    fn codec_round_trips_and_rejects_repeated_labels() {
        let mut registry = ClassRegistry::with_default_classes();
        registry.register("bicycle");
        let mut enc = Encoder::new();
        registry.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = ClassRegistry::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert!(back.iter().eq(registry.iter()));

        let mut enc = Encoder::new();
        enc.put_usize(2);
        enc.put_str("car");
        enc.put_str(" CAR");
        let err = ClassRegistry::decode(&mut Decoder::new(&enc.into_bytes())).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_registry_reports_empty() {
        let registry = ClassRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.len(), 0);
    }

    #[test]
    fn register_refuses_past_the_u16_id_space() {
        let mut registry = ClassRegistry::new();
        for index in 0..=u32::from(u16::MAX) {
            assert_eq!(
                registry.register(format!("c{index}")),
                Some(ClassId(index as u16))
            );
        }
        assert_eq!(registry.register("one_too_many"), None);
        assert_eq!(registry.len(), 65_536);
        // Known labels still resolve.
        assert_eq!(registry.register("C7"), Some(ClassId(7)));
    }
}
