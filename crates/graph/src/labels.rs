//! Concrete vertex and edge label types used by the synthetic datasets.
//!
//! The solver itself is generic over label types (any `Copy + Send + Sync`
//! type paired with a base kernel works); these are the labels used by the
//! paper's motivating applications:
//!
//! * molecular graphs built from SMILES-like connectivity — categorical atom
//!   ([`AtomLabel`]) and bond ([`BondLabel`]) attributes;
//! * 3D molecular/protein structures — elements on nodes and interatomic
//!   distances on edges (`f32` edge labels).

/// Marker label for unlabeled vertices or edges.
///
/// Using `Unlabeled` together with the unit base kernel turns the
/// marginalized graph kernel into the plain random-walk kernel of Eq. (2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Unlabeled;

/// Chemical element, stored as its atomic number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element(pub u8);

impl Element {
    pub const CARBON: Element = Element(6);
    pub const NITROGEN: Element = Element(7);
    pub const OXYGEN: Element = Element(8);
    pub const FLUORINE: Element = Element(9);
    pub const PHOSPHORUS: Element = Element(15);
    pub const SULFUR: Element = Element(16);
    pub const CHLORINE: Element = Element(17);

    /// Atomic number.
    pub fn atomic_number(self) -> u8 {
        self.0
    }

    /// A short mnemonic symbol for printing.
    pub fn symbol(self) -> &'static str {
        match self.0 {
            1 => "H",
            6 => "C",
            7 => "N",
            8 => "O",
            9 => "F",
            15 => "P",
            16 => "S",
            17 => "Cl",
            _ => "X",
        }
    }

    /// Typical maximum valence used by the synthetic molecule generator.
    pub fn max_valence(self) -> usize {
        match self.0 {
            1 | 9 | 17 => 1,
            8 => 2,
            7 | 15 => 3,
            16 => 4,
            _ => 4,
        }
    }
}

impl Default for Element {
    fn default() -> Self {
        Element::CARBON
    }
}

/// Vertex label for molecule-like graphs derived from SMILES-style input:
/// element, formal charge and hybridization state (Section VI-B of the
/// paper lists exactly these attributes for the DrugBank dataset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AtomLabel {
    /// Chemical element.
    pub element: Element,
    /// Formal charge in units of elementary charge.
    pub charge: i8,
    /// Hybridization state: 0 = s, 1 = sp, 2 = sp2, 3 = sp3.
    pub hybridization: u8,
    /// Whether the atom is a member of an aromatic ring.
    pub aromatic: bool,
}

/// Edge label for molecule-like graphs: bond order and conjugacy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BondLabel {
    /// Bond order: 1 = single, 2 = double, 3 = triple, 4 = aromatic.
    pub order: u8,
    /// Whether the bond participates in a conjugated system.
    pub conjugated: bool,
}

impl Default for BondLabel {
    fn default() -> Self {
        BondLabel { order: 1, conjugated: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_symbols_and_valence() {
        assert_eq!(Element::CARBON.symbol(), "C");
        assert_eq!(Element::CARBON.max_valence(), 4);
        assert_eq!(Element(1).max_valence(), 1);
        assert_eq!(Element::OXYGEN.symbol(), "O");
        assert_eq!(Element(92).symbol(), "X");
    }

    #[test]
    fn default_labels() {
        assert_eq!(AtomLabel::default().element, Element::CARBON);
        assert_eq!(BondLabel::default().order, 1);
        assert_eq!(Unlabeled, Unlabeled);
    }
}
