//! DUT interface descriptions shared by drivers, monitors and reference
//! models.

use std::sync::Arc;
use uvllm_sim::Logic;

/// One named port with its width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSig {
    pub name: String,
    pub width: u32,
}

impl PortSig {
    /// Creates a port signature.
    pub fn new(name: impl Into<String>, width: u32) -> Self {
        PortSig { name: name.into(), width }
    }
}

/// Reset line description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetSpec {
    pub name: String,
    /// True when the reset asserts at logic 0 (`rst_n` style).
    pub active_low: bool,
}

/// The pin-level contract of a DUT: clocking, reset and data ports.
///
/// `inputs`/`outputs` exclude the clock and reset lines, which the
/// [`crate::env::Environment`] drives itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DutInterface {
    /// Clock port; `None` for purely combinational DUTs.
    pub clock: Option<String>,
    /// Reset port, if the DUT has one.
    pub reset: Option<ResetSpec>,
    pub inputs: Vec<PortSig>,
    pub outputs: Vec<PortSig>,
}

impl DutInterface {
    /// A combinational interface (no clock, no reset).
    pub fn combinational(inputs: Vec<PortSig>, outputs: Vec<PortSig>) -> Self {
        DutInterface { clock: None, reset: None, inputs, outputs }
    }

    /// A clocked interface with an active-low reset named `rst_n`.
    pub fn clocked(inputs: Vec<PortSig>, outputs: Vec<PortSig>) -> Self {
        DutInterface {
            clock: Some("clk".to_string()),
            reset: Some(ResetSpec { name: "rst_n".to_string(), active_low: true }),
            inputs,
            outputs,
        }
    }

    /// Looks up an input port by name.
    pub fn input(&self, name: &str) -> Option<&PortSig> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Looks up an output port by name.
    pub fn output(&self, name: &str) -> Option<&PortSig> {
        self.outputs.iter().find(|p| p.name == name)
    }
}

/// A single stimulus item: values for every data input for one cycle.
///
/// Values are held by slot, next to the input name of each slot. A
/// sequence bound to an environment's [`crate::IoSpec`]
/// ([`crate::Sequence::bind`]) fills transactions in the spec's input
/// order and shares its name list, so the driver reads port *i* at slot
/// *i* and a refill copies values, never names. A transaction built by
/// name ([`Transaction::with`], [`Transaction::insert`]) holds one entry
/// per name, in the order first inserted, and the driver finds its
/// values by name. Equality ignores the order and
/// [`Transaction::render`] sorts by name.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    /// The input each value drives; `None` while there is no value.
    names: Option<Arc<Vec<String>>>,
    values: Vec<Logic>,
}

impl Transaction {
    /// Creates an empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Builder-style value insertion.
    pub fn with(mut self, name: impl Into<String>, value: Logic) -> Self {
        self.insert(name.into(), value);
        self
    }

    /// The input names, in slot order.
    pub(crate) fn names(&self) -> &[String] {
        self.names.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The values, in slot order.
    pub(crate) fn values(&self) -> &[Logic] {
        &self.values
    }

    /// The value driven on input `name`, if the transaction names it.
    pub fn get(&self, name: &str) -> Option<&Logic> {
        self.names().iter().position(|k| k == name).map(|i| &self.values[i])
    }

    /// Mutable access to the value driven on input `name`.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Logic> {
        let i = self.names().iter().position(|k| k == name)?;
        Some(&mut self.values[i])
    }

    /// Sets input `name` to `value`, returning the value it replaces. A
    /// new name goes after every existing one.
    pub fn insert(&mut self, name: String, value: Logic) -> Option<Logic> {
        match self.get_mut(&name) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                Arc::make_mut(self.names.get_or_insert_with(Default::default)).push(name);
                self.values.push(value);
                None
            }
        }
    }

    /// Removes every value, keeping the allocation.
    pub fn clear(&mut self) {
        self.names = None;
        self.values.clear();
    }

    /// Refills the transaction with `values`, the inputs named `names`
    /// in slot order: copies the values into the kept allocation and
    /// shares the names.
    pub(crate) fn fill(&mut self, names: &Arc<Vec<String>>, values: &[Logic]) {
        self.share_names(names);
        self.values.clear();
        self.values.extend_from_slice(values);
    }

    /// The values of a transaction over the inputs named `names`, to be
    /// written in place: sized to `names`, reused as they are when the
    /// transaction already holds those inputs.
    pub(crate) fn slots_mut(&mut self, names: &Arc<Vec<String>>) -> &mut [Logic] {
        if !self.shares_names(names) {
            self.names = Some(Arc::clone(names));
            self.values.clear();
            self.values.resize(names.len(), Logic::zeros(1));
        }
        &mut self.values
    }

    /// True when the transaction's names are `names` itself (not a
    /// copy): its slots are those of the spec `names` came from.
    pub(crate) fn shares_names(&self, names: &Arc<Vec<String>>) -> bool {
        self.names.as_ref().is_some_and(|own| Arc::ptr_eq(own, names))
    }

    fn share_names(&mut self, names: &Arc<Vec<String>>) {
        if !self.shares_names(names) {
            self.names = Some(Arc::clone(names));
        }
    }

    /// The value at `slot` when the transaction names `name` there,
    /// else the value it holds for `name` anywhere.
    pub(crate) fn slot(&self, slot: usize, name: &str) -> Option<&Logic> {
        match self.names().get(slot) {
            Some(k) if k == name => Some(&self.values[slot]),
            _ => self.get(name),
        }
    }

    /// Renders as `a=8'h12 b=8'h03` for logs, sorted by name.
    pub fn render(&self) -> String {
        let mut sorted: Vec<_> = self.names().iter().zip(&self.values).collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        sorted.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    }
}

impl PartialEq for Transaction {
    /// The same names with the same values, in any order.
    fn eq(&self, other: &Self) -> bool {
        self.values.len() == other.values.len()
            && self.names().iter().zip(&self.values).all(|(k, v)| other.get(k) == Some(v))
    }
}

impl Eq for Transaction {}

impl std::ops::Index<&str> for Transaction {
    type Output = Logic;

    /// # Panics
    ///
    /// Panics when the transaction does not name `name`.
    fn index(&self, name: &str) -> &Logic {
        self.get(name).unwrap_or_else(|| panic!("transaction has no value for '{name}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_constructors() {
        let iface = DutInterface::clocked(vec![PortSig::new("d", 8)], vec![PortSig::new("q", 8)]);
        assert!(iface.clock.is_some());
        assert_eq!(iface.clock.as_deref(), Some("clk"));
        assert!(iface.reset.as_ref().unwrap().active_low);
        assert!(iface.input("d").is_some());
        assert!(iface.output("q").is_some());
        assert!(iface.input("q").is_none());

        let comb = DutInterface::combinational(vec![PortSig::new("a", 1)], vec![]);
        assert!(comb.clock.is_none());
    }

    #[test]
    fn transaction_render_is_stable() {
        let t =
            Transaction::new().with("b", Logic::from_u128(4, 3)).with("a", Logic::from_u128(4, 1));
        assert_eq!(t.render(), "a=4'h1 b=4'h3");
    }

    #[test]
    fn transaction_holds_one_value_per_name_and_compares_in_any_order() {
        let (one, two) = (Logic::from_u128(4, 1), Logic::from_u128(4, 2));
        let mut t = Transaction::new().with("b", one).with("a", one);
        assert_eq!(t.insert("b".to_string(), two), Some(one), "a known name is replaced");
        assert_eq!((t["a"], t["b"]), (one, two));
        assert_eq!(t, Transaction::new().with("a", one).with("b", two));
        assert_ne!(t, Transaction::new().with("a", one));
        assert_ne!(t, Transaction::new().with("a", one).with("b", one));
        // Slot lookups fall back to the name when the slot holds another.
        assert_eq!(
            (t.slot(0, "b"), t.slot(0, "a"), t.slot(5, "a")),
            (Some(&two), Some(&one), Some(&one))
        );
        assert_eq!(t.slot(1, "c"), None);
        t.clear();
        assert_eq!(t, Transaction::new());
    }
}
