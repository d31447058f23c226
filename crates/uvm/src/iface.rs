//! DUT interface descriptions shared by drivers, monitors and reference
//! models.

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
/// Values are held by input name, one entry per name, in the order
/// they were first inserted. A transaction built in interface order
/// holds port *i* at entry *i*, so the driver and the random sequence
/// reach it by slot (checking the name there) instead of searching; a
/// transaction in any other order still works, by name. Equality
/// ignores the order and [`Transaction::render`] sorts by name.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    values: Vec<(String, Logic)>,
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

    /// The value driven on input `name`, if the transaction names it.
    pub fn get(&self, name: &str) -> Option<&Logic> {
        self.values.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Mutable access to the value driven on input `name`.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Logic> {
        self.values.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Sets input `name` to `value`, returning the value it replaces. A
    /// new name goes after every existing one.
    pub fn insert(&mut self, name: String, value: Logic) -> Option<Logic> {
        match self.get_mut(&name) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.values.push((name, value));
                None
            }
        }
    }

    /// Removes every value, keeping the allocation.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// [`Transaction::get_mut`], trying entry `slot` before searching.
    pub(crate) fn slot_mut(&mut self, slot: usize, name: &str) -> Option<&mut Logic> {
        match self.values.get(slot) {
            Some((k, _)) if k == name => Some(&mut self.values[slot].1),
            _ => self.get_mut(name),
        }
    }

    /// [`Transaction::get`], trying entry `slot` before searching.
    pub(crate) fn slot(&self, slot: usize, name: &str) -> Option<&Logic> {
        match self.values.get(slot) {
            Some((k, v)) if k == name => Some(v),
            _ => self.get(name),
        }
    }

    /// Renders as `a=8'h12 b=8'h03` for logs, sorted by name.
    pub fn render(&self) -> String {
        let mut sorted: Vec<_> = self.values.iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        sorted.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
    }
}

impl PartialEq for Transaction {
    /// The same names with the same values, in any order.
    fn eq(&self, other: &Self) -> bool {
        self.values.len() == other.values.len()
            && self.values.iter().all(|(k, v)| other.get(k) == Some(v))
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
