//! The identifier table of one design text.
//!
//! The parser interns every identifier it meets into one [`Names`]
//! table per text and the AST holds [`Symbol`]s, not strings: the same
//! name is one symbol however often the text uses it, comparing two
//! names is comparing two integers, and a name is spelled out again
//! only where a diagnostic, a prompt or a log renders it. The table
//! travels with the text's AST (an `Arc` in [`crate::SourceFile`] and in
//! each [`crate::Module`]) into elaboration and every other pass.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// An interned identifier: an index into the [`Names`] of the text it
/// was parsed from. Symbols of two texts are unrelated.
///
/// Its `Debug` form is the quoted name inside [`with_debug_names`] (the
/// `Debug` of [`crate::SourceFile`] and [`crate::Module`] opens one, so
/// a printed tree reads as it did with string names), `Symbol(n)`
/// outside.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

thread_local! {
    /// The table `Symbol`'s `Debug` spells names from on this thread.
    static DEBUG_NAMES: RefCell<Option<Arc<Names>>> = const { RefCell::new(None) };
}

/// Runs `f` with `names` as the table [`Symbol`]'s `Debug` reads names
/// from on this thread; the previous table is back when it returns.
pub fn with_debug_names<R>(names: &Arc<Names>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Names>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            DEBUG_NAMES.with(|names| *names.borrow_mut() = previous);
        }
    }
    let _restore = Restore(DEBUG_NAMES.with(|n| n.replace(Some(Arc::clone(names)))));
    f()
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        DEBUG_NAMES.with(|names| match &*names.borrow() {
            Some(names) if (self.0 as usize) < names.len() => fmt::Debug::fmt(names.name(*self), f),
            _ => write!(f, "Symbol({})", self.0),
        })
    }
}

/// Slot of the table of [`Names`] that holds no symbol.
const EMPTY: u32 = u32::MAX;

/// The identifiers of one text, each stored once.
///
/// All names live back to back in one string; a symbol is its position
/// in the list of names, and an open-addressing table of symbols finds
/// a name's symbol. Interning a name seen before allocates nothing, and
/// a table sized up front for a text ([`Names::with_capacity`]) makes
/// two allocations in all.
#[derive(Clone, Default)]
pub struct Names {
    /// Every name, back to back.
    text: String,
    /// The first `buckets` entries are the symbols by hash, linear
    /// probing, [`EMPTY`] marking a free slot; `buckets` is zero or a
    /// power of two at least twice the name count. The rest are the end
    /// offsets in `text` of each symbol's name: symbol *i* is
    /// `text[ends[i - 1]..ends[i]]`.
    slots: Vec<u32>,
    buckets: usize,
}

/// FNV-1a over the name's bytes.
fn hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

impl Names {
    /// An empty table.
    pub fn new() -> Names {
        Names::default()
    }

    /// An empty table with room for `names` names of `bytes` bytes in
    /// all before it grows.
    pub fn with_capacity(names: usize, bytes: usize) -> Names {
        let buckets = (2 * names).next_power_of_two().max(8);
        let mut slots = Vec::with_capacity(buckets + names);
        slots.resize(buckets, EMPTY);
        Names { text: String::with_capacity(bytes), slots, buckets }
    }

    fn ends(&self) -> &[u32] {
        &self.slots[self.buckets..]
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.slots.len() - self.buckets
    }

    /// True when no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The name of `symbol`.
    ///
    /// # Panics
    ///
    /// When `symbol` is not from this table.
    pub fn name(&self, symbol: Symbol) -> &str {
        let (i, ends) = (symbol.0 as usize, self.ends());
        let start = if i == 0 { 0 } else { ends[i - 1] as usize };
        &self.text[start..ends[i] as usize]
    }

    /// The symbol of `name`, if the table holds it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        match self.slots[self.probe(name)?] {
            EMPTY => None,
            found => Some(Symbol(found)),
        }
    }

    /// The symbol of `name`, added to the table when new.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if 2 * (self.len() + 1) > self.buckets {
            self.grow();
        }
        let slot = self.probe(name).expect("the table has a free slot");
        if self.slots[slot] != EMPTY {
            return Symbol(self.slots[slot]);
        }
        let symbol = self.len() as u32;
        self.text.push_str(name);
        self.slots.push(self.text.len() as u32);
        self.slots[slot] = symbol;
        Symbol(symbol)
    }

    /// Every symbol with its name, in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.len() as u32).map(|i| (Symbol(i), self.name(Symbol(i))))
    }

    /// The slot holding `name`, or the free slot where it would go;
    /// `None` for an empty table.
    fn probe(&self, name: &str) -> Option<usize> {
        if self.buckets == 0 {
            return None;
        }
        let mask = self.buckets - 1;
        let mut slot = hash(name) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Some(slot),
                symbol if self.name(Symbol(symbol)) == name => return Some(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the table (at least 8 slots) and re-files every symbol.
    fn grow(&mut self) {
        let buckets = (2 * self.buckets).max(8);
        let mut slots = vec![EMPTY; buckets];
        slots.extend_from_slice(self.ends());
        (self.slots, self.buckets) = (slots, buckets);
        for i in 0..self.len() as u32 {
            let slot = self.probe(self.name(Symbol(i))).expect("a free slot");
            self.slots[slot] = i;
        }
    }
}

impl std::ops::Index<Symbol> for Names {
    type Output = str;

    fn index(&self, symbol: Symbol) -> &str {
        self.name(symbol)
    }
}

impl PartialEq for Names {
    /// The same names with the same symbols.
    fn eq(&self, other: &Names) -> bool {
        self.ends() == other.ends() && self.text == other.text
    }
}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, name)| name)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_name_is_one_symbol_and_reads_back_byte_identical() {
        let mut names = Names::new();
        let words = ["clk", "rst_n", "q", "\\escaped.id ", "clk", "q", "$display", "rst_n"];
        let symbols: Vec<Symbol> = words.iter().map(|w| names.intern(w)).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(symbols[0], symbols[4]);
        assert_eq!(symbols[2], symbols[5]);
        assert_eq!(symbols[1], symbols[7]);
        for (word, symbol) in words.iter().zip(&symbols) {
            assert_eq!(&names[*symbol], *word);
            assert_eq!(names.get(word), Some(*symbol));
        }
        assert_eq!(names.get("missing"), None);
        assert_eq!(Names::new().get("clk"), None);
    }

    #[test]
    fn growing_keeps_every_symbol() {
        let mut names = Names::with_capacity(2, 4);
        let symbols: Vec<Symbol> = (0..500).map(|i| names.intern(&format!("n{i}"))).collect();
        for (i, symbol) in symbols.iter().enumerate() {
            assert_eq!(symbol.0 as usize, i);
            assert_eq!(names.name(*symbol), format!("n{i}"));
            assert_eq!(names.intern(&format!("n{i}")), *symbol);
        }
    }

    #[test]
    fn two_texts_tables_are_independent() {
        let (mut first, mut second) = (Names::new(), Names::new());
        let a = first.intern("a");
        let b = first.intern("b");
        let b2 = second.intern("b");
        assert_eq!((a, b, b2), (Symbol(0), Symbol(1), Symbol(0)));
        assert_eq!((&first[b], &second[b2]), ("b", "b"));
        assert_eq!(second.get("a"), None);
        assert_ne!(first, second);
        let mut again = Names::with_capacity(4, 16);
        again.intern("a");
        again.intern("b");
        assert_eq!(first, again, "equality is by names, not by table size");
    }

    #[test]
    fn a_symbol_debugs_as_its_name_inside_a_scope() {
        let mut names = Names::new();
        let clk = names.intern("clk");
        let names = Arc::new(names);
        assert_eq!(format!("{clk:?}"), "Symbol(0)");
        let inside = with_debug_names(&names, || format!("{:?}", Some(clk)));
        assert_eq!(inside, "Some(\"clk\")");
        assert_eq!(format!("{clk:?}"), "Symbol(0)", "the scope closes");
    }
}
