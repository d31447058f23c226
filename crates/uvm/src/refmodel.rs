//! Reference-model trait: the golden behavioural model the scoreboard
//! compares the DUT against.
//!
//! In the paper these models are C/C++ programs generated by an LLM from
//! the specification and bound via DPI; here they are Rust
//! implementations fulfilling the same contract (the README's
//! "Simulation" puts the exchange below in context).
//!
//! # The `IoSpec` / `IoFrame` contract
//!
//! The paper's DPI-style exchange passes values across the
//! scoreboard boundary by *name*, once per cycle. The first
//! reproduction mirrored that with `BTreeMap<String, Logic>` in both
//! directions, which put two tree allocations plus per-port string
//! comparisons on the hottest loop of the whole stack — a
//! backend-independent Amdahl floor on campaign throughput (hundreds of
//! mutation-triage jobs, each running thousands of checked cycles).
//!
//! The boundary is now index-based:
//!
//! * An [`IoSpec`] is built **once** when the environment binds the
//!   model: every input and output port name is interned to a dense
//!   slot id ([`InSlot`] / [`OutSlot`]) carrying the port width.
//! * Each cycle the environment assembles an [`IoFrame`] — a borrowed
//!   view over two flat `Logic` buffers (`&[Logic]` in, `&mut [Logic]`
//!   out) that it owns and reuses — and calls [`RefModel::step`], which
//!   reads and writes **in place**. The steady state performs zero heap
//!   allocations and zero name lookups per cycle (enforced by the
//!   `alloc_steady_state` regression test).
//!
//! Models resolve their slots in [`RefModel::bind`] and keep the
//! handles; [`FnModel`] offers the same one-expression ergonomics the
//! old map-closure wrapper had, with the bind closure returning the
//! step closure so slot resolution still happens exactly once.

use crate::iface::{DutInterface, PortSig};
use std::sync::Arc;
use uvllm_sim::logic::mask;
use uvllm_sim::Logic;

/// Dense handle for one model **input** port: slot index + port width,
/// resolved once at bind time by [`IoSpec::input`].
///
/// The default value is an unbound sentinel (width 0); reading through
/// it yields 0 and writing panics, so a model that forgot to bind fails
/// loudly rather than aliasing slot 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InSlot {
    index: u32,
    width: u32,
}

/// Dense handle for one model **output** port (see [`InSlot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutSlot {
    index: u32,
    width: u32,
}

impl OutSlot {
    /// The port width this slot was resolved with.
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl InSlot {
    /// The port width this slot was resolved with.
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// The interned I/O layout of one DUT interface: port names resolved to
/// dense slot ids, built once when the environment binds its reference
/// model. Input slot `i` corresponds to the `i`-th interface input (and
/// likewise for outputs), which is also the order of the environment's
/// observation buffers and the scoreboard's comparison loop.
///
/// The input names are shared, not copied, by every
/// [`crate::Transaction`] a sequence bound to the spec fills
/// ([`crate::Sequence::bind`]), and each output name by every mismatch
/// record of that output.
/// A clone shares the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoSpec(Arc<IoLayout>);

#[derive(Debug, PartialEq, Eq)]
struct IoLayout {
    input_names: Arc<Vec<String>>,
    input_widths: Vec<u32>,
    outputs: Vec<(Arc<str>, u32)>,
}

impl IoSpec {
    /// Builds a spec from explicit port lists.
    pub(crate) fn from_ports(inputs: &[PortSig], outputs: &[PortSig]) -> IoSpec {
        IoSpec(Arc::new(IoLayout {
            input_names: Arc::new(inputs.iter().map(|p| p.name.clone()).collect()),
            input_widths: inputs.iter().map(|p| p.width).collect(),
            outputs: outputs.iter().map(|p| (Arc::from(p.name.as_str()), p.width)).collect(),
        }))
    }

    /// Input names in slot order, shared with the transactions bound to
    /// this spec.
    pub fn input_names(&self) -> &Arc<Vec<String>> {
        &self.0.input_names
    }

    /// Input widths in slot order.
    pub fn input_widths(&self) -> &[u32] {
        &self.0.input_widths
    }

    /// Builds a spec from a DUT interface (clock and reset lines are
    /// driven by the environment and excluded, as in `DutInterface`).
    pub fn from_interface(iface: &DutInterface) -> IoSpec {
        IoSpec::from_ports(&iface.inputs, &iface.outputs)
    }

    /// Whether this spec lays out exactly `iface`'s ports, in order:
    /// what [`IoSpec::from_interface`] would build, checked without
    /// building it.
    pub(crate) fn lays_out(&self, iface: &DutInterface) -> bool {
        let layout = &self.0;
        layout.input_names.len() == iface.inputs.len()
            && layout.outputs.len() == iface.outputs.len()
            && iface
                .inputs
                .iter()
                .enumerate()
                .all(|(i, p)| layout.input_names[i] == p.name && layout.input_widths[i] == p.width)
            && iface
                .outputs
                .iter()
                .zip(&layout.outputs)
                .all(|(p, (name, width))| **name == *p.name && *width == p.width)
    }

    /// Resolves an input port name to its slot.
    ///
    /// # Panics
    ///
    /// Panics when the interface has no such input — slot resolution
    /// happens once at bind time, and a model naming a port its
    /// interface lacks is a programming error worth failing loudly on.
    pub fn input(&self, name: &str) -> InSlot {
        self.try_input(name)
            .unwrap_or_else(|| panic!("reference model binds unknown input port '{name}'"))
    }

    /// Resolves an output port name to its slot.
    ///
    /// # Panics
    ///
    /// Panics when the interface has no such output (see
    /// [`IoSpec::input`]).
    pub fn output(&self, name: &str) -> OutSlot {
        self.try_output(name)
            .unwrap_or_else(|| panic!("reference model binds unknown output port '{name}'"))
    }

    /// Non-panicking [`IoSpec::input`].
    pub(crate) fn try_input(&self, name: &str) -> Option<InSlot> {
        self.0
            .input_names
            .iter()
            .position(|n| n == name)
            .map(|i| InSlot { index: i as u32, width: self.0.input_widths[i] })
    }

    /// Non-panicking [`IoSpec::output`].
    pub(crate) fn try_output(&self, name: &str) -> Option<OutSlot> {
        self.0
            .outputs
            .iter()
            .position(|(n, _)| **n == *name)
            .map(|i| OutSlot { index: i as u32, width: self.0.outputs[i].1 })
    }

    /// Name of output slot `i`.
    pub(crate) fn output_name(&self, i: usize) -> &Arc<str> {
        &self.0.outputs[i].0
    }
}

/// One cycle of I/O exchanged with the reference model: a borrowed view
/// over the environment's reusable buffers — inputs as observed after
/// the clock edge, outputs for the model to fill in place. Constructing
/// and using a frame allocates nothing.
pub struct IoFrame<'a> {
    inputs: &'a [Logic],
    outputs: &'a mut [Logic],
}

impl<'a> IoFrame<'a> {
    /// Wraps the environment's buffers for one cycle. Slot `i` of each
    /// slice must correspond to slot `i` of the [`IoSpec`] the model was
    /// bound with.
    pub fn new(inputs: &'a [Logic], outputs: &'a mut [Logic]) -> IoFrame<'a> {
        IoFrame { inputs, outputs }
    }

    /// Reads an input as an integer, masked to the port width; X/Z bits
    /// read as zero (mirroring the old `in_val` defaulting).
    #[inline]
    pub fn get(&self, slot: InSlot) -> u128 {
        self.inputs[slot.index as usize].to_u128().unwrap_or(0) & mask(slot.width)
    }

    /// Writes an expected output value (truncated to the port width).
    #[inline]
    pub fn set(&mut self, slot: OutSlot, value: u128) {
        self.outputs[slot.index as usize] = Logic::from_u128(slot.width, value);
    }

    /// Marks an output as expected-unknown (all X at the port width).
    #[inline]
    pub fn set_x(&mut self, slot: OutSlot) {
        self.outputs[slot.index as usize] = Logic::xs(slot.width);
    }
}

/// Cycle-accurate golden model of a DUT.
///
/// The environment calls [`RefModel::bind`] once at construction with
/// the interface's [`IoSpec`] (models resolve and store their slot
/// handles here), [`RefModel::reset`] during the reset phase, and then
/// [`RefModel::step`] once per clock cycle (or per stimulus item for
/// combinational DUTs) with that cycle's input values. The model must
/// write the expected value of every output port *as observed after the
/// clock edge with inputs still applied*; outputs it leaves untouched
/// stay all-X and are scored as "expected unknown" by the scoreboard.
pub trait RefModel: Send {
    /// Resolves port names to slot handles. Called exactly once, before
    /// any `reset`/`step`.
    fn bind(&mut self, spec: &IoSpec);

    /// Returns the model to its post-reset state.
    fn reset(&mut self);

    /// Consumes one cycle of inputs, writing expected outputs in place.
    fn step(&mut self, io: &mut IoFrame<'_>);
}

/// Wraps a bind closure returning a step closure as a reference model —
/// the one-expression ergonomics for stateless (combinational) models.
///
/// The bind closure runs once with the [`IoSpec`], resolves its slots,
/// and returns the per-cycle step closure (which captures the handles
/// by move):
///
/// ```rust
/// use uvllm_uvm::{FnModel, IoFrame, IoSpec};
///
/// let _model = FnModel::new(|s: &IoSpec| {
///     let (a, y) = (s.input("a"), s.output("y"));
///     move |io: &mut IoFrame<'_>| {
///         let v = io.get(a);
///         io.set(y, v + 1);
///     }
/// });
/// ```
pub struct FnModel<B, S> {
    bind: Option<B>,
    step: Option<S>,
}

impl<B, S> FnModel<B, S>
where
    B: FnOnce(&IoSpec) -> S + Send,
    S: FnMut(&mut IoFrame<'_>) + Send,
{
    /// Creates the model from its bind closure.
    pub fn new(bind: B) -> FnModel<B, S> {
        FnModel { bind: Some(bind), step: None }
    }
}

impl<B, S> RefModel for FnModel<B, S>
where
    B: FnOnce(&IoSpec) -> S + Send,
    S: FnMut(&mut IoFrame<'_>) + Send,
{
    fn bind(&mut self, spec: &IoSpec) {
        if let Some(bind) = self.bind.take() {
            self.step = Some(bind(spec));
        }
    }

    fn reset(&mut self) {}

    fn step(&mut self, io: &mut IoFrame<'_>) {
        (self.step.as_mut().expect("FnModel stepped before bind"))(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IoSpec {
        IoSpec::from_ports(&[PortSig::new("a", 8), PortSig::new("b", 4)], &[PortSig::new("y", 8)])
    }

    #[test]
    fn fn_model_wraps_closures() {
        let spec = spec();
        let mut m = FnModel::new(|s: &IoSpec| {
            let (a, y) = (s.input("a"), s.output("y"));
            move |io: &mut IoFrame<'_>| {
                let v = io.get(a);
                io.set(y, v + 1);
            }
        });
        m.bind(&spec);
        m.reset();
        let inputs = [Logic::from_u128(8, 41), Logic::from_u128(4, 0)];
        let mut outputs = [Logic::xs(8)];
        let mut frame = IoFrame::new(&inputs, &mut outputs);
        m.step(&mut frame);
        assert_eq!(outputs[0].to_u128(), Some(42));
    }

    #[test]
    fn frame_reads_default_and_mask() {
        let spec = spec();
        let a = spec.input("a");
        let b = spec.input("b");
        // b's port width (4) masks a wider buffered value; X reads as 0.
        let inputs = [Logic::xs(8), Logic::from_u128(8, 0xff)];
        let mut outputs = [Logic::xs(8)];
        let frame = IoFrame::new(&inputs, &mut outputs);
        assert_eq!(frame.get(a), 0, "X input reads as zero");
        assert_eq!(frame.get(b), 0xf, "value masked to the port width");
    }

    #[test]
    fn frame_writes_truncate_and_resize() {
        let spec = spec();
        let y = spec.output("y");
        assert_eq!(y.width(), 8);
        let inputs: [Logic; 2] = [Logic::zeros(8), Logic::zeros(4)];
        let mut outputs = [Logic::xs(8)];
        let mut frame = IoFrame::new(&inputs, &mut outputs);
        frame.set(y, 0x1ff);
        assert_eq!(outputs[0], Logic::from_u128(8, 0xff));
        let mut frame = IoFrame::new(&inputs, &mut outputs);
        frame.set_x(y);
        assert_eq!(outputs[0], Logic::xs(8));
    }

    #[test]
    fn spec_resolves_slots_once() {
        let spec = spec();
        assert_eq!(&**spec.output_name(0), "y");
        assert_eq!(spec.output("y").width(), 8);
        assert!(spec.try_input("missing").is_none());
        assert!(spec.try_output("a").is_none(), "inputs are not outputs");
    }

    #[test]
    #[should_panic(expected = "unknown input port")]
    fn unknown_port_panics_at_bind_time() {
        spec().input("nope");
    }
}
