//! # uvllm-dfg
//!
//! Data-flow graphs and slicing for the UVLLM post-processing stage
//! (§III-C of the paper, Algorithm 2).
//!
//! [`Dfg::build`] extracts every assignment site of a module together
//! with the guard conditions (`if`/`case` context) under which it
//! executes. Two slicing modes answer "which code can explain a wrong
//! value on signal *s*":
//!
//! * [`Dfg::static_slice`] — the classic cone of influence: transitively
//!   every site whose target feeds `s`.
//! * [`Dfg::dynamic_slice`] — the paper's *time-aware* slice: guard
//!   conditions are evaluated against a waveform snapshot taken at the
//!   mismatch timestamp, so only sites on *executed* paths survive,
//!   giving the repair agent far denser information.
//!
//! Neither mode takes options. A static slice is unbounded; a dynamic
//! slice follows signals at most 8 assignments upstream and keeps a site
//! whose guard evaluates to unknown (X), so a missing waveform value
//! widens the slice rather than hiding the bug.
//!
//! ## Example
//!
//! ```rust
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use uvllm_dfg::Dfg;
//!
//! let src = "module m(input a, input b, input s, output reg y);\n\
//!            always @(*) begin\nif (s) y = a; else y = b;\nend\nendmodule\n";
//! let file = uvllm_verilog::parse(src)?;
//! let dfg = Dfg::build(file.top().unwrap());
//! let slice = dfg.static_slice("y");
//! assert_eq!(slice.sites.len(), 2); // both branches feed y
//! # Ok(())
//! # }
//! ```

pub mod slice;

pub use slice::{suspicious_lines, Dfg, Guard, Site, Slice, Snapshot};
