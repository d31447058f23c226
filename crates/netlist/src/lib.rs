//! Yosys-JSON netlist interchange.
//!
//! Imports and exports elaborated designs ([`uvllm_sim::elab::Design`])
//! in Yosys' JSON netlist format, so third-party RTL can join a campaign
//! and elaborated designs can round-trip out to other tools (see
//! [`yosys`]). The simulator always runs the design as elaborated or
//! imported; nothing here rewrites it.

pub mod yosys;
