//! The Verilog front end's observable output, pinned byte for byte.
//!
//! Every text a default campaign analyses — the 27 golden designs, every
//! mutant, template candidate and model candidate its stage memo saw —
//! plus a handful of texts that put each kind of token in an error
//! message, is parsed and linted. For each text the outcome (the AST, or
//! the error's kind, span and message), the compiler-log rendering of
//! the error and every lint diagnostic are folded into one FNV-1a
//! digest; `tests/golden/front_end.txt` holds that digest and the counts
//! per outcome. Error text reaches repair prompts, so a front-end
//! rewrite must leave this golden as it is.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use uvllm_campaign::{Campaign, CampaignConfig, MemorySink};

/// Texts whose parse fails on a token of every kind, so each kind's
/// rendering in `UnexpectedToken` is on record, plus lexer errors and
/// literal decoding corners.
fn edge_texts() -> Vec<String> {
    let mut out: Vec<String> = [
        "8'sh_FF",
        "32'HDEAD_BEEF",
        "'b1_0",
        "1_000",
        "4'bX_z?0",
        "3'Sd7",
        "'SO17",
        "12'o7_7",
        "\"s_tr\"",
        "\"\"",
        "$display",
        "$signed",
        "module",
        "endcase",
        "a$b",
        "_x",
        "(",
        ")",
        "[",
        "]",
        "{",
        "}",
        ";",
        ",",
        ":",
        ".",
        "#",
        "@",
        "?",
        "=",
        "+:",
        "-:",
        "+",
        "-",
        "*",
        "/",
        "%",
        "**",
        "!",
        "~",
        "&",
        "|",
        "^",
        "~&",
        "~|",
        "~^",
        "^~",
        "&&",
        "||",
        "==",
        "!=",
        "===",
        "!==",
        "<",
        "<=",
        ">",
        ">=",
        "<<",
        ">>",
        ">>>",
        "<<<",
    ]
    .iter()
    .map(|tok| format!("module m(input a, output y);\nassign {tok} = a;\nendmodule\n"))
    .collect();
    for expr in [
        "'dx",
        "'dz",
        "8'dZ",
        "4'd?",
        "8'hzZ",
        "3'sd_7",
        "0'd1",
        "129'd1",
        "128'hffff",
        "99'd12",
        "4'b1x0z",
        "16'o17",
        "4294967295'd1",
        "18446744073709551616",
        "a +",
        "(a",
    ] {
        out.push(format!("module m(input a, output [7:0] y);\nassign y = {expr};\nendmodule\n"));
    }
    for broken in [
        "8'q12",
        "4'b",
        "8'b2",
        "4'd1x",
        "/* oops",
        "module m; initial $display(\"open",
        "wire \\bad",
        "module m(input a);",
        "module m(input a, output reg y);\nalways @(*) begin\ny = a;\nendmodule\n",
        "",
        "module m; always @(*) begin $display(\"x=%d\", x); end endmodule",
    ] {
        out.push(broken.to_string());
    }
    out
}

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The variant name of a `Debug`-rendered enum value.
fn variant(debug: &str) -> &str {
    debug.split(['(', ' ', '{']).next().unwrap_or(debug)
}

/// Counts and digest of the front end over `texts`, as golden-file text.
fn front_end_record(texts: &BTreeSet<String>) -> String {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut diagnostics = 0usize;
    let mut line = String::new();
    for text in texts {
        fnv1a(&mut digest, text.as_bytes());
        line.clear();
        match uvllm_verilog::parse(text) {
            Ok(file) => {
                *outcomes.entry("ok".into()).or_default() += 1;
                let _ = write!(line, "ok {file:?}");
            }
            Err(e) => {
                let kind = format!("{:?}", e.kind);
                *outcomes.entry(variant(&kind).to_string()).or_default() += 1;
                let _ = write!(line, "err {kind} {:?} {}\n{}", e.span, e.message, e.render(text));
            }
        }
        for d in uvllm_lint::lint(text).diagnostics {
            diagnostics += 1;
            let _ = write!(line, "\n{:?} {:?} {}", d.code, d.span, d.message);
        }
        fnv1a(&mut digest, line.as_bytes());
    }
    let mut record = format!("texts {}\n", texts.len());
    for (outcome, n) in &outcomes {
        let _ = writeln!(record, "outcome.{outcome} {n}");
    }
    let _ = writeln!(record, "lint.diagnostics {diagnostics}");
    let _ = writeln!(record, "digest {digest:016x}");
    record
}

#[test]
fn front_end_output_is_unchanged_on_the_default_corpus() {
    let campaign =
        Campaign::new(CampaignConfig { workers: 2, ..CampaignConfig::default() }).unwrap();
    let dataset = campaign.build_dataset();
    campaign.run_on(&dataset, &mut MemorySink::new()).unwrap();

    let mut texts: BTreeSet<String> =
        dataset.memo().analysed().into_iter().map(|a| a.text).collect();
    texts.extend(uvllm_designs::all().iter().map(|d| d.source.to_string()));
    texts.extend(edge_texts());

    let actual = front_end_record(&texts);
    assert_eq!(
        actual,
        include_str!("golden/front_end.txt"),
        "the front end's output moved; this run read:\n{actual}"
    );
}
