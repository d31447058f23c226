//! Structured-output parsing: the JSON schema of Fig. 4.
//!
//! Serialisation is hand-rolled over [`uvllm_json`] (the workspace
//! builds without serde); the wire format is unchanged — pretty-printed
//! objects with the `"module name"` / `"analysis"` / `"correct"` (or
//! `"code"`) members the prompts specify, in `Json::render_pretty`'s
//! layout. A response is written straight into its text and distilled
//! by moving the member strings out of the parsed value: one render and
//! one parse, no intermediate tree or copies.

use crate::prompt::RepairPair;
use uvllm_json::{write_string, Json};

/// The pair-mode response: `{"module name", "analysis", "correct"}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairResponse {
    pub module_name: String,
    pub analysis: String,
    /// `(original, patched)` fragments applied by exact-match
    /// substitution.
    pub correct: Vec<RepairPair>,
}

impl RepairResponse {
    /// Serialises to the canonical JSON the agents emit.
    pub fn to_json(&self) -> String {
        let mut out = header(&self.module_name, &self.analysis);
        out.push_str(",\n  \"correct\": [");
        for (i, pair) in self.correct.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n      \"original\": ");
            write_string(&mut out, &pair.original);
            out.push_str(",\n      \"patched\": ");
            write_string(&mut out, &pair.patched);
            out.push_str("\n    }");
        }
        if !self.correct.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Parses a completion, tolerating surrounding prose or markdown
    /// fences (the "distilling" step of §III-D).
    ///
    /// # Errors
    ///
    /// Returns an error message when no valid JSON object with the
    /// required members is found.
    pub fn parse(content: &str) -> Result<Self, String> {
        parse_json_relaxed(content, |mut v| {
            let Some(Json::Arr(pairs)) = member(&mut v, "correct") else {
                return Err("missing 'correct' array".to_string());
            };
            let correct = pairs.into_iter().map(pair_from_json).collect::<Result<Vec<_>, _>>()?;
            Ok(RepairResponse {
                module_name: required_str(&mut v, "module name")?,
                analysis: required_str(&mut v, "analysis")?,
                correct,
            })
        })
    }
}

/// The complete-code response of the Table III ablation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteResponse {
    pub module_name: String,
    pub analysis: String,
    /// The full corrected file.
    pub code: String,
}

impl CompleteResponse {
    /// Serialises to canonical JSON.
    pub fn to_json(&self) -> String {
        let mut out = header(&self.module_name, &self.analysis);
        out.push_str(",\n  \"code\": ");
        write_string(&mut out, &self.code);
        out.push_str("\n}");
        out
    }

    /// Parses a completion (see [`RepairResponse::parse`]).
    ///
    /// # Errors
    ///
    /// Returns an error message when no valid JSON object with the
    /// required members is found.
    pub fn parse(content: &str) -> Result<Self, String> {
        parse_json_relaxed(content, |mut v| {
            Ok(CompleteResponse {
                module_name: required_str(&mut v, "module name")?,
                analysis: required_str(&mut v, "analysis")?,
                code: required_str(&mut v, "code")?,
            })
        })
    }
}

/// The opening of a response object up to its `analysis` member, laid
/// out as `Json::render_pretty` lays it out.
fn header(module_name: &str, analysis: &str) -> String {
    let mut out = String::with_capacity(64 + module_name.len() + analysis.len());
    out.push_str("{\n  \"module name\": ");
    write_string(&mut out, module_name);
    out.push_str(",\n  \"analysis\": ");
    write_string(&mut out, analysis);
    out
}

/// Takes the value of `v`'s first member named `key` out of it (what
/// [`Json::get`] would return), leaving `null` behind.
fn member(v: &mut Json, key: &str) -> Option<Json> {
    let Json::Obj(members) = v else { return None };
    let (_, value) = members.iter_mut().find(|(k, _)| k == key)?;
    Some(std::mem::replace(value, Json::Null))
}

fn required_str(v: &mut Json, key: &str) -> Result<String, String> {
    match member(v, key) {
        Some(Json::Str(text)) => Ok(text),
        _ => Err(format!("missing string member '{key}'")),
    }
}

/// A repair pair deserialises from both the object form
/// `{"original": ..., "patched": ...}` and the two-element tuple form
/// `["original", "patched"]` that models sometimes emit.
fn pair_from_json(mut v: Json) -> Result<RepairPair, String> {
    if let Json::Arr(items) = v {
        let Ok([Json::Str(original), Json::Str(patched)]) = <[Json; 2]>::try_from(items) else {
            return Err("tuple-form pair must be two strings".to_string());
        };
        return Ok(RepairPair { original, patched });
    }
    Ok(RepairPair {
        original: required_str(&mut v, "original")?,
        patched: required_str(&mut v, "patched")?,
    })
}

/// Extracts the first top-level JSON object from `content` that
/// `convert` accepts.
fn parse_json_relaxed<T>(
    content: &str,
    convert: impl Fn(Json) -> Result<T, String>,
) -> Result<T, String> {
    // Fast path: the whole content is JSON of the right shape. A
    // failed conversion is not final — the object may be nested inside
    // other JSON (e.g. wrapped in an array), which the brace scan below
    // still finds.
    let mut last_err = None;
    if let Ok(v) = Json::parse(content.trim()) {
        match convert(v) {
            Ok(out) => return Ok(out),
            Err(e) => last_err = Some(e),
        }
    }
    // Otherwise find balanced brace spans and try each.
    let bytes = content.as_bytes();
    let mut start = None;
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escape = false;
    for (i, b) in bytes.iter().enumerate() {
        match (*b, in_str) {
            (b'"', _) if !escape => in_str = !in_str,
            (b'\\', true) => {
                escape = !escape;
                continue;
            }
            (b'{', false) => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            (b'}', false) => {
                depth -= 1;
                if depth == 0 {
                    if let Some(s) = start {
                        match Json::parse(&content[s..=i]).and_then(&convert) {
                            Ok(v) => return Ok(v),
                            Err(e) => last_err = Some(e),
                        }
                        start = None;
                    }
                } else if depth < 0 {
                    depth = 0;
                }
            }
            _ => {}
        }
        escape = false;
    }
    Err(last_err.unwrap_or_else(|| "no valid JSON object found in response".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_repair_response() {
        let r = RepairResponse {
            module_name: "accu".into(),
            analysis: "The error is caused by a wrong operator.".into(),
            correct: vec![RepairPair { original: "a - b".into(), patched: "a + b".into() }],
        };
        let json = r.to_json();
        assert!(json.contains("\"module name\""));
        let back = RepairResponse::parse(&json).unwrap();
        assert_eq!(back, r);
    }

    /// The tree the writers used to build, rendered pretty: the oracle
    /// of their layout.
    fn tree(module_name: &str, analysis: &str, last: (&str, Json)) -> String {
        Json::Obj(vec![
            ("module name".into(), Json::Str(module_name.into())),
            ("analysis".into(), Json::Str(analysis.into())),
            (last.0.into(), last.1),
        ])
        .render_pretty()
    }

    #[test]
    fn writers_match_the_pretty_tree_byte_for_byte() {
        let texts = ["", "m", "with \"quotes\",\ttabs\nand lines\\", "ünïcode ≤ 𝄞 \u{1}"];
        for (a, b) in texts.iter().zip(texts.iter().rev()) {
            for n in 0..3 {
                let pairs: Vec<RepairPair> = (0..n)
                    .map(|i| RepairPair { original: format!("{a}{i}"), patched: b.to_string() })
                    .collect();
                let arr = pairs
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("original".into(), Json::Str(p.original.clone())),
                            ("patched".into(), Json::Str(p.patched.clone())),
                        ])
                    })
                    .collect();
                let r = RepairResponse {
                    module_name: a.to_string(),
                    analysis: b.to_string(),
                    correct: pairs,
                };
                assert_eq!(r.to_json(), tree(a, b, ("correct", Json::Arr(arr))));
                assert_eq!(RepairResponse::parse(&r.to_json()).unwrap(), r);
            }
            let c = CompleteResponse {
                module_name: b.to_string(),
                analysis: a.to_string(),
                code: format!("{a}\n{b}"),
            };
            assert_eq!(c.to_json(), tree(b, a, ("code", Json::Str(c.code.clone()))));
            assert_eq!(CompleteResponse::parse(&c.to_json()).unwrap(), c);
        }
    }

    #[test]
    fn distilling_keeps_the_first_member_and_the_error_order() {
        let dup =
            r#"{"module name": "first", "module name": "second", "analysis": "a", "code": "c"}"#;
        assert_eq!(CompleteResponse::parse(dup).unwrap().module_name, "first");
        let not_str =
            r#"{"module name": 1, "module name": "second", "analysis": "a", "code": "c"}"#;
        assert_eq!(
            CompleteResponse::parse(not_str).unwrap_err(),
            "missing string member 'module name'"
        );
        let bad_pair = r#"{"module name": "m", "correct": [["a"]]}"#;
        assert_eq!(
            RepairResponse::parse(bad_pair).unwrap_err(),
            "tuple-form pair must be two strings"
        );
        let no_pairs = r#"{"module name": "m", "analysis": "a", "correct": "x"}"#;
        assert_eq!(RepairResponse::parse(no_pairs).unwrap_err(), "missing 'correct' array");
    }

    #[test]
    fn parses_with_markdown_fences() {
        // Pairs deserialise from both the tuple form the prompt suggests
        // and the object form.
        let content = "Here is the fix:\n```json\n{\"module name\": \"m\", \
                       \"analysis\": \"x\", \"correct\": [[\"a\", \"b\"]]}\n```\nDone.";
        let content2 = "prose {\"module name\": \"m\", \"analysis\": \"x\", \
                        \"correct\": [{\"original\": \"a\", \"patched\": \"b\"}]} trailing";
        let r1 = RepairResponse::parse(content).unwrap();
        assert_eq!(r1.correct[0].patched, "b");
        let r = RepairResponse::parse(content2).unwrap();
        assert_eq!(r.correct.len(), 1);
        assert_eq!(r.correct[0].original, "a");
    }

    #[test]
    fn complete_response_round_trip() {
        let r = CompleteResponse {
            module_name: "m".into(),
            analysis: "rewrite".into(),
            code: "module m;\nendmodule\n".into(),
        };
        let back = CompleteResponse::parse(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(RepairResponse::parse("not json at all").is_err());
        assert!(RepairResponse::parse("{\"wrong\": 1}").is_err());
    }

    #[test]
    fn object_nested_in_other_json_is_found() {
        // The whole completion parses as an array; the brace scan must
        // still recover the embedded response object.
        let content = "[{\"module name\": \"m\", \"analysis\": \"x\", \
                       \"correct\": [[\"a\", \"b\"]]}]";
        let r = RepairResponse::parse(content).unwrap();
        assert_eq!(r.correct[0].original, "a");
    }

    #[test]
    fn multiline_code_survives_the_round_trip() {
        let r = CompleteResponse {
            module_name: "m".into(),
            analysis: "with \"quotes\" and\ttabs".into(),
            code: "module m(input a, output y);\n  assign y = ~a;\nendmodule\n".into(),
        };
        let back = CompleteResponse::parse(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }
}
