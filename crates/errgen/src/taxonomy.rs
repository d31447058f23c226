//! Error taxonomy: Table I of the paper mapped onto the evaluation
//! categories of Figures 5 (syntax) and 6 (functional).

use std::fmt;

/// Concrete mutation operators (the "paradigm error generator").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    // ---- syntax-breaking mutations -------------------------------
    /// Delete a `;`.
    MissingSemicolon,
    /// Delete an `end` / `endcase`.
    MissingEnd,
    /// Delete a `begin` (leaves dangling `end`).
    UnbalancedBlock,
    /// Corrupt a binary operator (`<=` → `=<`, `&&` → `&&&`, …).
    OperatorTypo,
    /// Misspell a keyword (`always` → `alway`, …).
    KeywordTypo,
    /// Corrupt a based literal (`8'hff` → `8'qff`).
    MalformedLiteral,

    // ---- functional mutations (Table I) --------------------------
    /// `output reg […] x` → `output […] x` (Declare / Type Misuse).
    DeclTypeMisuse,
    /// Shrink/grow a declared range (Declare / Bitwidth Misuse).
    BitwidthMisuse,
    /// Swap an operator within its class (Assignment / Operator Misuse).
    OperatorMisuse,
    /// Replace an identifier with another declared one (Variable Name
    /// Misuse).
    VariableMisuse,
    /// Perturb a literal value (Assignment / Value Misuse).
    ValueMisuse,
    /// Change a comparison constant or operator in a condition
    /// (Condition / Wrong Judgment Value).
    WrongJudgment,
    /// Drop or flip an edge in a sensitivity list (Condition / Wrong
    /// Sensitivity).
    WrongSensitivity,
    /// Swap or truncate instance port connections (Port / Port
    /// Mismatch).
    PortMismatch,
}

impl ErrorKind {
    /// All operators, syntax first.
    pub const ALL: [ErrorKind; 14] = [
        ErrorKind::MissingSemicolon,
        ErrorKind::MissingEnd,
        ErrorKind::UnbalancedBlock,
        ErrorKind::OperatorTypo,
        ErrorKind::KeywordTypo,
        ErrorKind::MalformedLiteral,
        ErrorKind::DeclTypeMisuse,
        ErrorKind::BitwidthMisuse,
        ErrorKind::OperatorMisuse,
        ErrorKind::VariableMisuse,
        ErrorKind::ValueMisuse,
        ErrorKind::WrongJudgment,
        ErrorKind::WrongSensitivity,
        ErrorKind::PortMismatch,
    ];

    /// True when the mutated file no longer parses.
    pub fn is_syntax(&self) -> bool {
        matches!(
            self,
            ErrorKind::MissingSemicolon
                | ErrorKind::MissingEnd
                | ErrorKind::UnbalancedBlock
                | ErrorKind::OperatorTypo
                | ErrorKind::KeywordTypo
                | ErrorKind::MalformedLiteral
        )
    }

    /// Evaluation category (Fig. 5 / Fig. 6 axis).
    pub fn category(&self) -> ErrorCategory {
        use ErrorCategory::*;
        match self {
            ErrorKind::MissingSemicolon | ErrorKind::MissingEnd => {
                Syntax(SyntaxCategory::PrematureTermination)
            }
            ErrorKind::UnbalancedBlock => Syntax(SyntaxCategory::ScopeIssues),
            ErrorKind::OperatorTypo => Syntax(SyntaxCategory::OperatorMisuses),
            ErrorKind::KeywordTypo => Syntax(SyntaxCategory::IncorrectCoding),
            ErrorKind::MalformedLiteral => Syntax(SyntaxCategory::DataHandling),
            ErrorKind::DeclTypeMisuse => Functional(FunctionalCategory::DeclarationErrors),
            ErrorKind::BitwidthMisuse => Functional(FunctionalCategory::IncorrectBitwidth),
            ErrorKind::OperatorMisuse
            | ErrorKind::VariableMisuse
            | ErrorKind::ValueMisuse
            | ErrorKind::PortMismatch => Functional(FunctionalCategory::LogicErrors),
            ErrorKind::WrongJudgment | ErrorKind::WrongSensitivity => {
                Functional(FunctionalCategory::FlawedConditions)
            }
        }
    }

    /// Short machine name.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::MissingSemicolon => "missing_semicolon",
            ErrorKind::MissingEnd => "missing_end",
            ErrorKind::UnbalancedBlock => "unbalanced_block",
            ErrorKind::OperatorTypo => "operator_typo",
            ErrorKind::KeywordTypo => "keyword_typo",
            ErrorKind::MalformedLiteral => "malformed_literal",
            ErrorKind::DeclTypeMisuse => "decl_type_misuse",
            ErrorKind::BitwidthMisuse => "bitwidth_misuse",
            ErrorKind::OperatorMisuse => "operator_misuse",
            ErrorKind::VariableMisuse => "variable_misuse",
            ErrorKind::ValueMisuse => "value_misuse",
            ErrorKind::WrongJudgment => "wrong_judgment",
            ErrorKind::WrongSensitivity => "wrong_sensitivity",
            ErrorKind::PortMismatch => "port_mismatch",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Fig. 5 syntax-error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntaxCategory {
    PrematureTermination,
    ScopeIssues,
    OperatorMisuses,
    IncorrectCoding,
    DataHandling,
}

impl SyntaxCategory {
    /// All categories in the order of Fig. 5.
    pub const ALL: [SyntaxCategory; 5] = [
        SyntaxCategory::PrematureTermination,
        SyntaxCategory::ScopeIssues,
        SyntaxCategory::OperatorMisuses,
        SyntaxCategory::IncorrectCoding,
        SyntaxCategory::DataHandling,
    ];

    /// Display label matching the paper's figure.
    pub fn label(&self) -> &'static str {
        match self {
            SyntaxCategory::PrematureTermination => "Premature termination",
            SyntaxCategory::ScopeIssues => "Scope issues",
            SyntaxCategory::OperatorMisuses => "Operator misuses",
            SyntaxCategory::IncorrectCoding => "Incorrect coding",
            SyntaxCategory::DataHandling => "Data handling",
        }
    }
}

/// Fig. 6 functional-error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FunctionalCategory {
    DeclarationErrors,
    FlawedConditions,
    IncorrectBitwidth,
    LogicErrors,
}

impl FunctionalCategory {
    /// All categories in the order of Fig. 6.
    pub const ALL: [FunctionalCategory; 4] = [
        FunctionalCategory::DeclarationErrors,
        FunctionalCategory::FlawedConditions,
        FunctionalCategory::IncorrectBitwidth,
        FunctionalCategory::LogicErrors,
    ];

    /// Display label matching the paper's figure.
    pub fn label(&self) -> &'static str {
        match self {
            FunctionalCategory::DeclarationErrors => "Declaration errors",
            FunctionalCategory::FlawedConditions => "Flawed conditions",
            FunctionalCategory::IncorrectBitwidth => "Incorrect bitwidth",
            FunctionalCategory::LogicErrors => "Logic errors",
        }
    }
}

/// The Fig. 5 / Fig. 6 axis an [`ErrorKind`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCategory {
    Syntax(SyntaxCategory),
    Functional(FunctionalCategory),
}

impl ErrorCategory {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorCategory::Syntax(c) => c.label(),
            ErrorCategory::Functional(c) => c.label(),
        }
    }

    /// True for syntax categories.
    pub fn is_syntax(&self) -> bool {
        matches!(self, ErrorCategory::Syntax(_))
    }
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_partitions() {
        let syntax = ErrorKind::ALL.iter().filter(|k| k.is_syntax()).count();
        assert_eq!((syntax, ErrorKind::ALL.len() - syntax), (6, 8));
        for k in ErrorKind::ALL {
            assert_eq!(k.is_syntax(), k.category().is_syntax(), "{k}");
        }
    }

    #[test]
    fn categories_cover_paper_figures() {
        assert_eq!(SyntaxCategory::ALL.len(), 5);
        assert_eq!(FunctionalCategory::ALL.len(), 4);
        // Every syntax category is producible by at least one kind.
        for c in SyntaxCategory::ALL {
            assert!(
                ErrorKind::ALL.iter().any(|k| k.category() == ErrorCategory::Syntax(c)),
                "{}",
                c.label()
            );
        }
        for c in FunctionalCategory::ALL {
            assert!(
                ErrorKind::ALL.iter().any(|k| k.category() == ErrorCategory::Functional(c)),
                "{}",
                c.label()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ErrorKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 14);
    }
}
