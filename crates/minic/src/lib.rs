//! `sraa-minic` — a C-like frontend for the `sraa` SSA IR.
//!
//! The CGO 2017 paper evaluates its analyses on C programs (SPEC CPU 2006,
//! the LLVM test-suite and Csmith-generated sources). MiniC plays the role
//! of that C surface: a small, pointer-oriented C subset with functions,
//! global and local arrays, `malloc`, pointer arithmetic, nested pointers
//! (`int***`), loops and short-circuit booleans. The lowering performs SSA
//! construction directly (Braun et al., CC 2013 — the same local-value-
//! numbering scheme modern compilers use), producing verified
//! [`sraa_ir::Module`]s.
//!
//! Both motivating examples of the paper's Figure 1 compile unchanged
//! modulo syntax; see `examples/ins_sort.rs` and `examples/partition.rs`
//! at the workspace root.
//!
//! # Example
//!
//! ```
//! let module = sraa_minic::compile(r#"
//!     int sum(int n) {
//!         int s = 0;
//!         for (int i = 0; i < n; i++) s += i;
//!         return s;
//!     }
//! "#).unwrap();
//! assert!(module.function_by_name("sum").is_some());
//! ```

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use ast::{Program, Ty};
pub use lexer::{Token, TokenKind};
pub use lower::lower_program;
pub use parser::parse_program;

use std::fmt;

/// The deepest nesting the front end accepts. Every statement and every
/// expression (parenthesised, unary operand, ternary branch) opens one
/// level of the descent, and no expression tree may be more than this
/// many nodes tall (operator and index chains count one level per
/// operator). Parsing, lowering and dropping the syntax tree all recurse
/// once per level, so the budget bounds their stack use: input nested
/// exactly this deep still compiles on a 2 MiB thread stack in a debug
/// build; deeper input is a [`CompileError`], never a stack overflow.
pub const MAX_NESTING: u32 = 128;

/// The deepest pointer type the front end accepts (`int` followed by this
/// many `*`), the most the IR's [`sraa_ir::Type`] can express. Taking the
/// address of a memory object whose elements are this deep is a
/// [`CompileError`].
pub const MAX_PTR_DEPTH: u8 = u8::MAX;

/// A frontend failure: lexing, parsing, or semantic lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "minic error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles MiniC source text into a verified IR module.
///
/// # Errors
///
/// Returns a [`CompileError`] for syntax or semantic problems. The produced
/// module is additionally run through the IR verifier; a verifier failure
/// (a frontend bug) is reported as a `CompileError` on line 0.
pub fn compile(source: &str) -> Result<sraa_ir::Module, CompileError> {
    let program = parse_program(source)?;
    let module = lower_program(&program)?;
    if let Err(e) = sraa_ir::verify(&module) {
        return Err(CompileError {
            line: 0,
            message: format!("frontend produced invalid IR: {e}"),
        });
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_and_runs_figure1a_ins_sort() {
        // Paper Figure 1 (a), verbatim logic.
        let m = compile(
            r#"
            void ins_sort(int* v, int N) {
                int i; int j;
                for (i = 0; i < N - 1; i++) {
                    for (j = i + 1; j < N; j++) {
                        if (v[i] > v[j]) {
                            int tmp = v[i];
                            v[i] = v[j];
                            v[j] = tmp;
                        }
                    }
                }
            }
            int main() {
                int v[8];
                int k;
                for (k = 0; k < 8; k++) v[k] = 8 - k;
                ins_sort(v, 8);
                int bad = 0;
                for (k = 0; k + 1 < 8; k++) if (v[k] > v[k + 1]) bad = 1;
                return bad;
            }
            "#,
        )
        .unwrap();
        let mut interp = sraa_ir::Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(0), "array must be sorted");
    }

    #[test]
    fn compiles_and_runs_figure1b_partition() {
        // Paper Figure 1 (b): Hoare partition.
        let m = compile(
            r#"
            void partition(int* v, int N) {
                int i; int j; int p; int tmp;
                p = v[N / 2];
                i = 0; j = N - 1;
                while (1) {
                    while (v[i] < p) i++;
                    while (p < v[j]) j--;
                    if (i >= j) break;
                    tmp = v[i];
                    v[i] = v[j];
                    v[j] = tmp;
                    i++; j--;
                }
            }
            int main() {
                int v[9];
                int k;
                for (k = 0; k < 9; k++) v[k] = 9 - k;
                partition(v, 9);
                return v[4];
            }
            "#,
        )
        .unwrap();
        let mut interp = sraa_ir::Interpreter::new(&m);
        // Execution must succeed; the middle element is in the pivot region.
        assert!(interp.run("main", &[]).unwrap().result.is_some());
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = compile("int main() { return nope; }").unwrap_err();
        assert!(e.message.contains("nope"), "{e}");
    }

    #[test]
    fn pointer_walk_idiom() {
        let m = compile(
            r#"
            int sum(int* p, int n) {
                int s = 0;
                int* pe = p + n;
                for (int* pi = p; pi < pe; pi++) s += *pi;
                return s;
            }
            int main() {
                int a[4];
                a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
                return sum(a, 4);
            }
            "#,
        )
        .unwrap();
        let mut interp = sraa_ir::Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(10));
    }

    #[test]
    fn nested_pointers_and_malloc() {
        let m = compile(
            r#"
            int main() {
                int** pp = malloc(4);
                int* row = malloc(8);
                pp[1] = row;
                row[3] = 42;
                int* r2 = pp[1];
                return r2[3];
            }
            "#,
        )
        .unwrap();
        let mut interp = sraa_ir::Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(42));
    }

    #[test]
    fn globals_load_and_store() {
        let m = compile(
            r#"
            int g;
            int table[4];
            int main() {
                g = 5;
                table[2] = g + 1;
                return table[2] + g;
            }
            "#,
        )
        .unwrap();
        let mut interp = sraa_ir::Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(11));
    }

    #[test]
    fn short_circuit_semantics() {
        let m = compile(
            r#"
            int main() {
                int a[2];
                a[0] = 0; a[1] = 7;
                int i = 0;
                if (i < 2 && a[i] == 0) return 1;
                return 0;
            }
            "#,
        )
        .unwrap();
        let mut interp = sraa_ir::Interpreter::new(&m);
        assert_eq!(interp.run("main", &[]).unwrap().result, Some(1));
    }
}

#[cfg(test)]
mod extended_syntax_tests {
    use super::*;

    fn run(src: &str) -> i64 {
        let m = compile(src).unwrap();
        sraa_ir::Interpreter::new(&m).run("main", &[]).unwrap().result.unwrap()
    }

    #[test]
    fn ternary_expression() {
        assert_eq!(run("int main() { int x = 5; return x < 3 ? 10 : 20; }"), 20);
        assert_eq!(run("int main() { int x = 1; return x < 3 ? 10 : 20; }"), 10);
    }

    #[test]
    fn ternary_is_right_associative_and_nests() {
        assert_eq!(run("int main() { int x = 7; return x < 3 ? 1 : x < 10 ? 2 : 3; }"), 2);
    }

    #[test]
    fn ternary_evaluates_only_one_arm() {
        // The untaken arm would trap (out-of-bounds read).
        assert_eq!(
            run(r#"
            int main() {
                int a[2];
                a[0] = 9;
                int i = 0;
                return i == 0 ? a[0] : a[100];
            }"#),
            9
        );
    }

    #[test]
    fn ternary_over_pointers() {
        assert_eq!(
            run(r#"
            int main() {
                int a[2]; int b[2];
                a[0] = 1; b[0] = 2;
                int c = input() % 2;
                int* p = c == c ? &a[0] : &b[0];
                return *p;
            }"#),
            1
        );
    }

    #[test]
    fn do_while_runs_at_least_once() {
        assert_eq!(
            run(r#"
            int main() {
                int n = 0;
                do { n++; } while (n < 0);
                return n;
            }"#),
            1
        );
    }

    #[test]
    fn do_while_loops_and_supports_break_continue() {
        assert_eq!(
            run(r#"
            int main() {
                int i = 0; int s = 0;
                do {
                    i++;
                    if (i % 2 == 0) continue;
                    if (i > 9) break;
                    s += i;
                } while (i < 100);
                return s;
            }"#),
            1 + 3 + 5 + 7 + 9
        );
    }

    #[test]
    fn do_while_condition_uses_loop_variables() {
        assert_eq!(
            run(r#"
            int main() {
                int i = 10; int steps = 0;
                do { i -= 3; steps++; } while (i > 0);
                return steps;
            }"#),
            4
        );
    }

    /// Programs whose nesting uses exactly `levels` of the budget, one per
    /// shape that recurses in the parser or lowering. A function-body
    /// statement is level 1 and its expression level 2.
    fn nested_programs(levels: u32) -> Vec<(&'static str, String)> {
        let n = levels as usize;
        let stmt = |body: &str| format!("int main() {{ {body} }}");
        vec![
            ("parens", stmt(&format!("return {}1{};", "(".repeat(n - 2), ")".repeat(n - 2)))),
            ("unary", stmt(&format!("return {}1;", "!".repeat(n - 2)))),
            // A chain of k operators is k + 1 nodes tall.
            ("operators", stmt(&format!("return 1{};", "+1".repeat(n - 1)))),
            (
                "indexes",
                stmt(&format!("int{} p; return p{};", "*".repeat(n - 1), "[0]".repeat(n - 1))),
            ),
            ("ternaries", stmt(&format!("return {}1;", "1 ? 1 : ".repeat(n - 2)))),
            ("blocks", stmt(&format!("{}{}", "{".repeat(n), "}".repeat(n)))),
            ("ifs", stmt(&format!("{}return 0;", "if (1) ".repeat(n - 2)))),
            // The deepest lowering recursion: statements nested to the
            // limit around an expression as tall as the limit.
            (
                "blocks around operators",
                stmt(&format!(
                    "{}return 1{};{}",
                    "{".repeat(n - 2),
                    "+1".repeat(n - 1),
                    "}".repeat(n - 2)
                )),
            ),
        ]
    }

    /// Compiles (and drops) `src` on a thread with a 2 MiB stack — the
    /// default for spawned threads, and so for daemon connections.
    fn compile_on_small_stack(src: String) -> Result<(), CompileError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || compile(&src).map(drop))
            .expect("spawn compile thread")
            .join()
            .expect("compile must not panic")
    }

    #[test]
    fn nesting_at_the_limit_compiles_on_a_small_stack() {
        for (shape, src) in nested_programs(MAX_NESTING) {
            if let Err(e) = compile_on_small_stack(src) {
                panic!("{shape} at the limit must compile: {e}");
            }
        }
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_compile_error() {
        for (shape, src) in nested_programs(MAX_NESTING + 1) {
            let e = compile_on_small_stack(src).expect_err(shape);
            assert!(e.message.contains("nesting deeper than"), "{shape}: {e}");
        }
    }

    /// A variable assigned in many sequential branches and read once at
    /// the end: the lookup walks back through every join. It is not
    /// nesting, so no budget applies; it must compile on a daemon stack.
    #[test]
    fn long_runs_of_sequential_joins_compile_on_a_small_stack() {
        let joins = "if (1) { y = 1; } ".repeat(10_000);
        let src = format!("int main() {{ int y = 0; {joins}return y; }}");
        compile_on_small_stack(src).expect("sequential joins are valid MiniC");
    }

    #[test]
    fn absurd_nesting_is_rejected_without_overflowing() {
        let parens = 200_000;
        let src = format!("int main() {{ return {}1{}; }}", "(".repeat(parens), ")".repeat(parens));
        assert!(compile_on_small_stack(src).is_err());
    }
}
