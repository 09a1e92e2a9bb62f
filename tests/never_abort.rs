//! Never-abort properties of the two text front ends a daemon upload or a
//! one-shot run can reach: [`sraa_minic::compile`] and
//! [`sraa_ir::parse_module`]. Whatever the input — random bytes, soup of
//! the language's own tokens, a valid program with tokens dropped or
//! repeated, or a construct nested 10³–10⁵ deep — each returns `Ok` or
//! `Err`. It never panics, and never aborts or overflows the stack.
//!
//! Every case runs on a fresh 2 MiB thread, the stack a daemon connection
//! gets, so a recursion that only fits the 8 MiB main thread fails here.
//! A panic fails the case by name; a stack overflow takes the whole test
//! binary down, which fails it too.

use proptest::collection::vec;
use proptest::prelude::*;

/// The stack size of a spawned thread, and so of a daemon connection.
const DAEMON_STACK: usize = 2 << 20;

/// Runs `accepts` on `src` on a daemon-sized stack and returns its
/// verdict. Panics (failing the property) if the front end panicked.
fn survives(what: &str, src: String, accepts: fn(&str) -> bool) -> bool {
    let len = src.len();
    std::thread::Builder::new()
        .stack_size(DAEMON_STACK)
        .spawn(move || accepts(&src))
        .expect("spawn a 2 MiB thread")
        .join()
        .unwrap_or_else(|_| panic!("{what}: the front end panicked on a {len}-byte input"))
}

fn minic(what: &str, src: String) -> bool {
    survives(what, src, |s| sraa_minic::compile(s).is_ok())
}

fn ir(what: &str, src: String) -> bool {
    survives(what, src, |s| sraa_ir::parse_module(s).is_ok())
}

/// MiniC's tokens, plus a few characters it rejects, space-separated.
const MINIC_TOKENS: &str = "int void if else while for do return break continue malloc input \
    main f x p 0 1 7 ( ) { } [ ] ; , = + - * / % ! & && || < <= > >= == != ? : ++ -- += -= \
    // /* */ | $ \n";

/// The textual IR's tokens, plus a few characters it rejects, space-separated.
const IR_TOKENS: &str = "func global @main @f @g ( ) { } [ ] -> : , = int int* * bb0 bb1 \
    bb0: bb1: %v0 %v1 %v2 %v9 const add sub mul gep phi copy sigma_t(%v0) sigma_f(%v1) cmp lt \
    eq br jump ret load store alloca malloc call globaladdr opaque 0 -1 99999999999999999999 \
    # $ \n";

/// `picks` indexes into the words of `vocabulary`, joined by spaces.
fn soup(vocabulary: &str, picks: &[usize]) -> String {
    let words: Vec<&str> = vocabulary.split(' ').collect();
    let soup: Vec<&str> = picks.iter().map(|&i| words[i % words.len()]).collect();
    soup.join(" ")
}

/// A small valid MiniC program with calls, loops, pointers and globals.
const MINIC_PROGRAM: &str = "int g; int tab[4];
int* adv(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
int main() {
    int a[8]; int i; int s = 0;
    for (i = 0; i < 8; i++) { a[i] = i * 2; }
    int* q = adv(a, 3); int** pp = malloc(4); pp[0] = q;
    s += *q + tab[1] + g;
    do { s = s - 1; } while (s > 100 && s != 7 || !s);
    return s > 3 ? a[3] : input();
}";

/// `MINIC_PROGRAM` in e-SSA form, printed as textual IR.
fn ir_program() -> String {
    let mut m = sraa_minic::compile(MINIC_PROGRAM).expect("the seed program compiles");
    sraa_essa::transform_module(&mut m);
    sraa_ir::printer::print_module(&m)
}

/// `program`'s space-separated words with one edit per entry of
/// `edits`: `(position, op)` drops (op 0), repeats (op 1) or swaps with
/// its neighbour (op 2) the word at `position`.
fn mutate(program: &str, edits: &[(usize, u8)]) -> String {
    let mut words: Vec<&str> = program.split(' ').collect();
    for &(at, op) in edits {
        if words.is_empty() {
            break;
        }
        let i = at % words.len();
        match op {
            0 => {
                words.remove(i);
            }
            1 => words.insert(i, words[i]),
            _ if i + 1 < words.len() => words.swap(i, i + 1),
            _ => {}
        }
    }
    words.join(" ")
}

/// A MiniC construct nested `n` deep, by `shape`. Some are complete
/// programs, some are cut off before they close.
fn minic_nested(shape: u8, n: usize) -> String {
    let main = |body: String| format!("int main() {{ {body} }}");
    match shape {
        0 => main(format!("return {}1{};", "(".repeat(n), ")".repeat(n))),
        1 => main(format!("return {}1;", "!".repeat(n))),
        2 => main(format!("return {}1;", "- ".repeat(n))),
        3 => main(format!("int* p; return {}p;", "*".repeat(n))),
        4 => main(format!("return 1{};", "+1".repeat(n))),
        5 => main(format!("int* p; return p{};", "[0]".repeat(n))),
        6 => main(format!("return {}1;", "1 ? 1 : ".repeat(n))),
        7 => main(format!("{}{}", "{".repeat(n), "}".repeat(n))),
        8 => main(format!("{}return 0;", "if (1) ".repeat(n))),
        9 => main(format!("{}return 0;", "while (1) ".repeat(n))),
        10 => main(format!("int i; {}return 0;", "for (i = 0; i < 1; i++) ".repeat(n))),
        11 => main(format!("if (1) {{}}{} return 0;", " else if (1) {}".repeat(n))),
        12 => format!(
            "int f(int x) {{ return x; }} {}",
            main(format!("return {}1{};", "f(".repeat(n), ")".repeat(n)))
        ),
        13 => main(format!("int{} p; return 0;", "*".repeat(n))),
        14 => main(format!("return {}", "(".repeat(n))),
        15 => main("{".repeat(n)),
        16 => main(format!("return {}", "1 ? ".repeat(n))),
        _ => main(format!("{}return 0;", "do ".repeat(n))),
    }
}

/// A textual-IR construct nested or repeated `n` deep, by `shape`.
fn ir_nested(shape: u8, n: usize) -> String {
    let func = |body: String| format!("func @main() -> int {{\nbb0:\n{body}\n}}\n");
    match shape {
        0 => func(format!("  %v0: int{} = const 0\n  ret %v0", "*".repeat(n))),
        1 => {
            func(format!("  %v0: int = phi {}bb0: %v0{}\n  ret %v0", "[".repeat(n), "]".repeat(n)))
        }
        2 => format!("func @main() -> int {}", "{".repeat(n)),
        3 => format!("func @main() -> int {{{}\nbb0:\n  ret\n}}\n", "{".repeat(n)),
        4 => func(format!("  %v0: int = call @main{}", "(".repeat(n))),
        5 => format!("global @g: int{}[1]\n", "*".repeat(n)),
        _ => func(format!("  %v0: int = const 0\n{}  ret %v0", "  jump bb0\n".repeat(n))),
    }
}

proptest! {
    #[test]
    fn minic_survives_random_bytes(bytes in vec(any::<u8>(), 0..600)) {
        minic("random bytes", String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn minic_survives_token_soup(picks in vec(0usize..1_000, 0..300)) {
        minic("token soup", soup(MINIC_TOKENS, &picks));
    }

    #[test]
    fn minic_survives_mutated_programs(edits in vec((0usize..10_000, 0u8..3), 1..8)) {
        minic("mutated program", mutate(MINIC_PROGRAM, &edits));
    }

    #[test]
    fn minic_survives_deep_nesting(shape in 0u8..18, depth in 1_000usize..100_001) {
        let accepted = minic("deep nesting", minic_nested(shape, depth));
        // Everything this deep is over the nesting or pointer budget.
        prop_assert!(!accepted, "shape {} at depth {} must be rejected", shape, depth);
    }

    #[test]
    fn ir_parser_survives_random_bytes(bytes in vec(any::<u8>(), 0..600)) {
        ir("random bytes", String::from_utf8_lossy(&bytes).into_owned());
    }

    #[test]
    fn ir_parser_survives_token_soup(picks in vec(0usize..1_000, 0..300)) {
        ir("token soup", soup(IR_TOKENS, &picks));
    }

    #[test]
    fn ir_parser_survives_mutated_modules(edits in vec((0usize..10_000, 0u8..3), 1..8)) {
        ir("mutated module", mutate(&ir_program(), &edits));
    }

    #[test]
    fn ir_parser_survives_deep_nesting(shape in 0u8..7, depth in 1_000usize..100_001) {
        ir("deep nesting", ir_nested(shape, depth));
    }
}

#[test]
fn the_seed_programs_are_accepted() {
    assert!(minic("seed program", MINIC_PROGRAM.to_string()));
    assert!(ir("seed module", ir_program()));
    assert!(ir("seed module", mutate(&ir_program(), &[])));
}
