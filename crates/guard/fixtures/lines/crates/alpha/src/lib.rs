//! Crate docs: two comment lines
//! (doc comments count as comments).

/* A block comment
   spanning three lines,
   all comment. */

pub fn answer() -> u32 {
    // A comment line inside a body.
    42 // trailing comment: still a code line
}

pub const TEXT: &str = "a string
spanning two lines";

#[cfg(test)]
mod tests {
    // Nothing in here counts.
    #[test]
    fn answer_is_42() {
        assert_eq!(super::answer(), 42);
    }
}
