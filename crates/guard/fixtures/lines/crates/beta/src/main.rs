// A binary, not library code.
fn main() {}
