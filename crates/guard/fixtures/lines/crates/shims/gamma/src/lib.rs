// A crates.io stand-in, not project code.
pub fn shim() {}
