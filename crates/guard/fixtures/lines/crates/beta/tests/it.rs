// An integration test, not library code.
fn helper() {}
