/// One doc line.
pub struct Beta;
